"""Shared fixtures for the test suite."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from vdwdim import kernels

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(autouse=True)
def nan_workspace():
    """Fill this thread's kernel workspace buffers with NaN before each test.

    A kernel that reads workspace memory it did not write in the same call
    then reads NaN and fails its test, instead of passing on values an
    earlier test left there.
    """
    for buf in vars(kernels._WORKSPACE).values():
        buf.fill(np.nan)


@pytest.fixture
def perfbench(monkeypatch):
    """Loads ``perfbench/<name>.py`` as a module, registered for the test.

    The benchmark's files import each other by bare name (``from common
    import ...``), so each loaded module stays in ``sys.modules`` until the
    test ends.
    """

    def load(name):
        spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load
