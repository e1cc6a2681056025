"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from vdwdim import kernels


@pytest.fixture(autouse=True)
def nan_workspace():
    """Fill this thread's kernel workspace buffers with NaN before each test.

    A kernel that reads workspace memory it did not write in the same call
    then reads NaN and fails its test, instead of passing on values an
    earlier test left there.
    """
    for buf in vars(kernels._WORKSPACE).values():
        buf.fill(np.nan)
