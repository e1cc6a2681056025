"""Smoke tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload makes its shortest run (``--seconds 0``: the fewest whole rounds
that give the tail percentile ten samples beyond it); a checkout copy with
corrupted references must report failures; a directory without the package
sources must be refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _copy_checkout(dest, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src" / "vdwdim", dest / "src" / "vdwdim",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _bench(root, workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc, (json.loads(proc.stdout.strip().splitlines()[-1])
                  if proc.returncode == 0 else None)


@pytest.mark.parametrize("workload", ["cli", "series", "oracle"])
def test_shortest_run_of_every_workload(tmp_path, workload):
    _copy_checkout(tmp_path)
    proc, out = _bench(tmp_path, workload)
    assert proc.returncode == 0, proc.stderr
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert out["correct"] is True
    assert out["attempted"] >= 1
    # At the commit that defined the benchmark, seed 3 fails only on the two
    # known CLI defects: curve --format json and the d=1 potential on the axis
    # inside the cloud.
    result = json.loads(
        (tmp_path / ".perfbench" / f"result-{workload}-seed3-trace0.json").read_text()
    )
    failed_kinds = {r["kind"] for r in result["records"] if r["outcome"] != "pass"}
    assert failed_kinds <= {"curve-json", "potential-d1-inside"}
    assert out["failed"] == len(
        [r for r in result["records"] if r["outcome"] != "pass"]
    )
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    _copy_checkout(tmp_path)
    proc, out = _bench(tmp_path, "oracle", trace=1)
    assert proc.returncode == 0, proc.stderr
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["oracle.oscillator_basis_diag.basis_dim"] > 0
    assert metrics["kernels.pair_expectation.evals"] > 0
    assert abs(metrics["trace.accounted_share"] - 1.0) < 0.05


def test_corrupted_cli_reference_is_reported_as_failure(tmp_path):
    _copy_checkout(tmp_path)
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["digest"] = {k: "0" * 64 for k in ref["digest"]}
    for key, text in ref["text"].items():
        header, first, *rest = text.splitlines()
        cells = first.split(",")
        cells[0] = repr(float(cells[0]) * (1 + 1e-6))
        ref["text"][key] = "\n".join([header, ",".join(cells), *rest]) + "\n"
    ref_path.write_text(json.dumps(ref))
    proc, out = _bench(tmp_path, "cli")
    assert proc.returncode == 0, proc.stderr
    assert out["correct"] is False
    assert out["failed"] > 2


@pytest.mark.parametrize("workload", ["series", "oracle"])
def test_corrupted_inproc_reference_is_reported_as_failure(workload):
    sys.path.insert(0, str(ROOT / "src"))
    import inproc

    bench = inproc.WORKLOADS[workload]()
    op = next(bench.rounds(5))[0]
    assert inproc.run_op(bench, op)[1] == "pass"

    honest = bench.reference

    def corrupted(op):
        ref = honest(op)
        if workload == "series":
            return {**ref, "second": ref["second"] * (1 + 1e-9)}
        return ref * 1.3 if ref else 1.0

    bench.reference = corrupted
    assert inproc.run_op(bench, op)[1] == "mismatch"


def test_refuses_a_directory_without_package_sources(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc, _ = _bench(tmp_path, "series")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
