#!/usr/bin/env python3
"""Benchmark of vdwdim on three seeded workloads, untraced or traced.

    python3 perfbench/run.py --workload {cli,series,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
Every process the benchmark starts has one OpenBLAS/OpenMP thread.  All
workloads are closed loops with one client: the next op starts when the
previous one has finished and been checked.  Ops come in rounds of a fixed
mix; the loop stops at the first round boundary after ``--seconds`` at which
it has at least ``MIN_OPS`` samples.

Workloads (the ``why`` of each is in BENCHMARK.json):

* ``cli`` -- each op is a fresh ``python -m vdwdim.cli`` process
  (``cli_workload.py``).
* ``series`` and ``oracle`` -- ops run inside one worker process
  (``inproc.py``).

End-to-end metrics (``--trace 0``):

* ``setup_s`` -- ``cli``: median wall time of seven ``vdw --version``
  processes; in-process workloads: median over seven worker processes of the
  time to import, build fixtures and run one warm-up op.
* ``op_p50_s`` / ``op_tail_s`` -- median and a fixed high percentile of op
  latency (``TAIL_Q``; ``MIN_OPS`` puts at least ten samples beyond it), as
  Harrell-Davis estimates.  The percentile and the count beyond it are
  printed and saved.
* ``ops_per_s`` -- ops completed per second of the timed loop, as the median
  over its rounds (every round holds the same mix).
* ``ok_share`` -- ops whose output passed its check over ops attempted,
  that is 1 - fail share; the final line's ``failed`` counts the rest.
* ``peak_rss_mb`` -- peak resident memory of the worker, or of the largest
  ``vdw`` process for ``cli``.

``--trace 1`` runs the first round twice, untraced and under the tracer
(``tracer.py``), and reports the per-layer metrics named in BENCHMARK.json:
self time, calls and work counts per layer summed over the round, import
times per process from ``-X importtime``, the tracing overhead, and the four
kernel cases of ``benchmarks/bench_kernels.py`` (``kernel_cases.py``).

``correct`` in the final line is false when any op produced a wrong result;
an op that crashed counts in ``failed`` but produced no result to be wrong.
Details, the environment and spans are saved under ``.perfbench/``.
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time

import cli_workload
from common import (
    OUT_DIR,
    ROOT,
    THREAD_ENV,
    child_env,
    environment,
    last_json_line,
    latency_summary,
    outermost_import_s,
    peak_child_rss_mb,
    require_checkout,
    write_result,
)

HERE = ROOT / "perfbench"
TAIL_Q = {"cli": 70, "series": 75, "oracle": 85}
# Whole rounds needed for at least ten samples beyond the tail percentile.
MIN_OPS = {"cli": 36, "series": 48, "oracle": 69}
CLI_SETUP_RUNS = 7
INPROC_SETUP_RUNS = 6  # plus the measuring worker's own set-up
PROCESS_TIMEOUT_S = 150


def _run(cmd, **kwargs):
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S, **kwargs,
    )


def _worker(workload, seed, seconds, mode, min_ops=0, importtime=False):
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "inproc.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--min-ops", str(min_ops), "--mode", mode]
    proc = _run(cmd)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {workload} worker failed in mode {mode}")
    return last_json_line(proc.stdout), proc.stderr


def _add_stats(total, stats):
    for name, row in stats.items():
        into = total.setdefault(name, {})
        for key, value in row.items():
            into[key] = into.get(key, 0) + value


# --- cli -----------------------------------------------------------------


def _cli_op(op, reference, spans_path=None):
    argv = shlex.split(op[1])
    if spans_path is None:
        cmd = [sys.executable, "-m", "vdwdim.cli", *argv]
    else:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_launch.py"),
               str(spans_path), "--", *argv]
    t0 = time.perf_counter()
    proc = _run(cmd)
    latency = time.perf_counter() - t0
    outcome = cli_workload.check(op, proc.returncode, proc.stdout, proc.stderr, reference)
    err = cli_workload.program_stderr(proc.stderr)
    record = {"kind": op[0], "argv": op[1], "latency_s": latency, "outcome": outcome,
              "detail": err[-1] if err and outcome != "pass" else None}
    return record, proc


def _cli_pass(ops, reference, seconds=None, min_ops=0, traced=False):
    """Run whole rounds; returns records, each round's wall time, child traces."""
    records, round_walls, traces = [], [], []
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for round_ops in ops:
            r0 = time.perf_counter()
            for i, op in enumerate(round_ops):
                spans_path = f"{tmp}/{i}.json" if traced else None
                record, proc = _cli_op(op, reference, spans_path)
                records.append(record)
                if traced:
                    with open(spans_path) as fh:
                        child = json.load(fh)
                    child["wall_s"] = record["latency_s"]
                    child["stderr"] = proc.stderr
                    traces.append(child)
            round_walls.append(time.perf_counter() - r0)
            if seconds is None or (len(records) >= min_ops
                                   and time.perf_counter() - t0 >= seconds):
                break
    return records, round_walls, traces


def run_cli(args):
    reference = cli_workload.load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    setups = []
    for _ in range(CLI_SETUP_RUNS):
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-m", "vdwdim.cli", "--version"])
        setups.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            sys.exit("perfbench: vdw --version failed")
    result = {"setup_s": statistics.median(setups), "setup_samples": setups}
    rounds = cli_workload.rounds(args.seed)
    if not args.trace:
        records, round_walls, _ = _cli_pass(rounds, reference, seconds=args.seconds,
                                            min_ops=MIN_OPS["cli"])
        result.update(records=records, round_walls_s=round_walls,
                      wall_s=sum(round_walls), peak_rss_mb=peak_child_rss_mb())
        return result

    first = next(rounds)
    untraced, (untraced_wall,), _ = _cli_pass([first], reference)
    traced, (traced_wall,), traces = _cli_pass([first], reference, traced=True)
    stats = {}
    for child in traces:
        _add_stats(stats, child["stats"])
        covered = sum(end - start for _, parent, _, _, start, end in child["spans"]
                      if parent is None)
        _add_stats(stats, {"cli.process": {"calls": 1,
                                           "self_s": child["wall_s"] - covered}})
    spans = write_result(f"spans-cli-seed{args.seed}.json",
                         [{"stats": c["stats"], "spans": c["spans"]} for c in traces])
    result.update(
        records=untraced + traced, untraced_wall_s=untraced_wall,
        traced_wall_s=traced_wall, stats=stats, spans_file=str(spans),
        root_span="cli.process",
        import_vdwdim_s=statistics.median(
            outermost_import_s(c["stderr"], "vdwdim") for c in traces),
        import_scipy_s=statistics.median(
            outermost_import_s(c["stderr"], "scipy") for c in traces),
    )
    return result


# --- series / oracle -----------------------------------------------------


def run_inproc(args):
    setups = [_worker(args.workload, args.seed, 0, "setup")[0]["setup_s"]
              for _ in range(INPROC_SETUP_RUNS)]
    if not args.trace:
        out, _ = _worker(args.workload, args.seed, args.seconds, "run",
                         min_ops=MIN_OPS[args.workload])
        setups.append(out["setup_s"])
        out.update(setup_s=statistics.median(setups), setup_samples=setups)
        return out
    untraced, _ = _worker(args.workload, args.seed, 0, "run")
    traced, stderr = _worker(args.workload, args.seed, 0, "trace", importtime=True)
    setups += [untraced["setup_s"], traced["setup_s"]]
    return {
        "setup_s": statistics.median(setups), "setup_samples": setups,
        "records": untraced["records"] + traced["records"],
        "untraced_wall_s": untraced["wall_s"], "traced_wall_s": traced["wall_s"],
        "stats": traced["stats"], "spans_file": traced["spans_file"],
        "root_span": "bench.op",
        "import_vdwdim_s": outermost_import_s(stderr, "vdwdim"),
        "import_scipy_s": outermost_import_s(stderr, "scipy"),
    }


# --- report --------------------------------------------------------------


def end_to_end(result, workload):
    records = result["records"]
    lat = latency_summary([r["latency_s"] for r in records], TAIL_Q[workload])
    passed = sum(r["outcome"] == "pass" for r in records)
    walls = result["round_walls_s"]
    per_round = len(records) / len(walls)
    result["latency"] = lat
    return {
        "setup_s": result["setup_s"],
        "op_p50_s": lat["p50_s"],
        "op_tail_s": lat["tail_s"],
        "ops_per_s": statistics.median(per_round / w for w in walls),
        "ok_share": passed / len(records),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, names):
    stats = result["stats"]
    kernel = last_json_line(_run([sys.executable, str(HERE / "kernel_cases.py")]).stdout)
    total_self = sum(row["self_s"] for row in stats.values())
    special = {
        "import.vdwdim_s": result["import_vdwdim_s"],
        "import.scipy_s": result["import_scipy_s"],
        "trace.overhead_share":
            result["traced_wall_s"] / result["untraced_wall_s"] - 1.0,
        "trace.accounted_share": total_self / result["traced_wall_s"],
        "trace.unattributed_s": stats[result["root_span"]]["self_s"],
        **kernel,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        else:
            layer, field = name.rsplit(".", 1)
            values[name] = stats.get(layer, {}).get(field, 0)
    result["kernel_cases"] = kernel
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("cli", "series", "oracle"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_checkout()
    os.environ.update(THREAD_ENV)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload == "cli":
        result = run_cli(args)
    else:
        result = run_inproc(args)
    if args.trace:
        specs = spec["per_layer"]
        values = per_layer(result, [m["name"] for m in specs])
    else:
        specs = spec["end_to_end"]
        values = end_to_end(result, args.workload)

    records = result["records"]
    outcomes = [r["outcome"] for r in records]
    result["env"] = environment()
    result["args"] = vars(args)
    path = write_result(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", result
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"ops {len(records)} attempted, {outcomes.count('crash')} crashed, "
          f"{outcomes.count('mismatch')} wrong")
    kinds = sorted({r["kind"] for r in records})
    for kind in kinds:
        rows = [r for r in records if r["kind"] == kind]
        bad = [r for r in rows if r["outcome"] != "pass"]
        note = f"  {bad[0]['outcome']}: {bad[0]['detail']}" if bad else ""
        p50 = statistics.median(r["latency_s"] for r in rows)
        print(f"  {kind:<22} n={len(rows):<4} p50={p50:.4f}s  failed={len(bad)}{note}")
    if "latency" in result:
        lat = result["latency"]
        print(f"op_tail_s is p{lat['tail_q']}: {lat['beyond_tail']} of "
              f"{lat['samples']} samples beyond it")
    for m in specs:
        print(f"  {m['name']:<44} {values[m['name']]:.6g} {m['unit']}")
    print(f"details in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": "mismatch" not in outcomes,
        "attempted": len(records),
        "failed": len(records) - outcomes.count("pass"),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }))


if __name__ == "__main__":
    main()
