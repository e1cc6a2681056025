"""Helpers shared by the controller and the worker processes."""

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Fixed in every process the benchmark launches, before numpy is imported.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_checkout():
    """Exit with status 2 unless the package sources are in this checkout."""
    if not (SRC / "vdwdim" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def check_imported_from_checkout(module):
    if not Path(module.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: {module.__name__} imported from {module.__file__}",
              file=sys.stderr)
        sys.exit(2)


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile (0 < q < 1) of a sample.

    A beta-weighted mean of all order statistics.  The ops of a round have a
    few distinct costs, so the plain sample quantile jumps whenever machine
    noise reorders the two kinds that straddle it; this estimate moves smoothly.
    """
    from scipy.stats import beta

    xs = sorted(values)
    n = len(xs)
    cdf = beta.cdf([i / n for i in range(n + 1)], q * (n + 1), (1 - q) * (n + 1))
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def latency_summary(latencies, tail_q):
    """Median, the fixed tail percentile, and how many samples lie beyond it."""
    tail = harrell_davis(latencies, tail_q / 100.0)
    return {
        "samples": len(latencies),
        "p50_s": harrell_davis(latencies, 0.5),
        "tail_q": tail_q,
        "tail_s": tail,
        "beyond_tail": sum(1 for x in latencies if x > tail),
    }


def peak_child_rss_mb():
    """Largest resident set of any child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def own_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outermost_import_s(importtime_stderr, prefix):
    """Cumulative seconds of the outermost ``-X importtime`` entries of a package.

    importtime prints each module after the modules it imported, indented one
    step deeper per level; walking the lines backwards visits parents first.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        stripped = name.lstrip(" ")
        level = (len(name) - len(stripped) - 1) // 2
        entries.append((level, int(cumulative), stripped.strip()))
    total_us = 0
    stack = []  # (level, inside the package)
    for level, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == prefix or name.startswith(prefix + ".")
        if mine and not inside:
            total_us += cumulative
        stack.append((level, inside or mine))
    return total_us / 1e6


def environment():
    """What a result depends on besides the code: versions, cores, threads."""
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import vdwdim

    check_imported_from_checkout(vdwdim)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "backend": vdwdim.backend_name(),
        "commit": commit,
        "openblas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
    }


def write_result(name, data):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(data, indent=1, sort_keys=True))
    return path


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])
