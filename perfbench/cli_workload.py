"""The ``cli`` workload: one fresh ``vdw`` process per op, checked against the seed.

A round holds a fixed list of op kinds; the seed draws each op's parameters
from finite variant lists (cycling through a seeded permutation so that every
variant is used before any repeats) and shuffles the order within a round.
Keeping the kinds fixed per round keeps the mix, and so the metrics, steady
from seed to seed.

References come from ``reference.json``, recorded at the seed commit by
``make_reference.py``: SHA-256 digests of every ``expand`` output, the text
of every float-valued output, and the names of the fast verify checks.  The
two defects known at the seed (``curve --format json`` cannot serialize a
``numpy.bool_``; a d=1 potential on the axis inside the cloud divides by
zero) are not steered around: their ops stay in every round.
"""

import hashlib
import json
import math
import random

from common import ROOT

REFERENCE_PATH = ROOT / "perfbench" / "reference.json"

RELATIVE_TOL = 1e-9

CURVE_GRIDS = (
    (3.0, 12.0, 20),
    (2.5, 8.0, 7),
    (4.0, 20.0, 50),
    (1.5, 6.0, 10),
    (3.0, 15.0, 33),
    (5.0, 9.0, 11),
)
# d=1 sweeps that start on the axis inside the cloud, where the cloud
# potential is log-divergent; the correct outcome is a clean error line.
POTENTIAL_D1_INSIDE = (
    ("4,9,15", "0,45"),
    ("3.5,10", "0,30,90"),
    ("6,20", "0"),
    ("5,12,30", "0,60"),
)
POTENTIAL_OUTSIDE = (
    ("9,12,20", "0,30,60,90"),
    ("10,15", "0,45"),
    ("12,25,40", "0,90"),
    ("9.5,30", "0,60"),
    ("11,17,23,35", "0"),
    ("14", "0,15,30,45,60,75,90"),
)
POTENTIAL_D3 = (
    ("2,5,9", "0,45,90"),
    ("3,12", "0,30"),
    ("6,20,40", "0,90"),
    ("2.5,7.5", "0,60"),
)
INVALID = (
    "expand --dim 3 --order 13",
    "curve --preset custom",
    "moments --atom hydrogen1d --dim 2",
    "potential --dim 2 --radii 0",
    "exact --preset custom --hbar-omega -1",
    "potential --dim 1 --methods bogus",
    "potential --dim 2 --atom ring --radius -1",
)


def _grid_args(grid):
    rmin, rmax, steps = grid
    return f"--rmin {rmin:g} --rmax {rmax:g} --steps {steps}"


def variants():
    """Every op the workload can issue, by kind: (argv string, check kind)."""
    kinds = {}
    for d in (1, 2, 3):
        kinds[f"expand-d{d}"] = [
            (f"expand --dim {d} --order {n} --format {fmt}", "digest")
            for n in range(5, 13)
            for fmt in ("text", "json")
        ]
    kinds["curve-csv"] = [
        (f"curve --dim {d} {_grid_args(g)}", "table")
        for d in (1, 2, 3) for g in CURVE_GRIDS
    ]
    kinds["curve-json"] = [
        (f"curve --dim {d} {_grid_args(g)} --format json", "curve-json")
        for d in (1, 2, 3) for g in CURVE_GRIDS
    ]
    kinds["exact"] = [
        (f"exact --dim {d} {_grid_args(g)}", "table")
        for d in (1, 2, 3) for g in CURVE_GRIDS
    ]
    kinds["potential-d1-inside"] = [
        (f"potential --dim 1 --radii {r} --thetas {t}", "error")
        for r, t in POTENTIAL_D1_INSIDE
    ]
    for d, table in ((1, POTENTIAL_OUTSIDE), (2, POTENTIAL_OUTSIDE), (3, POTENTIAL_D3)):
        kinds[f"potential-d{d}"] = [
            (f"potential --dim {d} --radii {r} --thetas {t}", "table")
            for r, t in table
        ]
    kinds["verify"] = [("verify --level fast", "verify")]
    kinds["invalid"] = [(argv, "error") for argv in INVALID]
    return kinds


def rounds(seed):
    """Endless rounds of ops; each op is (kind, argv string, check kind)."""
    rng = random.Random(seed)
    kinds = variants()
    decks = {kind: [] for kind in kinds}

    def draw(kind):
        if not decks[kind]:
            decks[kind] = rng.sample(kinds[kind], len(kinds[kind]))
        return decks[kind].pop()

    while True:
        ops = [(kind, *draw(kind)) for kind in kinds]
        rng.shuffle(ops)
        yield ops


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def _numbers_match(got, want):
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(g, w, rel_tol=RELATIVE_TOL, abs_tol=0.0)


def _table(text):
    return [line.split(",") for line in text.strip().splitlines()]


def _tables_match(got_text, want_text):
    got, want = _table(got_text), _table(want_text)
    if len(got) != len(want) or got[0] != want[0]:
        return False
    for g_row, w_row in zip(got[1:], want[1:]):
        if len(g_row) != len(w_row):
            return False
        if not all(_numbers_match(g, w) for g, w in zip(g_row, w_row)):
            return False
    return True


def _curve_json_matches(got_text, csv_text):
    rows = json.loads(got_text)
    want = _table(csv_text)
    header, want = want[0], want[1:]
    if len(rows) != len(want):
        return False
    for row, cells in zip(rows, want):
        ref = dict(zip(header, cells))
        for key in ("R_tilde", "r5", "r6", "r7", "total"):
            if not _numbers_match(repr(row[key]), ref[key]):
                return False
        if ref["exact"] == "":
            if row["exact"] is not None or row["exact_valid"] is not False:
                return False
        elif row["exact_valid"] is not True or not _numbers_match(
            repr(row["exact"]), ref["exact"]
        ):
            return False
        if str(row["dim"]) != ref["dim"] or row["preset"] != ref["preset"]:
            return False
    return True


def program_stderr(stderr):
    """stderr without the lines ``-X importtime`` adds."""
    return [ln for ln in stderr.splitlines() if not ln.startswith("import time:")]


def check(op, returncode, stdout, stderr, reference):
    """'pass', 'crash' (no usable result) or 'mismatch' (a wrong result)."""
    _, argv, how = op
    err = program_stderr(stderr)
    if any(ln.startswith("Traceback") for ln in err):
        return "crash"
    if how == "error":
        clean = (
            returncode != 0
            and stdout == ""
            and len(err) == 1
            and err[0].startswith("error: ")
        )
        return "pass" if clean else "mismatch"
    if returncode != 0:
        return "crash"
    if how == "digest":
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        ok = digest == reference["digest"][argv]
    elif how == "table":
        ok = _tables_match(stdout, reference["text"][argv])
    elif how == "curve-json":
        csv_argv = argv.replace(" --format json", "")
        try:
            ok = _curve_json_matches(stdout, reference["text"][csv_argv])
        except (ValueError, KeyError, TypeError):
            ok = False
    else:  # verify
        lines = stdout.strip().splitlines()
        names = [ln.split("] ", 1)[1].split(":", 1)[0] for ln in lines[:-1]]
        n = len(reference["verify_fast"])
        ok = (
            names == reference["verify_fast"]
            and all(ln.startswith("[PASS] ") for ln in lines[:-1])
            and lines[-1] == f"{n}/{n} checks passed (level fast)"
        )
    return "pass" if ok else "mismatch"
