"""Command-line interface: formats, determinism, exit codes, fault reporting."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import vdwdim
from vdwdim import cli, multipole, potential, verify
from vdwdim.oracle import ConvergenceError
from vdwdim.potential import QuadratureError
from vdwdim.multipole import InteractionSeries, Monomial


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_dipole_term_text(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--dim", "1", "--order", "3")
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body == ["1/R^3:", "  (-2) * xA*xB"]

    def test_below_leading_order_note(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--dim", "2", "--order", "2")
        assert code == 0
        assert "neutrality" in out
        assert "1/R^" not in out.replace("/R^3:", "")  # no term lines

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--dim", "3", "--order", "5", "--format", "json"
        )
        assert code == 0
        series = InteractionSeries.from_dict(json.loads(out))
        assert series == multipole.expand_interaction(3, 5)

    def test_cap_exceeded_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--dim", "1", "--order", "99")
        assert code == 1
        assert "cap" in err

    def test_order5_contains_reference_terms(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--dim", "3", "--order", "5")
        assert code == 0
        assert "1/R^5:" in out
        assert "(9/4) * yA^2*yB^2" in out  # one collected order-5 monomial


class TestMoments:
    def test_drude_csv(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--atom", "drude", "--dim", "1")
        assert code == 0
        rows = dict(
            line.split(",") for line in out.splitlines()[1:] if line
        )
        assert float(rows["a"]) == pytest.approx(1.0)
        assert float(rows["alpha"]) == pytest.approx(3.0)
        assert float(rows["x4"]) == pytest.approx(3.0)

    def test_hydrogen_alpha_empty(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--atom", "hydrogen1d", "--dim", "1")
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines()[1:] if line)
        assert rows["alpha"] == ""
        assert float(rows["a"]) == 0.0

    def test_hydrogen_needs_dim_one(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--atom", "hydrogen1d", "--dim", "2")
        assert code == 1 and "one-dimensional" in err

    def test_ring_alpha(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--atom", "ring", "--dim", "2", "--format", "json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["alpha"] == pytest.approx(1.5)


class TestPotential:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--atom", "drude", "--dim", "1",
            "--radii", "10,20", "--thetas", "0,90",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,theta_deg,value,method"
        # quadrature + multipole3 everywhere, multipole5 only on axis
        assert len(lines) - 1 == 2 * (2 * 2) + 2
        on_axis = [l for l in lines[1:] if l.split(",")[1].startswith("0.0")]
        values = {l.split(",")[3]: float(l.split(",")[2]) for l in on_axis
                  if l.split(",")[0].startswith("1.0")}
        assert values["quadrature"] < 0
        assert values["multipole5"] == pytest.approx(
            -1e-3 - 3e-5, rel=1e-12, abs=0.0
        )

    def test_d1_on_axis_inside_cloud_single_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "potential", "--atom", "drude", "--dim", "1",
            "--radii", "5", "--thetas", "0",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "methods", ["bogus", "quadrature,bogus", "multipole3,bogus,also"]
    )
    def test_unknown_method_rejected_before_any_work(self, capsys, methods):
        # the d = 1 quadrature on the axis inside the cloud would raise first
        code, out, err = run_cli(
            capsys, "potential", "--dim", "1", "--radii", "4",
            "--methods", methods,
        )
        assert (code, out, err) == (1, "", "error: unknown method 'bogus'\n")

    @pytest.mark.parametrize(
        "argv, methods",
        [
            # cos^2 is 1 - 1.95e-12 at 8e-5 degrees: off axis for order 5
            ("potential --dim 1 --radii 20 --thetas 0.00008",
             ["quadrature", "multipole3"]),
            # s^3 overflows a float; the value underflows
            ("potential --radii 1e103 --methods multipole3", ["multipole3"]),
        ],
    )
    def test_rows_without_error(self, capsys, argv, methods):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert [line.split(",")[3] for line in out.splitlines()[1:]] == methods

    def test_vanishing_quadrupole_prints_positive_zero(self, capsys):
        # the d = 3 quadrupole (d - 3 cos^2)/2 is zero at every angle
        code, out, err = run_cli(
            capsys, "potential", "--dim", "3", "--radii", "5", "--thetas", "0,90",
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        quadrupole = [value for _, _, value, method in rows if method == "multipole3"]
        assert quadrupole == ["0.000000000000e+00"] * 2

    def test_quadrature_error_single_error_line(self, capsys, monkeypatch):
        def fail(atom, point):
            raise QuadratureError("quadrature error 1e-03 too large")

        monkeypatch.setattr(potential, "v_a_numeric", fail)
        code, out, err = run_cli(capsys, "potential", "--methods", "quadrature")
        assert code == 1
        assert out == ""
        assert err == "error: quadrature error 1e-03 too large\n"


class TestCurve:
    def test_header_and_determinism(self, capsys):
        args = ("curve", "--dim", "1", "--rmin", "3", "--rmax", "12",
                "--steps", "20")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte identical
        assert out1.splitlines()[0] == "R_tilde,r5,r6,r7,total,exact,dim,preset"

    def test_d3_columns_vanish(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve", "--dim", "3", "--rmin", "3", "--rmax", "9",
            "--steps", "5",
        )
        for line in out.splitlines()[1:]:
            cols = line.split(",")
            assert float(cols[1]) == 0.0 and float(cols[3]) == 0.0

    def test_rows_below_validity_lack_exact(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve", "--dim", "2", "--rmin", "1", "--rmax", "12",
            "--steps", "12",
        )
        rows = [line.split(",") for line in out.splitlines()[1:]]
        low = [r for r in rows if float(r[0]) <= 2.0]
        high = [r for r in rows if float(r[0]) > 2.0]
        assert low and all(r[5] == "" for r in low)
        assert high and all(r[5] != "" for r in high)

    def test_json_format(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve", "--dim", "1", "--rmin", "5", "--rmax", "5",
            "--steps", "1", "--format", "json",
        )
        row = json.loads(out)[0]
        assert row["r5"] == pytest.approx(6.0 / 3125.0)
        assert row["exact_valid"] is True

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--dim", "4"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--rmin", "-1"])
        assert exc.value.code == 2


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            "exact --preset custom --hbar-omega 1 --a 0",
            "curve --preset custom --hbar-omega 1 --k 0",
            "curve --preset custom --hbar-omega nan",
            "curve --preset custom --hbar-omega 1 --a inf",
            "potential --radii nan",
            "potential --radii 10,inf",
            "potential --thetas nan",
            "potential --dim 2 --atom ring --radius nan",
            "potential --dim 1 --atom ring --radii 1",
            "potential --dim 2 --atom ring --radii 1",
            "potential --dim 1 --radii 1e-110 --methods multipole3",
        ],
    )
    def test_single_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            "potential --dim 1 --radii 1e-170 --methods multipole3",
            "potential --dim 2 --radii 1e-320 --methods quadrature",
        ],
    )
    def test_point_next_to_nucleus_diverges(self, capsys, argv):
        # |r|^2 underflows at these radii; |r| itself is nonzero
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "diverges at |r| = 1e-" in err

    @pytest.mark.parametrize(
        "argv", ["curve --rmin nan", "curve --rmax inf", "exact --rmax nan"]
    )
    def test_non_finite_grid_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [l for l in captured.err.splitlines() if "error:" in l] == [
            "vdw: error: need 0 < rmin <= rmax < inf and steps >= 1"
        ]


_ZERO = "0.000000000000e+00"


class TestExtremeSeparations:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_far_rows_are_signed_zeros(self, capsys, fmt):
        # R^p overflows: the float64 zeros, with no warning on stderr
        code, out, err = run_cli(
            capsys, "curve", "--rmin", "1e200", "--rmax", "1e201", "--steps", "3",
            "--format", fmt,
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            rows = json.loads(out)
            assert [r["R_tilde"] for r in rows] == [1e200, 5.5e200, 1e201]
            for r in rows:
                got = [math.copysign(1.0, r[c]) for c in ("r5", "r6", "r7", "total", "exact")]
                assert got == [1.0, -1.0, 1.0, 1.0, -1.0]
                assert r["r5"] == r["r6"] == r["exact"] == 0.0
        else:
            for line in out.splitlines()[1:]:
                cells = line.split(",")[1:6]
                assert cells == [_ZERO, "-" + _ZERO, _ZERO, _ZERO, "-" + _ZERO]

    def test_far_exact_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "exact", "--rmin", "1e200", "--rmax", "1e201", "--steps", "3",
        )
        assert (code, err) == (0, "")
        for line in out.splitlines()[1:]:
            assert line.split(",")[1:4] == ["-" + _ZERO, "-" + _ZERO, _ZERO]

    @pytest.mark.parametrize(
        "argv",
        [
            "curve --rmin 1e-60 --rmax 1e-59 --steps 2",
            "curve --dim 3 --rmin 1e-60 --rmax 1e-59 --steps 2",
            "curve --dim 2 --rmin 1e-60 --rmax 1e-59 --steps 2 --format json",
            "exact --rmin 1e-60 --rmax 1e-59 --steps 2",
        ],
    )
    def test_near_rows_single_error_line(self, capsys, argv):
        # R^6 underflows: inf, -inf and nan rows used to print here
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err == "error: closed-form terms are not finite at R = 1e-60\n"


class TestReducedUnits:
    # a, k and hbar omega enter the closed forms only as hbar omega a / k;
    # a^4 and the absolute R^5-R^7 overflow at a = 1e100 and underflow at
    # a = 1e-100, where every reduced value is finite
    @pytest.mark.parametrize("cmd", ["curve", "exact"])
    @pytest.mark.parametrize("a", ["1e100", "1e-100"])
    def test_length_enters_as_hbar_omega_a_over_k(self, capsys, cmd, a):
        grid = ("--rmin", "3", "--rmax", "12", "--steps", "7")
        code, out, err = run_cli(
            capsys, cmd, "--preset", "custom", "--hbar-omega", "1", "--a", a, *grid
        )
        assert (code, err) == (0, "")
        _, same, _ = run_cli(
            capsys, cmd, "--preset", "custom", "--hbar-omega", a, *grid
        )
        if cmd == "curve":
            assert out == same
            return
        # exact's residual |exact - r6| is a difference of values equal to
        # ~1e-200 relative at a = 1e100: rounding, not a reduced value
        lines, others = out.splitlines(), same.splitlines()
        assert lines[0] == others[0] == "R_tilde,exact,r6,residual,dim,preset"
        for line, other in zip(lines[1:], others[1:], strict=True):
            cells, other_cells = line.split(","), other.split(",")
            residual = cells.pop(3)
            other_cells.pop(3)
            assert cells == other_cells
            if residual:
                assert float(residual) <= 4e-15 * abs(float(cells[2]))

    @pytest.mark.parametrize("a", [1e100, 1e-100])
    def test_terms_in_reduced_units(self, capsys, a):
        code, out, _ = run_cli(
            capsys, "curve", "--preset", "custom", "--hbar-omega", "1",
            "--a", repr(a), "--rmin", "3", "--rmax", "12", "--steps", "4",
            "--format", "json",
        )
        assert code == 0
        for row in json.loads(out):
            rt = row["R_tilde"]
            r5, r6, r7 = 6 / rt**5, -2 / (a * rt**6), 90 / rt**7
            assert row["r5"] == pytest.approx(r5, rel=1e-15, abs=0.0)
            assert row["r6"] == pytest.approx(r6, rel=1e-15, abs=0.0)
            assert row["r7"] == pytest.approx(r7, rel=1e-15, abs=0.0)
            assert row["total"] == pytest.approx(r5 + r6 + r7, rel=1e-15, abs=0.0)
            # the coupling ratio is 2 / (a rt^3): at a = 1e100 exact is its
            # leading term r6, at a = 1e-100 the pair is unstable
            if a > 1:
                assert row["exact"] == pytest.approx(r6, rel=1e-15, abs=0.0)
            else:
                assert row["exact"] is None and row["exact_valid"] is False


_IMPORT_PROBE = """
import contextlib, io, json, sys
import vdwdim
from vdwdim import cli

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

report = {"import vdwdim": scipy_loaded()}
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:  # --version
            code = exc.code
    report[argv] = (code, scipy_loaded())
print(json.dumps(report))
"""


class TestImportPath:
    def test_no_command_loads_scipy(self):
        # only NumericRadialAtom's CubicSpline loads scipy, and no command
        # below builds one (verify --level full does)
        src = os.path.dirname(os.path.dirname(vdwdim.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        free = [
            "--version",
            "expand --dim 3 --order 12",
            "curve --format json",
            "exact",
            "verify --level fast",
            "potential --dim 1 --radii 9,20 --thetas 0,45,90",
            "potential --dim 2 --radii 0.5,9 --thetas 0,30 --methods quadrature",
            "potential --dim 2 --atom ring --radii 0.5,2 --thetas 0,60",
            "potential --dim 3 --methods quadrature",
            "potential --dim 3 --radii 2,5,9 --thetas 0,45,90",
        ]
        inside = "potential --dim 1 --radii 4 --methods quadrature"
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *free, inside],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        report = json.loads(proc.stdout)
        assert report.pop("import vdwdim") is False
        assert report.pop(inside) == [1, False]
        assert report == {argv: [0, False] for argv in free}

    def test_numpy_loaded_only_by_numeric_commands(self, tmp_path):
        # one process: numpy stays loaded once any command loads it
        missing = str(tmp_path / "missing" / "x.txt")
        free = {
            "--version": 0,
            "expand --dim 3 --order 12": 0,
            "expand --dim 2 --order 7 --format json": 0,
            "expand --dim 1 --order 2": 0,
            "curve": 0,
            "curve --dim 2 --format json": 0,
            "curve --dim 3 --preset custom --hbar-omega 0.8 --a 2 --k 3 --si": 0,
            "exact --dim 2 --rmin 1 --rmax 9 --steps 9": 0,
            "curve --rmin 1e200 --rmax 1e201 --steps 3": 0,
            # failures: ValueError, CliError, OSError and usage errors
            "expand --dim 3 --order 13": 1,
            "curve --preset custom": 1,
            "exact --preset custom --hbar-omega -1": 1,
            "curve --rmin 1e-60 --rmax 1e-59 --steps 2": 1,
            f"expand --dim 1 --output {missing}": 1,
            "curve --rmin 0 --rmax 1": 2,
            "expand --dim 4": 2,
            "bogus": 2,
            "potential --dim 1 --methods bogus": 1,
            "potential --dim 3 --radii 2 --methods quadrature,bogus": 1,
        }
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, *free, "moments"],
            env=_probe_env(), capture_output=True, text=True, timeout=120,
            check=True,
        )
        report = json.loads(proc.stdout)
        # every module perfbench's tracer wraps is in sys.modules, unloaded
        modules = sorted(f"vdwdim.{m}" for m in (*_TRACED_MODULES, "cli"))
        assert report.pop("import vdwdim.cli") == {
            "numpy": False, "vdwdim": modules,
        }
        assert report.pop("moments") == [0, True]
        assert report == {argv: [code, False] for argv, code in free.items()}

    def test_bad_radius_rejected_before_numpy(self, capsys):
        # the nucleus is no field point for any method, and a ring needs a
        # finite positive radius; each error line is the one the potential
        # or RingAtom gives for it
        field = "field point must be finite and nonzero"
        radius = "radius must be finite and positive"
        bad = {
            "potential --dim 2 --radii 0": field,
            "potential --dim 1 --radii 5,-0.0 --methods multipole3": field,
            "potential --dim 3 --atom ring --radii 0 --thetas 0,90": field,
            "potential --dim 2 --atom ring --radius -1": radius,
            "potential --dim 3 --atom ring --radius 0 --methods multipole3": radius,
            "potential --dim 1 --atom ring --radius nan --radii 5": radius,
            "potential --dim 2 --atom ring --radius inf": radius,
        }
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, *bad],
            env=_probe_env(), capture_output=True, text=True, timeout=120,
            check=True,
        )
        report = json.loads(proc.stdout)
        report.pop("import vdwdim.cli")
        assert report == {argv: [1, False] for argv in bad}
        for argv, line in bad.items():
            code, out, err = run_cli(capsys, *argv.split())
            assert (code, out) == (1, "")
            assert err == f"error: {line}\n"
        # only a ring reads --radius
        code, out, _ = run_cli(
            capsys, *"potential --dim 3 --radius -1 --methods multipole3".split()
        )
        assert code == 0 and out.startswith("r,theta_deg,value,method\n")


# loads vdwdim.cli as perfbench's tracer does, then reports after each command
# whether numpy is loaded
_NUMPY_PROBE = """
import contextlib, io, json, sys
import vdwdim.cli

loaded = sorted(m for m in sys.modules if m.startswith("vdwdim."))
report = {"import vdwdim.cli": {"numpy": "numpy" in sys.modules, "vdwdim": loaded}}
for argv in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vdwdim.cli.main(argv.split())
        except SystemExit as exc:  # --version and usage errors
            code = exc.code
    report[argv] = [code, "numpy" in sys.modules]
print(json.dumps(report))
"""

_TRACED_MODULES = (
    "atoms", "drude_exact", "kernels", "multipole", "oracle", "perturbation",
    "potential", "verify",
)


def _probe_env():
    src = os.path.dirname(os.path.dirname(vdwdim.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class TestLazyExports:
    def test_every_public_name_resolves_to_its_home(self):
        assert len(vdwdim.__all__) == 28
        for name in vdwdim.__all__:
            obj = getattr(vdwdim, name)
            home = sys.modules[f"vdwdim.{vdwdim._EXPORTS[name]}"]
            assert obj is vars(home)[name]
        assert set(vdwdim.__all__) <= set(dir(vdwdim))
        with pytest.raises(AttributeError):
            vdwdim.no_such_name

    def test_moved_names_resolve_at_their_old_homes(self):
        from vdwdim import drude_exact, kernels, perturbation

        for name in (
            "DrudePreset", "EnergyBreakdown", "dominance_crossover",
            "first_order_closed_form", "second_order_drude_closed_form",
            "total_energy_curve",
        ):
            assert getattr(perturbation, name) is getattr(drude_exact, name)
        for name in (
            "TruncationReport", "exact_interaction", "series_arrays",
            "truncation_residual",
        ):
            assert getattr(multipole, name) is getattr(kernels, name)
        assert callable(drude_exact.series_residual)
        with pytest.raises(AttributeError):
            multipole.no_such_name


_CURVE_GRIDS = next(
    ast.literal_eval(node.value)
    for node in ast.parse(
        (Path(__file__).resolve().parents[1] / "perfbench" / "cli_workload.py")
        .read_text()
    ).body
    if isinstance(node, ast.Assign) and node.targets[0].id == "CURVE_GRIDS"
)


class TestCurveGrid:
    @pytest.mark.parametrize(
        "start, stop, num",
        list(_CURVE_GRIDS)
        + [
            (3.0, 12.0, 1),
            (5.0, 5.0, 6),
            (1e-310, 3e-310, 7),  # subnormal step
            (5e-324, 2e-323, 10),  # step underflows to zero: numpy's branch
            (1.0, 1.0 + 2**-52, 9),
            (0.1, 1e300, 1000),
        ],
    )
    def test_equals_numpy_linspace(self, start, stop, num):
        want = np.linspace(start, stop, num)
        got = cli._linspace(start, stop, num)
        assert len(got) == num and all(type(x) is float for x in got)
        assert all(g == w for g, w in zip(got, want.tolist()))

    def test_equals_numpy_linspace_on_random_grids(self):
        rng = np.random.default_rng(1401)
        for _ in range(500):
            lo, hi = sorted(float(v) for v in 10.0 ** rng.uniform(-5, 5, 2))
            num = int(rng.integers(1, 200))
            want = np.linspace(lo, hi, num).tolist()
            assert cli._linspace(lo, hi, num) == want


_TRACER_TARGETS = [
    tuple(elt.value for elt in target.elts[:2])
    for node in ast.parse(
        (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
        .read_text()
    ).body
    if isinstance(node, ast.Assign)
    and getattr(node.targets[0], "id", None) == "TARGETS"
    for target in node.value.elts
]


class TestTracerTargets:
    def test_every_target_resolves(self):
        # the traced benchmark rounds wrap these by name; a renamed kernel
        # must fail here, not only there
        assert _TRACER_TARGETS
        missing = []
        for module, attr in _TRACER_TARGETS:
            importlib.import_module(f"vdwdim.{module}")
            if not callable(getattr(sys.modules[f"vdwdim.{module}"], attr, None)):
                missing.append(f"{module}.{attr}")
        assert missing == []


class TestQuadratureWarnings:
    def test_converged_run_keeps_stderr_empty(self):
        # in-plane points inside the cloud, where the ring kernel is
        # log-singular; the values sit within 1e-13 of the closed form
        # 1/s - sqrt(pi/2) i0e(s^2/4): 0.8214702620210364,
        # 0.008607007831102439 and -0.08374310078762938
        src = os.path.dirname(os.path.dirname(vdwdim.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "vdwdim.cli", "potential", "--dim", "2",
             "--radii", "0.5,1,2", "--thetas", "0", "--methods", "quadrature"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            "r,theta_deg,value,method",
            "5.000000000000e-01,0.000000000000e+00,8.214702620211e-01,quadrature",
            "1.000000000000e+00,0.000000000000e+00,8.607007831167e-03,quadrature",
            "2.000000000000e+00,0.000000000000e+00,-8.374310078759e-02,quadrature",
        ]


class TestExact:
    def test_row_on_stability_radius_is_blank(self, capsys):
        # R^3 = 2k / (m omega^2) = 64 at R/a = 4: the first row is exactly
        # on the stability radius, so only its exact and residual are blank
        code, out, err = run_cli(
            capsys, "exact", "--preset", "custom", "--hbar-omega", "1",
            "--k", "16", "--rmin", "4", "--rmax", "12", "--steps", "4",
        )
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 4
        assert rows[0][1] == rows[0][3] == ""
        assert all(float(r[1]) < 0 and r[3] != "" for r in rows[1:])

    def test_residual_column_tiny_at_large_r(self, capsys):
        _, out, _ = run_cli(
            capsys, "exact", "--dim", "1", "--rmin", "10", "--rmax", "10",
            "--steps", "1",
        )
        cols = out.splitlines()[1].split(",")
        assert float(cols[1]) == pytest.approx(-4.0e-6, rel=1e-4, abs=0.0)
        assert float(cols[3]) == pytest.approx(80.0 / 10.0**12, rel=1e-3, abs=0.0)


class TestVerify:
    def test_fast_level_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "fast")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) >= 12
        assert all(l.startswith("[PASS]") for l in lines)

    def test_corrupted_coefficient_names_golden_check(self, capsys, monkeypatch):
        real = multipole.expand_interaction

        def corrupted(dim, max_power):
            series = real(dim, max_power)
            if (dim, max_power) != (3, 5):
                return series
            terms = dict(series.terms)
            first = terms[5][0]
            tampered = (
                Monomial(first.coeff + Fraction(1, 7), first.exp_a, first.exp_b),
            ) + terms[5][1:]
            terms[5] = tampered
            return InteractionSeries(series.dim, series.max_power, terms)

        monkeypatch.setattr(multipole, "expand_interaction", corrupted)
        code, out, _ = run_cli(capsys, "verify", "--level", "fast")
        assert code == 1
        assert "[FAIL] golden-expansion-order-5" in out

    def test_convergence_error_single_error_line(self, capsys, monkeypatch):
        def fail(level):
            raise ConvergenceError("basis not converged: drop 7.5e+00 at cutoff 19")

        monkeypatch.setattr(verify, "run", fail)
        code, out, err = run_cli(capsys, "verify", "--level", "full")
        assert code == 1
        assert out == ""
        assert err == "error: basis not converged: drop 7.5e+00 at cutoff 19\n"


class TestOutputFile:
    def test_writes_to_path(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "curve", "--dim", "1", "--rmin", "4", "--rmax", "6",
            "--steps", "3", "--output", str(target),
        )
        assert code == 0 and out == ""
        content = target.read_text().splitlines()
        assert content[0].startswith("R_tilde,")
        assert len(content) == 4

    def test_unwritable_path_single_error_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(
            capsys, "expand", "--dim", "1", "--output", str(target)
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert str(target) in err


# stdout of the curve, exact and potential commands, as recorded for the
# benchmark in perfbench/reference.json
_RECORDED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)["text"]


def _cells_match(got, want):
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=0.0)
    except ValueError:
        return got == want


class TestRecordedTables:
    @pytest.mark.parametrize("argv", sorted(_RECORDED))
    def test_matches_record(self, capsys, argv):
        # cell by cell at the benchmark's 1e-9 relative tolerance
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        got = [line.split(",") for line in out.strip().splitlines()]
        want = [line.split(",") for line in _RECORDED[argv].strip().splitlines()]
        assert got[0] == want[0] and len(got) == len(want)
        for got_row, want_row in zip(got[1:], want[1:]):
            assert len(got_row) == len(want_row)
            assert all(map(_cells_match, got_row, want_row)), (got_row, want_row)
