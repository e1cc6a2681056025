"""Command-line interface: formats, determinism, exit codes, fault reporting."""

import json
import os
import subprocess
import sys
from fractions import Fraction

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
    def test_scipy_loaded_only_by_quadrature(self):
        src = os.path.dirname(os.path.dirname(vdwdim.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        free = [
            "--version",
            "expand --dim 3 --order 12",
            "curve --format json",
            "exact",
            "verify --level fast",
        ]
        quadrature = "potential --methods quadrature"
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *free, quadrature],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        report = json.loads(proc.stdout)
        assert report.pop("import vdwdim") is False
        assert report.pop(quadrature) == [0, True]
        assert report == {argv: [0, False] for argv in free}


class TestQuadratureWarnings:
    def test_converged_run_keeps_stderr_empty(self):
        # quad warns that it missed its own 1e-11 target at these points,
        # though each value passes the 1e-8 error test
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
            "5.000000000000e-01,0.000000000000e+00,8.214702620205e-01,quadrature",
            "1.000000000000e+00,0.000000000000e+00,8.607007831282e-03,quadrature",
            "2.000000000000e+00,0.000000000000e+00,-8.374310078883e-02,quadrature",
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
