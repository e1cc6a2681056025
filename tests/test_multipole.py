"""Exact expansion of the two-atom coupling: golden values and invariants."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from vdwdim import kernels, multipole
from vdwdim.multipole import (
    ExpansionCapError,
    InteractionSeries,
    SingularConfigurationError,
    evaluate_series,
    exact_interaction,
    expand_interaction,
    series_arrays,
    truncation_residual,
)

# Proven remainder bound for an order-N series with cloud radius rho and
# 2 rho / R <= 0.1:  |exact - series| <= 3 (2 rho)^N / R^(N+1) / (1 - 2rho/R).
# Frozen once as C = 4 * 2^N.
def _residual_bound(n, rho, R):
    return 4.0 * 2.0**n * rho**n / R ** (n + 1)


def _sympy_reference_terms():
    """Orders 3-5 for d = 3 expanded by sympy from the structured brackets."""
    xa, ya, za, xb, yb, zb = sympy.symbols("xa ya za xb yb zb")
    dot = xa * xb + ya * yb + za * zb
    ra2 = xa**2 + ya**2 + za**2
    rb2 = xb**2 + yb**2 + zb**2
    n3 = dot - 3 * xa * xb
    n4 = (
        3 * dot * (xa - xb)
        + sympy.Rational(3, 2) * (ra2 * xb - rb2 * xa)
        + sympy.Rational(15, 2) * xa * xb * (xb - xa)
    )
    n5 = (
        sympy.Rational(3, 2) * dot * (dot - ra2 - rb2)
        + sympy.Rational(3, 4) * ra2 * rb2
        + sympy.Rational(15, 4)
        * (
            2 * dot * xa**2
            + 2 * dot * xb**2
            - ra2 * xb**2
            - rb2 * xa**2
            + 2 * ra2 * xa * xb
            + 2 * rb2 * xa * xb
            - 4 * dot * xa * xb
        )
        + sympy.Rational(35, 4)
        * (3 * xa**2 * xb**2 - 2 * xa**3 * xb - 2 * xb**3 * xa)
    )
    out = {}
    for power, expr in ((3, n3), (4, n4), (5, n5)):
        poly = sympy.Poly(sympy.expand(expr), xa, ya, za, xb, yb, zb)
        terms = {}
        for exps, coeff in poly.terms():
            key = (tuple(exps[:3]), tuple(exps[3:]))
            terms[key] = Fraction(int(coeff.p), int(coeff.q))
        out[power] = terms
    return out


def _series_terms(series, power):
    return {(m.exp_a, m.exp_b): m.coeff for m in series.terms.get(power, ())}


class TestGoldenExpansion:
    def test_matches_sympy_reference_exactly(self):
        series = expand_interaction(3, 5)
        ref = _sympy_reference_terms()
        for power in (3, 4, 5):
            assert _series_terms(series, power) == ref[power]

    def test_dipole_coefficients(self):
        series = expand_interaction(3, 3)
        assert series.coefficient(3, (1, 0, 0), (1, 0, 0)) == -2
        assert series.coefficient(3, (0, 1, 0), (0, 1, 0)) == 1
        assert series.coefficient(3, (0, 0, 1), (0, 0, 1)) == 1

    def test_order4_single_source_coefficients(self):
        # x_A y_B^2 appears only through the -3/2 |r_B|^2 x_A piece
        series = expand_interaction(3, 4)
        assert series.coefficient(4, (1, 0, 0), (0, 2, 0)) == Fraction(-3, 2)
        assert series.coefficient(4, (0, 2, 0), (1, 0, 0)) == Fraction(3, 2)

    def test_one_dimensional_reduction(self):
        series = expand_interaction(1, 3)
        assert _series_terms(series, 3) == {((1,), (1,)): Fraction(-2)}

    def test_one_dimensional_closed_form_all_orders(self):
        # In 1D the order-n polynomial is (xA-xB)^(n-1) - xA^(n-1) - (-xB)^(n-1)
        series = expand_interaction(1, 9)
        for n, monos in series.terms.items():
            got = {(m.exp_a, m.exp_b): m.coeff for m in monos}
            deg = n - 1
            want = {
                ((j,), (deg - j,)): Fraction(
                    math.comb(deg, j) * (-1) ** (deg - j)
                )
                for j in range(1, deg)
            }
            assert got == want


class TestSeriesInvariants:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_structure(self, dim):
        top = multipole.MAX_EXPANSION_POWER
        series = expand_interaction(dim, top)
        assert set(series.terms) <= set(range(3, top + 1))
        for power, monos in series.terms.items():
            for m in monos:
                assert sum(m.exp_a) + sum(m.exp_b) == power - 1
                assert sum(m.exp_a) >= 1 and sum(m.exp_b) >= 1
                assert m.coeff != 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_relabel_antisymmetry(self, dim):
        # (rA, rB) -> (-rB, -rA) maps each order-n polynomial to itself
        series = expand_interaction(dim, 9)
        for power, monos in series.terms.items():
            for m in monos:
                mirrored = series.coefficient(power, m.exp_b, m.exp_a)
                assert m.coeff == (-1) ** (power - 1) * mirrored

    def test_numeric_consistency_thousand_configs(self):
        series = expand_interaction(3, 5)
        rng = np.random.default_rng(42)
        R = 10.0
        rho = R / 20.0
        pts_a = rho * rng.uniform(-1, 1, (1000, 3)) / math.sqrt(3)
        pts_b = rho * rng.uniform(-1, 1, (1000, 3)) / math.sqrt(3)
        exact = kernels.four_site_batch(R, pts_a, pts_b)
        approx = kernels.series_batch(*series_arrays(series), R, pts_a, pts_b)
        assert np.max(np.abs(exact - approx)) <= _residual_bound(5, rho, R)


class TestExactInteraction:
    def test_zero_displacements_cancel(self):
        assert exact_interaction(7.3, [0.0], [0.0]) == 0.0
        assert exact_interaction(7.3, [0, 0, 0], [0, 0, 0]) == 0.0

    def test_agrees_with_order9_series(self):
        R = 10.0
        series = expand_interaction(1, 9)
        e = exact_interaction(R, [0.1], [-0.1])
        s = evaluate_series(series, R, [0.1], [-0.1])
        assert abs(e - s) <= _residual_bound(9, 0.1, R)

    def test_relabel_symmetry_numeric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ra = rng.uniform(-0.4, 0.4, 3)
            rb = rng.uniform(-0.4, 0.4, 3)
            v1 = exact_interaction(9.0, ra, rb)
            v2 = exact_interaction(9.0, -rb, -ra)
            assert v1 == pytest.approx(v2, rel=1e-14, abs=0.0)

    def test_singular_configuration_raises(self):
        with pytest.raises(SingularConfigurationError):
            exact_interaction(5.0, [5.0], [0.0])
        with pytest.raises(SingularConfigurationError):
            exact_interaction(5.0, [2.0], [-3.0])


class TestEvaluateSeries:
    def test_empty_series_is_zero(self):
        empty = InteractionSeries(1, 2, {})
        assert evaluate_series(empty, 2.0, [1.0], [1.0]) == 0.0

    def test_dipole_value_by_hand(self):
        series = expand_interaction(1, 3)
        assert evaluate_series(series, 2.0, [1.0], [1.0]) == pytest.approx(
            -0.25, rel=1e-15, abs=0.0
        )

    def test_random_cloud_matches_exact(self):
        series = expand_interaction(3, 3)
        rng = np.random.default_rng(11)
        R = 5.0
        for _ in range(50):
            ra = rng.uniform(-0.1, 0.1, 3)
            rb = rng.uniform(-0.1, 0.1, 3)
            e = exact_interaction(R, ra, rb)
            s = evaluate_series(series, R, ra, rb)
            assert abs(e - s) <= _residual_bound(3, 0.1, R)

    def test_batch_matches_scalar(self):
        series = expand_interaction(2, 6)
        rng = np.random.default_rng(5)
        pts_a = np.zeros((40, 3))
        pts_b = np.zeros((40, 3))
        pts_a[:, :2] = rng.uniform(-0.2, 0.2, (40, 2))
        pts_b[:, :2] = rng.uniform(-0.2, 0.2, (40, 2))
        batch = kernels.series_batch(*series_arrays(series), 6.0, pts_a, pts_b)
        for i in range(40):
            scalar = evaluate_series(series, 6.0, pts_a[i, :2], pts_b[i, :2])
            assert batch[i] == pytest.approx(scalar, rel=1e-13, abs=1e-18)


class TestTruncationResidual:
    @pytest.mark.parametrize("order,min_exponent", [(3, 3.9), (5, 5.9)])
    def test_decay_exponent(self, order, min_exponent):
        series = expand_interaction(2, order)
        report = truncation_residual(
            series, np.geomspace(10, 100, 10), sample_count=200, radius=0.1,
            seed=1,
        )
        assert report.fitted_exponent >= min_exponent

    def test_zero_radius(self):
        series = expand_interaction(1, 4)
        report = truncation_residual(
            series, [10.0, 20.0], sample_count=50, radius=0.0, seed=0
        )
        assert np.all(report.max_residual == 0.0)
        assert np.all(report.rms_residual == 0.0)
        assert math.isnan(report.fitted_exponent)

    @pytest.mark.parametrize("radius", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_radius(self, radius):
        series = expand_interaction(1, 5)
        with pytest.raises(ValueError, match="radius"):
            truncation_residual(series, [5.0, 8.0], 10, radius)

    @pytest.mark.parametrize("count", [10.0, True, -3, "10", None])
    def test_rejects_bad_sample_count(self, count):
        series = expand_interaction(1, 5)
        with pytest.raises(ValueError, match="sample_count") as err:
            truncation_residual(series, [5.0, 8.0], count, 1.0)
        assert err.type is ValueError

    def test_numpy_sample_count_becomes_plain_int(self):
        series = expand_interaction(1, 5)
        got = truncation_residual(series, [5.0, 8.0], np.int64(10), 1.0)
        want = truncation_residual(series, [5.0, 8.0], 10, 1.0)
        assert type(got.sample_count) is int
        assert np.array_equal(got.max_residual, want.max_residual)

    def test_deterministic_for_fixed_seed(self):
        series = expand_interaction(3, 4)
        a = truncation_residual(series, [10.0, 30.0], 100, 0.2, seed=9)
        b = truncation_residual(series, [10.0, 30.0], 100, 0.2, seed=9)
        assert np.array_equal(a.max_residual, b.max_residual)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -2.0])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_bad_separation_before_any_work(
        self, bad, position, monkeypatch
    ):
        def no_work(*args):
            raise AssertionError("samples drawn before r_values were checked")

        monkeypatch.setattr(kernels, "_ball_samples", no_work)
        r_values = [5.0, 8.0, 11.0]
        r_values[position] = bad
        with pytest.raises(ValueError, match="separation"):
            truncation_residual(expand_interaction(2, 5), r_values, 10, 0.5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("order", [3, 5, 9, 12])
    @pytest.mark.parametrize("r_values", [[6.0], [4.0, 7.5, 12.0]])
    def test_bit_identical_to_per_separation_series_batch(
        self, dim, order, r_values
    ):
        # 700 samples span up to three row blocks at order 12
        series = expand_interaction(dim, order)
        report = truncation_residual(series, r_values, 700, 1.0, seed=order)
        max_res, rms_res, exponent = _per_separation_residual(
            series, r_values, 700, 1.0, seed=order
        )
        assert report.max_residual.tobytes() == max_res.tobytes()
        assert report.rms_residual.tobytes() == rms_res.tobytes()
        assert (
            np.float64(report.fitted_exponent).tobytes()
            == np.float64(exponent).tobytes()
        )

    @pytest.mark.parametrize("sample_count", [50, 2000])
    def test_monomial_values_shared_across_separations(
        self, sample_count, monkeypatch
    ):
        calls = []
        original = kernels._monomial_values

        def counted(pts, rows):
            calls.append(pts.shape[0])
            return original(pts, rows)

        monkeypatch.setattr(kernels, "_monomial_values", counted)
        series = expand_interaction(3, 12)
        truncation_residual(series, [9.0], sample_count, 1.0)
        one = list(calls)
        calls.clear()
        truncation_residual(series, [9.0, 12.0, 15.0], sample_count, 1.0)
        assert calls == one
        assert sum(one) == 2 * sample_count  # each atom's samples once


def _per_separation_residual(series, r_values, sample_count, radius, seed):
    """Residuals from one ``series_batch`` call per separation."""
    r_values = np.asarray(r_values, dtype=float)
    rng = np.random.default_rng(seed)
    pts_a = kernels._ball_samples(rng, series.dim, sample_count, radius)
    pts_b = kernels._ball_samples(rng, series.dim, sample_count, radius)
    arrays = series_arrays(series)
    max_res = np.empty_like(r_values)
    rms_res = np.empty_like(r_values)
    for i, R in enumerate(r_values):
        exact = kernels.four_site_batch(R, pts_a, pts_b)
        approx = kernels.series_batch(*arrays, R, pts_a, pts_b)
        diff = np.abs(exact - approx)
        max_res[i] = diff.max()
        rms_res[i] = np.sqrt(np.mean(diff**2))
    exponent = math.nan
    if len(r_values) >= 2 and np.all(max_res > 0):
        exponent = -np.polyfit(np.log(r_values), np.log(max_res), 1)[0]
    return max_res, rms_res, exponent


class TestSerialization:
    def test_roundtrip_through_json(self):
        series = expand_interaction(2, 7)
        blob = json.dumps(series.to_dict())
        back = InteractionSeries.from_dict(json.loads(blob))
        assert back == series

    def test_schema_fields_are_exact_integers(self):
        data = expand_interaction(3, 4).to_dict()
        assert data["dim"] == 3 and data["max_power"] == 4
        for row in data["terms"]:
            assert isinstance(row["coeff_num"], int)
            assert isinstance(row["coeff_den"], int)
            assert len(row["expA"]) == 3 and len(row["expB"]) == 3


# SHA-256 of the sorted-key JSON of each order-12 series, recorded from an
# independent derivation (term-by-term Taylor expansion of (1 + u)^(-1/2)).
ORDER12_DIGESTS = {
    1: "f5addbf8cf2baa1024377b5c373aeec0c19dc41e6aef43e26d32ddc2704d5407",
    2: "85219a827a4cdff1616d8f44b4d819aeed98476f58e4ef906614a67991494f17",
    3: "4764fcb22d8617d4a0a339192657aa60db88820cf05a47e34d19220b5e99da95",
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_order12_digest(dim):
    blob = json.dumps(expand_interaction(dim, 12).to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == ORDER12_DIGESTS[dim]


class TestLimits:
    def test_expansion_cap(self):
        with pytest.raises(ExpansionCapError):
            expand_interaction(1, multipole.MAX_EXPANSION_POWER + 1)

    def test_order_nine_supported(self):
        assert expand_interaction(3, 9).max_power == 9

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            expand_interaction(4, 5)


class TestExpansionArguments:
    @pytest.mark.parametrize(
        "dim, max_power",
        [
            (3.0, 5),
            (3, 5.0),
            (True, 5),
            (3, True),
            (np.True_, 5),
            (np.float64(2.0), 5),
            ("3", 5),
            (None, 5),
            (Fraction(3), 5),
        ],
    )
    def test_rejects_bool_and_non_integral(self, dim, max_power):
        with pytest.raises(ValueError, match="must be an integer"):
            expand_interaction(dim, max_power)

    def test_numpy_integers_become_plain_ints(self):
        series = expand_interaction(np.int64(2), np.int32(7))
        assert type(series.dim) is int and type(series.max_power) is int
        assert series == expand_interaction(2, 7)
        assert series.to_dict() == expand_interaction(2, 7).to_dict()


class TestExpansionCache:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_memoized_equals_uncached_build(self, dim):
        build = multipole._order_terms
        for order in range(3, multipole.MAX_EXPANSION_POWER + 1):
            series = expand_interaction(dim, order)
            assert series.terms == {n + 1: build(dim, n) for n in range(2, order)}
            assert list(series.terms) == list(range(3, order + 1))

    def test_mutating_returned_terms_leaves_next_call_unchanged(self):
        first = expand_interaction(3, 7)
        first.terms[3] = ()
        del first.terms[7]
        first.terms[99] = ("junk",)
        again = expand_interaction(3, 7)
        assert again.terms is not first.terms
        build = multipole._order_terms
        assert again.terms == {n + 1: build(3, n) for n in range(2, 7)}

    def test_expansion_recognised_by_its_kept_tuples(self):
        for dim in (1, 2, 3):
            for order in range(3, multipole.MAX_EXPANSION_POWER + 1):
                series = expand_interaction(dim, order)
                assert multipole._expansion_order(series) == order
                # max_power is not read
                again = InteractionSeries(dim, 99, dict(series.terms))
                assert multipole._expansion_order(again) == order
        kept = list(multipole._ORDERS)
        t = expand_interaction(2, 5).terms
        others = [
            InteractionSeries(2, 2, {}),
            InteractionSeries.from_dict(expand_interaction(2, 5).to_dict()),
            InteractionSeries(2, 5, {n: list(m) for n, m in t.items()}),
            InteractionSeries(2, 5, {3: t[3], 5: t[5]}),
            InteractionSeries(2, 4, {3: t[4], 4: t[3]}),
            InteractionSeries(2, 6, {4: t[3], 5: t[4], 6: t[5]}),
            InteractionSeries(1, 5, dict(t)),
            InteractionSeries(4, 3, {3: t[3]}),
        ]
        for series in others:
            assert multipole._expansion_order(series) is None
        # the memo is only read
        assert list(multipole._ORDERS) == kept
