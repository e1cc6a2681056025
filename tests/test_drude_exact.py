"""Normal-mode solution of the dipole-coupled pair."""

import math
import warnings

import numpy as np
import pytest

from vdwdim.drude_exact import (
    DrudePreset,
    InstabilityError,
    SeparationRangeError,
    exact_correction,
    first_order_closed_form,
    second_order_drude_closed_form,
    series_residual,
    shifted_frequencies,
    total_energy_curve,
)

BOHR = dict(omega=0.5, k=1.0, mass=1.0)

_BAD_INPUTS = [
    (name, bad)
    for name in ("omega", "mass", "R")
    for bad in (0.0, -0.5, math.nan, math.inf)
] + [("k", -1.0), ("k", math.nan), ("k", math.inf)]


@pytest.mark.parametrize("fn", [exact_correction, shifted_frequencies])
@pytest.mark.parametrize("name, bad", _BAD_INPUTS)
def test_rejects_bad_input(fn, name, bad):
    # unchecked, k < 0 ends in a math domain error, NaN in a "soft mode"
    # InstabilityError and R = inf in a correction of -0.0
    kwargs = {**BOHR, "R": 3.0, name: bad}
    with pytest.raises(ValueError) as info:
        fn(1, **kwargs)
    assert info.type is ValueError


CLOSED_FORMS = {
    "shifted_frequencies": lambda d: shifted_frequencies(d, **BOHR, R=3.0),
    "exact_correction": lambda d: exact_correction(d, **BOHR, R=3.0),
    "first_order": lambda d: first_order_closed_form(d, 1.0, 3.0, 1.0, 5.0),
    "second_order": lambda d: second_order_drude_closed_form(
        d, 1.0, 1.0, 0.5, 5.0
    ),
    "curve": lambda d: total_energy_curve(d, [5.0]),
    "empty_curve": lambda d: total_energy_curve(d, []),
    "residual": lambda d: series_residual(d, DrudePreset.bohr(), [10.0, 20.0]),
}


@pytest.mark.parametrize("fn", CLOSED_FORMS)
@pytest.mark.parametrize("dim", [0, 4, 7, -1])
def test_closed_forms_reject_dimension(fn, dim):
    # total_energy_curve(4, [5.0]) once gave rows and exact_correction(7, ...)
    # a value
    with pytest.raises(ValueError, match="dim must be 1, 2, or 3"):
        CLOSED_FORMS[fn](dim)


class TestShiftedFrequencies:
    def test_zero_coupling(self):
        modes = shifted_frequencies(2, omega=0.7, k=0.0, mass=1.0, R=5.0)
        assert all(w == 0.7 for w in modes.frequencies.values())
        assert modes.valid

    def test_validity_boundary_exact(self):
        modes = shifted_frequencies(1, BOHR["omega"], 1.0, 1.0, R=2.0)
        assert modes.frequencies[-2] == 0.0
        assert not modes.valid

    def test_shifted_ratios_direct_arithmetic(self):
        R = 10.0
        modes = shifted_frequencies(1, BOHR["omega"], 1.0, 1.0, R)
        x = 1.0 / (BOHR["omega"] ** 2 * R**3)  # k/(m omega^2 R^3) = 0.004
        for n in (-2, -1, 0, 1, 2):
            ratio = modes.frequencies[n] ** 2 / BOHR["omega"] ** 2
            assert ratio == pytest.approx(1.0 + n * x, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_multiplicities(self, dim):
        modes = shifted_frequencies(dim, 0.5, 1.0, 1.0, 8.0)
        assert modes.multiplicities == {
            -2: 1,
            -1: dim - 1,
            0: 2 * dim,
            1: dim - 1,
            2: 1,
        }
        assert sum(modes.multiplicities.values()) == 4 * dim


class TestExactCorrection:
    def test_zero_coupling_is_zero(self):
        assert exact_correction(3, 0.5, 0.0, 1.0, 5.0) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_attractive_for_valid_radii(self, dim):
        for R in (2.2, 3.0, 6.0, 30.0):
            assert exact_correction(dim, **BOHR, R=R) < 0

    def test_instability_raises(self):
        with pytest.raises(InstabilityError):
            exact_correction(1, **BOHR, R=2.0)
        with pytest.raises(InstabilityError):
            exact_correction(1, **BOHR, R=1.5)

    def test_matches_naive_formula_at_moderate_radius(self):
        R = 3.0
        naive = 0.5 * (
            math.sqrt(0.25 + 2 / R**3)
            + math.sqrt(0.25 - 2 / R**3)
            - 2 * 0.5
        )
        assert exact_correction(1, **BOHR, R=R) == pytest.approx(
            naive, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_leading_term_and_r12_residual(self, dim):
        # exact + (3+d) k^2 a^4 / (2 hw R^6) = -5(15+d)/R^12 + O(R^-18)
        R = 20.0
        exact = exact_correction(dim, **BOHR, R=R)
        leading = second_order_drude_closed_form(dim, 1.0, 1.0, 0.5, R)
        residual = exact - leading
        predicted = -5.0 * (15 + dim) / R**12
        assert residual == pytest.approx(predicted, rel=1e-3, abs=0.0)


class TestSeriesResidual:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_slope_is_minus_twelve(self, dim):
        rep = series_residual(dim, DrudePreset.bohr(), np.geomspace(10, 40, 12))
        assert rep.slope <= -11.5
        assert rep.slope == pytest.approx(-12.0, abs=0.1)

    def test_zero_coupling_residual_vanishes(self):
        preset = DrudePreset.custom(hbar_omega=0.5, a=1.0, k=0.0)
        rep = series_residual(1, preset, [10.0, 20.0])
        assert np.all(rep.residual == 0.0)
        assert math.isnan(rep.slope)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("a", [1e100, 1e-100])
    def test_residual_is_in_units_of_k_over_a(self, dim, a):
        # with k = a the preset's own units are Bohr's: hbar omega a / k = 0.5,
        # so the residual in units of k/a, and its slope, are Bohr's, although
        # a^4 and the absolute R^6 leave float range
        grid = np.geomspace(10, 40, 12)
        bohr = series_residual(dim, DrudePreset.bohr(), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = series_residual(dim, DrudePreset.custom(0.5, a=a, k=a), grid)
        assert rep.slope == bohr.slope
        assert np.array_equal(rep.residual, bohr.residual)

    def test_far_unit_length_raises_no_warning(self):
        # a^4 overflows at a = 1e100; in units of k/a, with hbar omega a / k
        # = 1e100, the residual is about 2e-315
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = series_residual(1, DrudePreset.custom(1.0, a=1e100), [20, 40, 80])
        assert np.all((rep.residual >= 0.0) & (rep.residual < 1e-300))


def _bits(x):
    return (x, math.copysign(1.0, x))


class TestExtremeSeparations:
    # Where R^p overflows the terms are the float64 zeros, signs included;
    # where a term is not a finite number a typed ValueError names R.  Plain
    # floats used to raise OverflowError and ZeroDivisionError here.

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_far_terms_are_signed_zeros(self, dim):
        r5, r7 = first_order_closed_form(dim, 1.0, 3.0, 1.0, 1e200)
        assert _bits(r5) == _bits(r7) == (0.0, 1.0)
        r6 = second_order_drude_closed_form(dim, 1.0, 1.0, 0.5, 1e200)
        assert _bits(r6) == (0.0, -1.0)
        assert _bits(exact_correction(dim, 0.5, 1.0, 2.0, 1e200)) == (0.0, -1.0)

    def test_far_curve_row(self):
        (row,) = total_energy_curve(1, [1e200])
        assert _bits(row.first_order_r5) == _bits(row.first_order_r7) == (0.0, 1.0)
        assert _bits(row.second_order_r6) == _bits(row.exact) == (0.0, -1.0)
        assert _bits(row.total_truncated) == (0.0, 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("R", [1e-70, 1e-60])
    def test_near_terms_raise(self, dim, R):
        # R^6 and R^7 underflow at 1e-60 and R^5 at 1e-70; in d = 3 r7 is 0 / 0
        with pytest.raises(SeparationRangeError, match=f"not finite at R = {R:g}"):
            first_order_closed_form(dim, 1.0, 3.0, 1.0, R)
        with pytest.raises(SeparationRangeError, match=f"not finite at R = {R:g}"):
            second_order_drude_closed_form(dim, 1.0, 1.0, 0.5, R)
        with pytest.raises(SeparationRangeError):
            total_energy_curve(dim, [5.0, R])
        assert issubclass(SeparationRangeError, ValueError)

    def test_subnormal_power_overflowing_term_raises(self):
        # R^5 = 1e-310 is subnormal, and 3 / (4 R^5) overflows
        with pytest.raises(SeparationRangeError):
            first_order_closed_form(1, 1.0, 3.0, 1.0, 1e-62)

    def test_underflowing_cube_is_unstable(self):
        with pytest.raises(InstabilityError):
            exact_correction(1, 0.5, 1.0, 2.0, 1e-110)
        assert not shifted_frequencies(1, 0.5, 1.0, 2.0, 1e-110).valid
        assert exact_correction(1, 0.5, 0.0, 2.0, 1e-110) == 0.0
