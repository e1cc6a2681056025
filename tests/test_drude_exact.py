"""Normal-mode solution of the dipole-coupled pair."""

import math

import numpy as np
import pytest

from vdwdim.drude_exact import (
    InstabilityError,
    exact_correction,
    series_residual,
    shifted_frequencies,
)
from vdwdim.perturbation import DrudePreset, second_order_drude_closed_form

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
