"""Electrostatic potential: quadrature against closed forms, angular structure."""

import math

import numpy as np
import pytest
from scipy.special import dawsn, erf, k0e

from vdwdim.atoms import DrudeAtom, Hydrogen1DAtom, NumericRadialAtom, RingAtom
from vdwdim.potential import (
    DimensionError,
    DivergentPotentialError,
    UnsupportedOrderError,
    multipole_coefficients,
    shell_theorem_check,
    v_a_multipole,
    v_a_numeric,
)


def _truncated_gaussian_atom(dim, sigma=1.0, cut=6.0, n=3000):
    r = np.linspace(1e-9, cut * sigma, n)
    rho = (2 * math.pi * sigma**2) ** (-dim / 2.0) * np.exp(
        -(r**2) / (2 * sigma**2)
    )
    return NumericRadialAtom(dim, r, rho)


class TestNumericQuadrature:
    def test_gaussian_exterior_closed_form_d3(self):
        # exterior potential of a 3D Gaussian: (1 - erf(s / sqrt(2) sigma)) / s
        sigma = 1.0
        atom = DrudeAtom.bohr_matched(3)
        s = 8.0 * sigma
        got = v_a_numeric(atom, [s, 0, 0]).value
        want = (1.0 - erf(s / (math.sqrt(2) * sigma))) / s
        assert abs(got - want) <= 1e-10

    def test_d1_on_axis_taylor(self):
        # <x^2n> = (2n-1)!! a^2n, so V(s) = -sum_n (2n-1)!! / s^(2n+1); the
        # series is asymptotic with one sign, and at s = 10 it needs six
        # terms (through s^-13, gap 1.5e-7) to reach 1e-6
        atom = DrudeAtom.bohr_matched(1)
        s = 10.0
        got = v_a_numeric(atom, [s, 0, 0]).value
        want = -sum(
            math.prod(range(2 * n - 1, 0, -2)) / s ** (2 * n + 1) for n in range(1, 7)
        )
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)
        assert got == pytest.approx(-1e-3, rel=0.05, abs=0.0)
        # Hilbert transform of the Gaussian line charge: 1/s - sqrt(2) F(s/sqrt(2))
        closed = 1.0 / s - math.sqrt(2.0) * dawsn(s / math.sqrt(2.0))
        assert got == pytest.approx(closed, rel=1e-8, abs=0.0)

    def test_d1_perpendicular_axis(self):
        # 1/sqrt(s^2 + x^2) averaged over the line charge gives
        # V = -sum_n C(-1/2, n) (2n-1)!! / s^(2n+1) = 1/2, -9/8, 75/16, -3675/128
        # (times s^-3, s^-5, ...); alternating, so the error is below the next term
        atom = DrudeAtom.bohr_matched(1)
        s = 10.0
        got = v_a_numeric(atom, [0, 0, s]).value
        assert got > 0
        want = (
            0.5 / s**3 - 9.0 / 8.0 / s**5 + 75.0 / 16.0 / s**7 - 3675.0 / 128.0 / s**9
        )
        assert got == pytest.approx(want, rel=1e-4, abs=0.0)
        # int exp(-x^2/2) / sqrt(2 pi (s^2 + x^2)) dx = e^(s^2/4) K0(s^2/4) / sqrt(2 pi)
        closed = 1.0 / s - k0e(s**2 / 4.0) / math.sqrt(2.0 * math.pi)
        assert got == pytest.approx(closed, rel=1e-8, abs=0.0)

    def test_d2_on_axis_taylor(self):
        # on axis the s^-(2m+1) coefficient is -<r^2m> <P_2m(cos phi)>
        # = -2^m m! (C(2m, m) / 4^m)^2 = -1/2, -9/8, -75/16, -3675/128, ...;
        # at s = 15 the series is needed through s^-11 (gap 8.5e-9)
        atom = DrudeAtom.bohr_matched(2)
        s = 15.0
        got = v_a_numeric(atom, [s, 0, 0]).value
        want = -sum(
            2**m * math.factorial(m) * (math.comb(2 * m, m) / 4**m) ** 2
            / s ** (2 * m + 1)
            for m in range(1, 6)
        )
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)

    def test_parity(self):
        atom = DrudeAtom.bohr_matched(2)
        r = np.array([7.0, 2.0, 3.0])
        assert v_a_numeric(atom, r).value == pytest.approx(
            v_a_numeric(atom, -r).value, rel=1e-12, abs=0.0
        )

    def test_hydrogen1d_vanishes(self):
        assert v_a_numeric(Hydrogen1DAtom(), [5.0, 0, 0]).value == 0.0

    def test_d1_on_axis_inside_cloud_is_divergent(self):
        atom = DrudeAtom.bohr_matched(1)
        with pytest.raises(DivergentPotentialError, match="diverges"):
            v_a_numeric(atom, [5, 0, 0])

    @pytest.mark.parametrize(
        "dim, point", [(1, [1.0, 0, 0]), (1, [-1.0, 0, 0]), (2, [0, 1.0, 0])]
    )
    def test_on_the_shell_charge_is_divergent(self, dim, point):
        with pytest.raises(DivergentPotentialError, match="diverges"):
            v_a_numeric(RingAtom(dim, radius=1.0), point)

    @pytest.mark.parametrize("route", [v_a_numeric, v_a_multipole])
    @pytest.mark.parametrize(
        "point", [[math.nan, 0, 0], [math.inf, 0, 0], [3.0, 0, -math.inf]]
    )
    def test_rejects_non_finite_field_point(self, route, point):
        with pytest.raises(ValueError, match="finite"):
            route(DrudeAtom.bohr_matched(1), point)

    def test_method_tags(self):
        atom = DrudeAtom.bohr_matched(1)
        assert v_a_numeric(atom, [5, 0, 1]).method == "quadrature"
        assert v_a_multipole(atom, [5, 0, 0], 3).method == "multipole3"
        assert v_a_multipole(atom, [5, 0, 0], 5).method == "multipole5"


class TestMultipoleForm:
    def test_d3_vanishes_any_direction_any_order(self):
        atom = DrudeAtom.bohr_matched(3)
        assert v_a_multipole(atom, [6.0, 1.0, 2.0], 3).value == 0.0
        assert v_a_multipole(atom, [6.0, 0.0, 0.0], 5).value == 0.0

    def test_d1_on_axis_leading(self):
        atom = DrudeAtom.bohr_matched(1)
        s = 9.0
        assert v_a_multipole(atom, [s, 0, 0], 3).value == pytest.approx(
            -1.0 / s**3, rel=1e-15, abs=0.0
        )

    def test_d1_on_axis_order5(self):
        # both multipole terms deepen the on-axis well: -a^2/s^3 - 3 a^4/s^5
        atom = DrudeAtom.bohr_matched(1)
        s = 20.0
        got = v_a_multipole(atom, [s, 0, 0], 5).value
        assert got == pytest.approx(-1.0 / s**3 - 3.0 / s**5, rel=1e-15, abs=0.0)
        num = v_a_numeric(atom, [s, 0, 0]).value
        assert abs(got - num) / abs(num) < 1e-3

    def test_order5_coefficients_from_raw_moments(self):
        atom = DrudeAtom.bohr_matched(2)
        c3, c5 = multipole_coefficients(atom)
        assert c3 == pytest.approx(-0.5, rel=1e-15, abs=0.0)
        assert c5 == pytest.approx(-9.0 / 8.0, rel=1e-15, abs=0.0)

    def test_order5_off_axis_rejected(self):
        atom = DrudeAtom.bohr_matched(1)
        with pytest.raises(UnsupportedOrderError):
            v_a_multipole(atom, [3.0, 0.0, 4.0], 5)
        with pytest.raises(UnsupportedOrderError):
            v_a_multipole(atom, [3.0, 0.0, 0.0], 4)

    def test_quadrupole_sign_structure(self):
        s = 11.0
        for dim in (1, 2):
            atom = DrudeAtom.bohr_matched(dim)
            on_axis = v_a_multipole(atom, [s, 0, 0], 3).value
            assert on_axis < 0
        atom1 = DrudeAtom.bohr_matched(1)
        assert v_a_multipole(atom1, [0, 0, s], 3).value > 0
        # node of (3 cos^2 theta - d) at cos^2 theta = d/3
        for dim in (1, 2):
            atom = DrudeAtom.bohr_matched(dim)
            c = math.sqrt(dim / 3.0)
            r = [s * c, 0.0, s * math.sqrt(1 - dim / 3.0)]
            assert abs(v_a_multipole(atom, r, 3).value) < 1e-15

    @pytest.mark.parametrize("dim", [1, 2])
    def test_numeric_agrees_with_order5_on_axis(self, dim):
        atom = DrudeAtom.bohr_matched(dim)
        radii = np.geomspace(10.0, 40.0, 6)
        diffs = []
        for s in radii:
            num = v_a_numeric(atom, [s, 0, 0]).value
            mp = v_a_multipole(atom, [s, 0, 0], 5).value
            diffs.append(abs(num - mp))
        slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
        assert -slope >= 6.9

    @pytest.mark.parametrize(
        "point, order",
        [([1e-110, 0, 0], 3), ([1e-105, 0, 0], 3), ([1e-70, 0, 0], 5)],
    )
    def test_multipole_next_to_nucleus_is_divergent(self, point, order):
        # s^order underflows to zero (1e-110, 1e-70) or the value to -inf
        with pytest.raises(DivergentPotentialError, match="diverges"):
            v_a_multipole(DrudeAtom.bohr_matched(1), point, order)


class TestShellTheorem:
    def test_uniform_ball(self):
        r = np.linspace(1e-6, 1.0, 400)
        ball = NumericRadialAtom(3, r, np.ones_like(r))
        assert shell_theorem_check(ball, [2.0, 3.0, 10.0]) <= 1e-9

    def test_truncated_gaussian(self):
        atom = _truncated_gaussian_atom(3, sigma=1.0, cut=6.0)
        assert shell_theorem_check(atom, [8.0, 10.0, 16.0]) <= 1e-8

    def test_requires_three_dimensions(self):
        with pytest.raises(DimensionError):
            shell_theorem_check(DrudeAtom.bohr_matched(1), [5.0])

    def test_spherical_shell_interior_and_exterior(self):
        shell = RingAtom(3, radius=1.0)
        assert v_a_numeric(shell, [4.0, 0, 0]).value == 0.0
        inside = v_a_numeric(shell, [0.5, 0, 0]).value
        assert inside == pytest.approx(1.0 / 0.5 - 1.0, rel=1e-15, abs=0.0)
