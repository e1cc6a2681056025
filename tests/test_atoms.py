"""Atom models: moments, characteristic length, shape coefficient, spectrum."""

import math

import numpy as np
import pytest

from vdwdim.atoms import (
    MOMENT_CAP,
    AtomKindError,
    DegenerateAtomError,
    DrudeAtom,
    Hydrogen1DAtom,
    MomentCapError,
    NonNormalizableDensityError,
    NumericRadialAtom,
    RingAtom,
    drude_spectrum,
)


def _gaussian_radial_atom(dim, sigma=1.0, rmax=9.0, n=3000):
    r = np.linspace(1e-9, rmax * sigma, n)
    rho = (2 * math.pi * sigma**2) ** (-dim / 2.0) * np.exp(
        -(r**2) / (2 * sigma**2)
    )
    return NumericRadialAtom(dim, r, rho)


def _per_call_radial_moment(dim, r, rho, order):
    """Radial moment with the spline evaluated afresh for every integral."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(r, np.clip(rho, 0.0, None))
    nodes, weights = np.polynomial.legendre.leggauss(NumericRadialAtom._GL_ORDER)
    a, b = r[:-1], r[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    u = mid[:, None] + half[:, None] * nodes[None, :]

    def integrate(weight_fn):
        vals = spline(u) * weight_fn(u)
        return float(np.sum(half[:, None] * weights[None, :] * vals))

    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]
    norm = 1.0 / (integrate(lambda v: v ** (dim - 1)) * area)
    return norm * area * integrate(lambda v: v ** (order + dim - 1))


class TestDrudeMoments:
    def test_odd_moments_vanish(self):
        atom = DrudeAtom.bohr_matched(3)
        assert atom.moment((1, 0, 0)) == 0.0
        assert atom.moment((2, 1, 0)) == 0.0
        assert atom.moment((3, 2, 0)) == 0.0

    def test_second_moment_is_a_squared(self):
        atom = DrudeAtom(1, omega=0.7, mass=1.3)
        assert atom.moment((2,)) == pytest.approx(
            1.0 / (2 * 1.3 * 0.7), rel=1e-15, abs=0.0
        )

    def test_fourth_moment_gives_alpha_three(self):
        atom = DrudeAtom.bohr_matched(1)
        assert atom.moment((4,)) == 3.0 * atom.a**4
        assert atom.alpha() == 3.0

    def test_cross_moment_d2(self):
        atom = DrudeAtom.bohr_matched(2)
        assert atom.moment((2, 2)) == atom.a**4

    def test_characteristic_length(self):
        atom = DrudeAtom(2, omega=0.25, mass=2.0)
        want = math.sqrt(1.0 / (2 * 2.0 * 0.25))
        assert atom.characteristic_length() == pytest.approx(want, rel=1e-15, abs=0.0)
        assert atom.radial_moment(2) == pytest.approx(
            2 * want**2, rel=1e-15, abs=0.0
        )


class TestDrudeSupport:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_survival_at_support_is_1e_14(self, dim):
        from scipy.optimize import brentq
        from scipy.special import gammaincc

        # Q(d/2, c^2 / 2) is the mass of the unit Gaussian beyond |r| = c
        c = DrudeAtom.bohr_matched(dim).support_radius()
        assert gammaincc(dim / 2.0, c**2 / 2.0) == pytest.approx(
            1e-14, rel=1e-12, abs=0.0
        )
        root = brentq(
            lambda r: gammaincc(dim / 2.0, r**2 / 2.0) - 1e-14, 1e-9, 40.0
        )
        assert c == root

    @pytest.mark.parametrize("omega", [0.5, 0.02, 3.0])
    def test_support_scales_with_a(self, omega):
        for dim in (1, 2, 3):
            atom = DrudeAtom(dim, omega=omega, mass=1.7)
            unit = DrudeAtom.bohr_matched(dim).support_radius()
            assert atom.support_radius() == atom.a * unit


class TestDrudeInputs:
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["omega", "mass"])
    def test_rejects_non_finite_or_non_positive(self, name, bad):
        kwargs = {"omega": 0.5, "mass": 1.0, name: bad}
        with pytest.raises(ValueError):
            DrudeAtom(2, **kwargs)


class TestRing:
    def test_alpha_d2_is_three_halves(self):
        ring = RingAtom(2, radius=2.0)
        assert ring.moment((4, 0)) == pytest.approx(
            (3.0 / 8.0) * 2.0**4, rel=1e-15, abs=0.0
        )
        assert ring.characteristic_length() == pytest.approx(
            2.0 / math.sqrt(2), rel=1e-15, abs=0.0
        )
        assert ring.alpha() == pytest.approx(1.5, rel=1e-14, abs=0.0)

    def test_narrow_numeric_shell_approaches_ring(self):
        r0, width = 1.0, 0.004
        r = np.linspace(r0 - 8 * width, r0 + 8 * width, 2000)
        rho = np.exp(-((r - r0) ** 2) / (2 * width**2))
        shell = NumericRadialAtom(2, r, rho)
        assert shell.alpha() == pytest.approx(1.5, rel=1e-4, abs=0.0)

    def test_d3_shell_alpha(self):
        shell = RingAtom(3, radius=1.0)
        assert shell.alpha() == pytest.approx(9.0 / 5.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_radius(self, radius):
        with pytest.raises(ValueError):
            RingAtom(2, radius=radius)


class TestHydrogen1D:
    def test_collapsed_ground_state(self):
        atom = Hydrogen1DAtom()
        assert atom.characteristic_length() == 0.0
        for degree in range(MOMENT_CAP + 1):
            assert atom.moment((degree,)) == (1.0 if degree == 0 else 0.0)
        with pytest.raises(MomentCapError):
            atom.moment((MOMENT_CAP + 1,))

    def test_alpha_raises(self):
        with pytest.raises(DegenerateAtomError):
            Hydrogen1DAtom().alpha()


class TestNumericRadial:
    def test_gaussian_d3_recovers_sigma(self):
        sigma = 0.8
        atom = _gaussian_radial_atom(3, sigma=sigma)
        assert atom.characteristic_length() == pytest.approx(sigma, abs=1e-6)

    def test_gaussian_alpha_by_quadrature(self):
        atom = _gaussian_radial_atom(1)
        assert atom.alpha() == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fourth_moment_identity(self, dim):
        # <x^4> = 3 <x^2 y^2> for any isotropic model with d >= 2
        atom = _gaussian_radial_atom(dim, sigma=1.1)
        x4 = atom.moment((4,) + (0,) * (dim - 1))
        x2y2 = atom.moment((2, 2) + (0,) * (dim - 2))
        assert x4 == pytest.approx(3.0 * x2y2, rel=1e-10, abs=0.0)

    def test_isotropy(self):
        atom = _gaussian_radial_atom(3)
        assert atom.moment((2, 0, 0)) == atom.moment((0, 2, 0))
        assert atom.moment((0, 0, 2)) == atom.moment((2, 0, 0))
        assert atom.moment((1, 1, 0)) == 0.0

    def test_renormalizes_input_density(self):
        r = np.linspace(1e-9, 6.0, 1500)
        rho = 7.3 * np.exp(-(r**2) / 2)  # deliberately unnormalized
        atom = NumericRadialAtom(3, r, rho)
        assert atom.radial_moment(0) == pytest.approx(1.0, rel=1e-10, abs=0.0)

    def test_rejects_garbage_density(self):
        r = np.linspace(0.1, 1.0, 10)
        with pytest.raises(NonNormalizableDensityError):
            NumericRadialAtom(2, r, np.full_like(r, np.nan))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_moments_bit_identical_to_per_call_quadrature(self, dim):
        r = np.linspace(1e-9, 9.0, 4000)
        rho = np.exp(-(r**2) / 2) * (1.0 + 0.3 * r)
        atom = NumericRadialAtom(dim, r, rho)
        for order in list(range(MOMENT_CAP + 1)) + [4, 2, 16]:
            assert atom.radial_moment(order) == _per_call_radial_moment(
                dim, r, rho, order
            )

    def test_each_order_integrated_once(self):
        atom = _gaussian_radial_atom(3)
        fresh = _gaussian_radial_atom(3)
        powers = []
        integrate = atom._integrate
        atom._integrate = lambda power: powers.append(power) or integrate(power)
        atom._spline = None  # the quadrature nodes were evaluated on construction
        for _ in range(3):
            for e in [(2, 0, 0), (4, 0, 0), (2, 2, 0), (6, 2, 2), (0, 0, 2)]:
                assert atom.moment(e) == fresh.moment(e)
        assert atom.alpha() == fresh.alpha()
        assert sorted(powers) == [4, 6, 12]  # orders 2, 4 and 10 at d = 3

    def test_from_file(self, tmp_path):
        sigma = 1.0
        r = np.linspace(1e-9, 8.0, 2000)
        rho = (2 * math.pi) ** -1.5 * np.exp(-(r**2) / 2)
        path = tmp_path / "density.txt"
        np.savetxt(path, np.column_stack([r, rho]))
        atom = NumericRadialAtom.from_file(path, dim=3)
        assert atom.characteristic_length() == pytest.approx(sigma, abs=1e-6)


class TestContractionIdentities:
    """Product-state contractions used by the first-order expectation."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DrudeAtom.bohr_matched(2),
            lambda: DrudeAtom.bohr_matched(3),
            lambda: RingAtom(3, radius=1.3),
            lambda: _gaussian_radial_atom(2),
        ],
    )
    def test_identities(self, make):
        atom = make()
        d = atom.dim
        a4 = (atom.radial_moment(2) / d) ** 2

        def unit(i):
            e = [0] * d
            e[i] = 1
            return e

        # <(rA.rB)^2> = sum_ij <x_i x_j>_A <x_i x_j>_B = d a^4
        dot_sq = sum(
            atom.moment([e1 + e2 for e1, e2 in zip(unit(i), unit(j))]) ** 2
            for i in range(d)
            for j in range(d)
        )
        assert dot_sq == pytest.approx(d * a4, rel=1e-10, abs=0.0)
        # <(rA.rB) xA xB> = sum_i <x_i x>_A <x_i x>_B = a^4
        dot_xx = sum(
            atom.moment([e1 + e2 for e1, e2 in zip(unit(i), unit(0))]) ** 2
            for i in range(d)
        )
        assert dot_xx == pytest.approx(a4, rel=1e-10, abs=0.0)
        # <|rA|^2 |rB|^2> = d^2 a^4,  <xA^2 xB^2> = a^4,  <|rA|^2 xB^2> = d a^4
        r2 = atom.radial_moment(2)
        x2 = atom.moment([2] + [0] * (d - 1))
        assert r2 * r2 == pytest.approx(d * d * a4, rel=1e-10, abs=0.0)
        assert x2 * x2 == pytest.approx(a4, rel=1e-10, abs=0.0)
        assert r2 * x2 == pytest.approx(d * a4, rel=1e-10, abs=0.0)


class TestSpectrum:
    def test_ladder_1d(self):
        atom = DrudeAtom.bohr_matched(1)
        levels = drude_spectrum(atom, 2)
        energies = [lv.energy for lv in levels]
        hw = atom.hbar_omega
        assert energies == pytest.approx([0.5 * hw, 1.5 * hw, 2.5 * hw])

    def test_degeneracies(self):
        assert len(drude_spectrum(DrudeAtom.bohr_matched(2), 1)) == 3
        assert len(drude_spectrum(DrudeAtom.bohr_matched(3), 1)) == 4

    def test_kind_mismatch(self):
        with pytest.raises(AtomKindError):
            drude_spectrum(RingAtom(2), 1)

    @pytest.mark.parametrize("cutoff", [2.0, 1.5, math.nan, True])
    def test_rejects_non_integer_cutoff(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            drude_spectrum(DrudeAtom.bohr_matched(2), cutoff)


class TestCaps:
    @pytest.mark.parametrize(
        "atom, exponents",
        [(DrudeAtom.bohr_matched(1), (2.5,)), (RingAtom(2), (2, 1.5)),
         (DrudeAtom.bohr_matched(2), (2.0, 0)), (RingAtom(2), (True, 1))],
    )
    def test_rejects_non_integer_exponents(self, atom, exponents):
        # int() once read (2.5,) as (2,) and (2, 1.5) as (2, 1)
        with pytest.raises(ValueError, match="exponent must be an integer"):
            atom.moment(exponents)

    def test_moment_cap(self):
        atom = DrudeAtom.bohr_matched(1)
        assert atom.moment((MOMENT_CAP,)) > 0
        with pytest.raises(MomentCapError):
            atom.moment((MOMENT_CAP + 2,))

    def test_wrong_exponent_length(self):
        with pytest.raises(ValueError):
            DrudeAtom.bohr_matched(2).moment((2,))
