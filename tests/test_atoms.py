"""Atom models: moments, characteristic length, shape coefficient, spectrum."""

import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from vdwdim import atoms
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
    _NotAKnotCubic,
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


def _ground_element(a, e, n):
    """<n|x^e|0> = a^e sqrt(n!) e! / (n! k! 2^k), k = (e - n) / 2, to 40 digits."""
    if e < n or (e - n) % 2:
        return Decimal(0)
    k = (e - n) // 2
    count = math.factorial(e) // (math.factorial(n) * math.factorial(k) * 2**k)
    with localcontext() as ctx:
        ctx.prec = 40
        return Decimal(a) ** e * Decimal(math.factorial(n)).sqrt() * count


def _levels(dim, cutoff):
    atom = DrudeAtom(dim, 0.5)
    return atoms._ProductStates(atom, atom, cutoff).states


# (omega, mass): a = 0.74, 0.90 and 2.5
LADDER_ATOMS = [(0.7, 1.3), (3.1, 0.2), (0.02, 4.0)]


class TestLadderElements:
    @pytest.mark.parametrize("omega, mass", LADDER_ATOMS)
    def test_ground_column_matches_closed_form(self, omega, mass):
        atom = DrudeAtom(1, omega, mass)
        levels = np.arange(21)[:, None]
        f = atom.ladder_elements(np.arange(MOMENT_CAP + 1)[:, None], levels, levels[:1])
        for e in range(MOMENT_CAP + 1):
            for n in range(21):
                want = _ground_element(atom.a, e, n)
                if want == 0:
                    assert f[e, n, 0] == 0.0
                else:
                    assert abs(Decimal(f[e, n, 0]) - want) <= Decimal("1e-15") * want

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("omega, mass", LADDER_ATOMS)
    def test_products_across_axes(self, dim, omega, mass):
        # each factor is the one-axis element checked against the closed form
        atom, axis = DrudeAtom(dim, omega, mass), DrudeAtom(1, omega, mass)
        rows, states = _levels(dim, 10), _levels(dim, 8)
        f = atom.ladder_elements(rows, states, states[:1])[..., 0]
        one = axis.ladder_elements(
            np.arange(11)[:, None], np.arange(9)[:, None], np.zeros((1, 1), int)
        )[..., 0]
        want = np.ones_like(f)
        for c in range(dim):
            want *= one[np.ix_(rows[:, c], states[:, c])]
        np.testing.assert_array_equal(f, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_square_table_is_symmetric(self, dim):
        atom = DrudeAtom(dim, 0.7, 1.3)
        rows, states = _levels(dim, 8), _levels(dim, 12 if dim < 3 else 6)
        f = atom.ladder_elements(rows, states, states)
        flip = f.transpose(0, 2, 1)
        np.testing.assert_array_equal(f == 0, flip == 0)
        nonzero = f != 0
        assert np.all(np.abs(f - flip)[nonzero] <= 1e-15 * np.abs(f[nonzero]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_more_levels_change_no_element(self, dim):
        atom = DrudeAtom(dim, 3.1, 0.2)
        rows = _levels(dim, 8 if dim < 3 else 6)
        small, big = _levels(dim, 5), _levels(dim, 9 if dim < 3 else 7)
        at = [big.tolist().index(s) for s in small.tolist()]
        square = atom.ladder_elements(rows, big, big)[:, at][:, :, at]
        np.testing.assert_array_equal(square, atom.ladder_elements(rows, small, small))
        ground = atom.ladder_elements(rows, big, big[:1])[:, at]
        np.testing.assert_array_equal(
            ground, atom.ladder_elements(rows, small, small[:1])
        )


class TestDrudeInputs:
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["omega", "mass"])
    def test_rejects_non_finite_or_non_positive(self, name, bad):
        kwargs = {"omega": 0.5, "mass": 1.0, name: bad}
        with pytest.raises(ValueError):
            DrudeAtom(2, **kwargs)

    @pytest.mark.parametrize(
        "dim,omega,mass",
        [
            (1, 1e-200, 1e-200),  # 2 m omega underflows: a would be 1/0
            (2, 0.5, 1e308),  # 2 m overflows, so a = 0
            (1, 1e300, 1e300),  # m omega overflows, so a = 0
            (3, 1e300, 1.0),  # (2 pi a^2)^(-3/2) overflows
        ],
    )
    def test_rejects_width_outside_the_floats(self, dim, omega, mass):
        with pytest.raises(ValueError, match=r"omega = .* and mass = "):
            DrudeAtom(dim, omega, mass=mass)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_accepts_extreme_but_representable_widths(self, dim):
        for omega in (1e-100, 1e100):
            atom = DrudeAtom(dim, omega)
            assert 0.0 < atom.a < math.inf
            assert 0.0 < float(atom.radial_density(0.0)) < math.inf

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_density_far_out_is_zero_without_warning(self, dim):
        # r^2 overflows; the exponential, and so the density, is 0.0
        atom = DrudeAtom(dim, 0.5)
        assert atom.radial_density(5e299) == 0.0
        r = np.array([0.0, 6.0, 5e299, math.inf])
        got = atom.radial_density(r)
        assert got[2] == got[3] == 0.0
        assert got[:2].tolist() == [atom.radial_density(x) for x in r[:2]]

    def test_density_bit_identical_to_the_closed_form(self):
        atom = DrudeAtom(2, 0.7, mass=1.3)
        r = np.linspace(0.0, 9.0, 37)
        a2 = atom.a**2
        want = (2.0 * math.pi * a2) ** -1.0 * np.exp(-(r**2) / (2.0 * a2))
        assert (atom.radial_density(r) == want).all()


def _gaussian_grid_atom(dim):
    r = np.linspace(0.0, 8.0, 200)
    return NumericRadialAtom(dim, r, np.exp(-(r**2) / 2.0))


ATOM_KINDS = {
    "drude": lambda dim: DrudeAtom(dim, 0.5),
    "ring": RingAtom,
    "numeric": _gaussian_grid_atom,
}


class TestDimension:
    # DrudeAtom(2.0, 0.5) and RingAtom(2.0) once constructed and failed later
    # with a TypeError from alpha(), a multipole potential or a moment

    @pytest.mark.parametrize("kind", ATOM_KINDS)
    @pytest.mark.parametrize("dim", [2.0, True, "2"])
    def test_rejects_non_integer(self, kind, dim):
        with pytest.raises(ValueError, match="dim must be an integer"):
            ATOM_KINDS[kind](dim)

    @pytest.mark.parametrize("kind", ATOM_KINDS)
    @pytest.mark.parametrize("dim", [0, 4, -1])
    def test_rejects_out_of_range(self, kind, dim):
        with pytest.raises(ValueError, match="dim must be 1, 2, or 3"):
            ATOM_KINDS[kind](dim)

    @pytest.mark.parametrize("kind", ATOM_KINDS)
    def test_numpy_integer_becomes_int(self, kind):
        atom = ATOM_KINDS[kind](np.int64(2))
        assert type(atom.dim) is int and atom.dim == 2
        assert atom.moment((2, 0)) == ATOM_KINDS[kind](2).moment((2, 0))


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_support_is_the_radius(self, dim):
        # all the charge sits at the radius; this once raised
        # NotImplementedError
        assert RingAtom(dim, radius=2.5).support_radius() == 2.5

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

    def test_support_is_the_nucleus(self):
        # the cloud collapses onto the nucleus; this once raised
        # NotImplementedError
        assert Hydrogen1DAtom().support_radius() == 0.0


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

    def test_rejects_negative_radii(self, tmp_path):
        # the radial measure r^(d-1) dr once took r < 0 too: <r^2> read 6.0
        # for the 2D unit Gaussian on [-2, 8], and rho(-1) was nonzero
        r = np.linspace(-2.0, 8.0, 200)
        rho = np.exp(-(r**2) / 2)
        with pytest.raises(ValueError, match=r"start at r >= 0, r\[0\] = -2\.0$"):
            NumericRadialAtom(2, r, rho)
        path = tmp_path / "density.txt"
        np.savetxt(path, np.column_stack([r, rho]))
        with pytest.raises(ValueError, match=r"r\[0\] = -2\.0$"):
            NumericRadialAtom.from_file(path, dim=2)
        r0 = np.linspace(0.0, 8.0, 200)
        atom = NumericRadialAtom(2, r0, np.exp(-(r0**2) / 2))
        assert atom.radial_moment(2) == pytest.approx(2.0, rel=1e-7)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_grid(self, bad):
        # scipy's CubicSpline once rejected r = [0, 1, 2, inf]; without the
        # check the density's mass would come out non-finite
        r = np.array([0.0, 1.0, 2.0, 3.0])
        r[0 if bad < 0 else -1] = bad
        with pytest.raises(ValueError, match="^radial grid must be finite$"):
            NumericRadialAtom(3, r, np.ones(4))


# the grids and densities on which the spline must equal scipy's bit for bit;
# on the clustered grid dgtsv's elimination swaps rows
SPLINE_GRIDS = {
    "uniform-200": np.linspace(0.0, 8.0, 200),
    "uniform-3000": np.linspace(1e-9, 9.0, 3000),
    "uniform-4000": np.linspace(1e-9, 9.0, 4000),
    "log": np.geomspace(1e-6, 12.0, 500),
    "random": np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 300)),
    "four-point": np.array([0.0, 0.3, 1.1, 2.0]),
    "clustered": np.concatenate(
        (np.linspace(0.0, 0.01, 50), np.linspace(0.02, 8.0, 200))
    ),
}
SPLINE_DENSITIES = {
    "gaussian": lambda r: np.exp(-(r**2) / 2),
    "skewed": lambda r: np.exp(-(r**2) / 2) * (1.0 + 0.3 * r),
    "shell": lambda r: np.exp(-(((r - 1.3) / 0.2) ** 2) / 2),
}


def _scipy_and_port(grid, density):
    from scipy.interpolate import CubicSpline

    r = SPLINE_GRIDS[grid]
    rho = SPLINE_DENSITIES[density](r)
    return r, CubicSpline(r, rho), _NotAKnotCubic(r, rho)


def _thomas(lower, diag, upper, rhs):
    """The tridiagonal solve without pivoting, for contrast with dgtsv's."""
    dl, d, du, b = (v.tolist() for v in (lower, diag, upper, rhs))
    for i in range(len(d) - 1):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return b


class TestNotAKnotCubic:
    @pytest.mark.parametrize("density", SPLINE_DENSITIES)
    @pytest.mark.parametrize("grid", SPLINE_GRIDS)
    def test_bit_identical_to_scipy(self, grid, density):
        r, ref, port = _scipy_and_port(grid, density)
        assert port.c.shape == ref.c.shape and (port.c == ref.c).all()
        inside = r[:-1] + np.diff(r) * np.array([[0.1], [0.5], [0.93]])
        for u in (r, inside, np.array([r[0], r[-1]]), np.float64(r[-1])):
            assert (port(u) == ref(u)).all()
            assert port(u).tobytes() == ref(u).tobytes()  # signed zeros too

    @pytest.mark.parametrize("density", SPLINE_DENSITIES)
    def test_clustered_grid_needs_pivoting(self, density, monkeypatch):
        # a sweep without row swaps differs from scipy's in the last bits
        _, ref, _ = _scipy_and_port("clustered", density)
        monkeypatch.setattr(atoms, "_gtsv", _thomas)
        _, _, thomas = _scipy_and_port("clustered", density)
        assert (thomas.c != ref.c).any()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("grid", SPLINE_GRIDS)
    def test_atom_evaluates_scipy_spline(self, grid, dim):
        r, ref, _ = _scipy_and_port(grid, "skewed")
        atom = NumericRadialAtom(dim, r, SPLINE_DENSITIES["skewed"](r))
        assert (atom._rho_u == ref(atom._u)).all()
        u = np.linspace(r[0], r[-1], 97)
        want = atom._norm * np.clip(ref(u), 0.0, None)
        assert (atom.radial_density(u) == want).all()

    def test_singular_system_raises_as_scipy(self):
        from scipy.interpolate import CubicSpline

        # subnormal spacing: dgtsv's last pivot is exactly zero
        r = np.array([2.0e-323, 4.4e-323, 4.9e-323, 5.9e-323])
        with pytest.raises(np.linalg.LinAlgError):
            CubicSpline(r, np.ones(4))
        with pytest.raises(np.linalg.LinAlgError, match="is singular"):
            NumericRadialAtom(3, r, np.ones(4))

    def test_non_finite_slopes_raise_as_scipy(self):
        from scipy.interpolate import CubicSpline

        r = np.linspace(0.0, 1.0, 6)
        rho = np.array([0.0, 1e308, 0.0, 1e308, 0.0, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="must contain only finite"):
                CubicSpline(r, rho)
            with pytest.raises(ValueError, match="slopes .* not finite"):
                NumericRadialAtom(3, r, rho)


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_enumeration_of_states(self, dim):
        # every multi-index of total quanta <= cutoff, lexicographic, so the
        # ground state comes first; the spectrum reads the same states
        for cutoff in range(6):
            want = [
                q for q in itertools.product(range(cutoff + 1), repeat=dim)
                if sum(q) <= cutoff
            ]
            atom = DrudeAtom(dim, 0.7)
            got = atoms._ProductStates(atom, atom, cutoff).states
            assert got.tolist() == [list(q) for q in want]
            levels = drude_spectrum(atom, cutoff)
            assert [lv.quanta for lv in levels] == sorted(
                want, key=lambda q: (0.7 * (sum(q) + dim / 2.0), q)
            )
            assert {type(n) for lv in levels for n in lv.quanta} == {int}

    def test_spectrum_builds_no_pair_levels(self):
        # the spectrum read its states from _ProductStates, whose S x S pair
        # levels peaked at 69 MB here; one atom's states need under 1 MB
        atom = DrudeAtom(3, 1.0)
        drude_spectrum(atom, 1)
        tracemalloc.start()
        try:
            levels = drude_spectrum(atom, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(levels) == 2925
        assert peak < 5e6

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

    @pytest.mark.parametrize(
        "make",
        [lambda: DrudeAtom.bohr_matched(1), lambda: RingAtom(2), Hydrogen1DAtom,
         lambda: _gaussian_radial_atom(3)],
        ids=["drude", "ring", "hydrogen1d", "numeric"],
    )
    def test_radial_moment_cap(self, make):
        # only the numeric atom capped the order, in its own _radial_moment:
        # a Drude atom returned 3.2e23 at order 40
        atom = make()
        assert math.isfinite(atom.radial_moment(MOMENT_CAP))
        with pytest.raises(MomentCapError, match=f" {MOMENT_CAP + 1} exceeds cap"):
            atom.radial_moment(MOMENT_CAP + 1)

    def test_wrong_exponent_length(self):
        with pytest.raises(ValueError):
            DrudeAtom.bohr_matched(2).moment((2,))


def _wide_numeric_atom(dim):
    """A Gaussian cloud of width 1e25 sampled out to 1e26, where u^16 overflows."""
    r = np.linspace(0.0, 1e26, 400)
    return NumericRadialAtom(dim, r, np.exp(-((r / 1e25) ** 2) / 2))


class TestMomentRange:
    # a moment past float64 raised a bare OverflowError (Drude, ring) or
    # returned inf or NaN with a RuntimeWarning (numeric)
    ATOMS = {
        "drude": lambda dim: DrudeAtom(dim, 1e-160),
        "ring": lambda dim: RingAtom(dim, 1e100),
        "numeric": _wide_numeric_atom,
    }

    @pytest.mark.parametrize("kind", ATOMS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overflowing_moment_names_order_and_length(self, dim, kind):
        atom = self.ATOMS[kind](dim)
        match = f"order-16 moment .* support radius {atom.support_radius():.6g} "
        with pytest.raises(ValueError, match=match.replace("+", r"\+")):
            atom.radial_moment(16)
        with pytest.raises(ValueError, match=match.replace("+", r"\+")):
            atom.moment((16,) + (0,) * (dim - 1))
        assert math.isfinite(atom.radial_moment(2))
        assert math.isfinite(atom.moment((2,) + (0,) * (dim - 1)))

    def test_finite_moments_keep_their_bits(self):
        ring = RingAtom(2, 1e100)
        assert ring.radial_moment(3) == 1e100**3
        assert ring.moment((2, 0)) == 0.5 * 1e100**2
        drude = DrudeAtom(1, 1e-160)
        assert drude.moment((2,)) == drude.a**2
        numeric = _wide_numeric_atom(1)
        assert numeric.radial_moment(4) == numeric._radial_moment(4)

    def test_product_that_overflows_after_the_power(self):
        # a = 2^63: a^16 = 2^1008 is finite, a^16 * 15!! is not and was
        # returned as inf; a^14 * 13!! is finite and exact
        atom = DrudeAtom(1, 2.0**-127)
        assert atom.a == 2.0**63
        assert atom.moment((14,)) == 2.0**882 * 135135
        with pytest.raises(ValueError, match="order-16 moment of DrudeAtom"):
            atom.moment((16,))

    def test_library_callers_get_the_value_error(self):
        from vdwdim.perturbation import first_order_via_potential
        from vdwdim.potential import even_moments

        with pytest.raises(ValueError, match="order-4 moment of DrudeAtom"):
            DrudeAtom(1, 1e-200, 1e-2).moment((4,))
        with pytest.raises(ValueError, match="order-4 moment of DrudeAtom"):
            even_moments(DrudeAtom(2, 1e-160))
        with pytest.raises(ValueError, match="order-4 moment of RingAtom"):
            first_order_via_potential(RingAtom(1, 1e100), RingAtom(1, 1.0), 10.0)
