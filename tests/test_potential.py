"""Electrostatic potential: quadrature against closed forms, angular structure."""

import math
import re

import numpy as np
import pytest
from scipy.special import dawsn, ellipkm1, erf, i0e, k0e

from vdwdim.atoms import DrudeAtom, Hydrogen1DAtom, NumericRadialAtom, RingAtom
from vdwdim import potential
from vdwdim.potential import (
    DimensionError,
    DivergentPotentialError,
    QuadratureError,
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

    @pytest.mark.parametrize("s", [9.0, 14.0, 22.0, 40.0])
    def test_closed_forms_far_field(self, s):
        # the same three closed forms as above and 1/s - sqrt(pi/2) i0e(s^2/4)
        # in the d=2 plane; V ~ s^-3 is a cancellation of two ~1/s terms, and
        # the cloud beyond the support (1e-14 of it) leaves ~3e-11 at s = 40
        line = DrudeAtom.bohr_matched(1)
        disc = DrudeAtom.bohr_matched(2)
        pairs = [
            (line, [s, 0, 0], math.sqrt(2) * dawsn(s / math.sqrt(2))),
            (line, [0, 0, s], k0e(s**2 / 4) / math.sqrt(2 * math.pi)),
            (disc, [s, 0, 0], math.sqrt(math.pi / 2) * i0e(s**2 / 4)),
        ]
        for atom, point, cloud in pairs:
            sample = v_a_numeric(atom, point)
            closed = 1 / s - cloud
            assert sample.value == pytest.approx(closed, rel=1e-10, abs=0.0)
            # the panel rule aims at 1e-13 of the cloud integral
            assert 0.0 <= sample.error <= 2e-13 * cloud

    def test_next_to_the_cloud(self):
        # d=1: the cloud potential grows like -2 rho(x) ln|r_perp| at the
        # line, so 100 decades closer adds 2 rho(3) ln(1e100) at x = 3
        line = DrudeAtom.bohr_matched(1)
        far = v_a_numeric(line, [3.0, 0, 1e-50]).value
        near = v_a_numeric(line, [3.0, 0, 1e-150]).value
        rho = math.exp(-4.5) / math.sqrt(2 * math.pi)
        step = 2 * rho * math.log(1e100)
        assert far - near == pytest.approx(step, rel=1e-10, abs=0.0)
        # and on below 1.5e-162, where r_perp^2 underflows but r_perp does not
        for z, decades in ((1e-160, 110), (1e-170, 120)):
            deeper = v_a_numeric(line, [3.0, 0, z]).value
            step = 2 * rho * decades * math.log(10)
            assert far - deeper == pytest.approx(step, rel=1e-10, abs=0.0)
        # d=2: the in-plane limit is finite, and reached
        disc = DrudeAtom.bohr_matched(2)
        plane = v_a_numeric(disc, [3.0, 0, 0]).value
        for z in (1e-20, 1e-150):
            above = v_a_numeric(disc, [3.0, 0, z]).value
            assert above == pytest.approx(plane, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "s, printed",
        [(6.0, "3.288637417942e-10"), (9.0, "1.137978600241e-15"),
         (40.0, "2.567390744446e-16")],
    )
    def test_d3_output_pinned(self, s, printed):
        # outside the cloud this is the rounding residue of (1 - 4 pi E) / s;
        # the strings are those of perfbench/reference.json
        sample = v_a_numeric(DrudeAtom.bohr_matched(3), [s, 0, 0])
        assert f"{sample.value:.12e}" == printed
        assert 0.0 < sample.error <= 1e-8

    @pytest.mark.parametrize("dim", [1, 2])
    def test_numeric_radial_atom(self, dim):
        # a spline through Gaussian samples against the Gaussian itself
        r = np.linspace(0.0, 9.0, 1000)
        atom = NumericRadialAtom(
            dim, r, (2 * math.pi) ** (-dim / 2.0) * np.exp(-(r**2) / 2)
        )
        gaussian = DrudeAtom.bohr_matched(dim)
        points = [[12.0, 0, 0], [0, 0, 12.0], [5.0, 0, 3.0]]
        if dim == 2:
            points.append([3.0, 0, 0])  # in the plane, inside the cloud
        for point in points:
            got = v_a_numeric(atom, point)
            want = v_a_numeric(gaussian, point).value
            assert got.value == pytest.approx(want, rel=1e-8, abs=0.0)
            assert got.error <= 1e-12

    def test_ring_next_to_the_ring(self):
        # K from k' itself stays accurate where 1 - m = k'^2 is below the
        # rounding of m; ellipkm1 takes k'^2 directly
        for z in (1e-4, 1e-8, 1e-12):
            got = v_a_numeric(RingAtom(2, radius=1.0), [1.0, 0, z]).value
            far = math.hypot(2.0, z)
            cloud = 4.0 * ellipkm1((z / far) ** 2) / far / (2.0 * math.pi)
            want = 1.0 / math.hypot(1.0, z) - cloud
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        # d=1: the near half charge 1e-170 away, the far one at 2
        got = v_a_numeric(RingAtom(1, radius=1.0), [1.0, 0, 1e-170]).value
        assert got == pytest.approx(1.0 - 0.5e170 - 0.25, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_ring_is_the_narrow_shell_limit(self, dim):
        # a Gaussian shell of width w around the ring's radius differs from
        # the ring by O(w^2): a quarter of the gap at half the width
        ring = RingAtom(dim, radius=1.3)
        points = [[5.0, 0, 1.0], [0.4, 0, 0.3], [2.0, 0, 0], [0, 0, 3.0]]
        gaps = []
        for w in (0.01, 0.005):
            r = np.linspace(1.3 - 12 * w, 1.3 + 12 * w, 2000)
            shell = NumericRadialAtom(dim, r, np.exp(-(((r - 1.3) / w) ** 2) / 2))
            gaps.append(
                np.array([
                    abs(v_a_numeric(shell, p).value - v_a_numeric(ring, p).value)
                    for p in points
                ])
            )
        assert np.all(gaps[0] < 5e-4)
        ratio = gaps[0] / gaps[1]
        assert np.all((3.5 < ratio) & (ratio < 4.5)), ratio

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
        # the truncated density does not vanish at the support's end either
        for x in (5.0, atom.support_radius(), -atom.support_radius()):
            with pytest.raises(DivergentPotentialError, match="diverges"):
                v_a_numeric(atom, [x, 0, 0])

    @pytest.mark.parametrize(
        "atom, point",
        [
            (DrudeAtom.bohr_matched(1), [1e-170, 0, 0]),
            (DrudeAtom.bohr_matched(2), [1e-320, 0, 0]),
            (DrudeAtom.bohr_matched(3), [0, 0, 1e-320]),
            (RingAtom(2, radius=1.0), [0, 1e-320, 0]),
        ],
    )
    def test_next_to_nucleus_is_divergent(self, atom, point):
        # |r| is nonzero here though |r|^2 underflows; 1/|r| overflows at 1e-320
        with pytest.raises(DivergentPotentialError, match="diverges"):
            v_a_numeric(atom, point)

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

    @pytest.mark.parametrize("route", [v_a_numeric, v_a_multipole])
    @pytest.mark.parametrize(
        "point",
        [[10.0], [10.0, 0.0], [10.0, 0, 0, 1.0], [[10.0, 0, 0]], [math.nan, 0.0]],
    )
    def test_rejects_field_point_not_a_3_vector(self, route, point):
        # v_a_multipole once gave 0.0 at [10, 0] and v_a_numeric took 1-, 2-
        # and 4-component points; the shape is checked before finiteness
        want = f"field point must have shape (3,), got {np.shape(point)}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            route(DrudeAtom(3, 0.5), point)

    def test_method_tags(self):
        atom = DrudeAtom.bohr_matched(1)
        assert v_a_numeric(atom, [5, 0, 1]).method == "quadrature"
        assert v_a_multipole(atom, [5, 0, 0], 3).method == "multipole3"
        assert v_a_multipole(atom, [5, 0, 0], 5).method == "multipole5"

    def test_panel_cap(self):
        # 1e5 radians over [0, 1] need far more than 2000 panels of 20 nodes
        value, error = potential._panels(np.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-15, abs=0.0)
        assert error <= 1e-13 * value
        with pytest.raises(QuadratureError, match="too large"):
            potential._panels(lambda x: 1.0 + np.cos(1e5 * x), 0.0, 1.0)

    @pytest.mark.parametrize(
        "val, err",
        [
            (math.inf, math.inf),
            (-math.inf, math.inf),
            (math.inf, 0.0),
            (1.0, math.inf),
            (math.nan, 0.0),
            (1.0, math.nan),
        ],
    )
    def test_accept_rejects_non_finite(self, val, err):
        # err <= max(1e-8 |val|, 1e-11) alone holds for val = err = inf
        with pytest.raises(QuadratureError, match="too large"):
            potential._accept(val, err)

    def test_accept_passes_bounded_error(self):
        assert potential._accept(-2.5, 2e-8) == (-2.5, 2e-8)
        assert potential._accept(0.0, 1e-11) == (0.0, 1e-11)

    def test_error_estimates(self):
        # quadrature samples carry their error estimate, closed forms none
        drude = DrudeAtom.bohr_matched(1)
        assert 0.0 < v_a_numeric(drude, [5, 0, 1]).error <= 1e-8
        assert v_a_multipole(drude, [5, 0, 0], 3).error is None
        assert v_a_multipole(drude, [5, 0, 0], 5).error is None
        assert v_a_numeric(Hydrogen1DAtom(), [5, 0, 0]).error is None
        assert v_a_numeric(RingAtom(3), [0.5, 0, 0]).error is None


def _numpy_field_norm(points):
    """The numpy route to |r|, scaled r and |scaled|^2, one row per point.

    ``np.linalg.norm`` of a 3-vector is sqrt(dot), and the stacked matmul
    runs the same dot on each row; both are checked on every 50th row.
    """
    exps = np.frexp(np.max(np.abs(points), axis=1))[1]
    scaled = np.ldexp(points, -exps[:, None])
    norm2 = (scaled[:, None, :] @ scaled[:, :, None]).ravel()
    norm = np.ldexp(np.sqrt(norm2), exps)
    for i in range(0, len(points), 50):
        row, exp = scaled[i], int(exps[i])
        assert float(row @ row) == norm2[i]
        assert math.ldexp(float(np.linalg.norm(row)), exp) == norm[i]
    return norm, scaled, norm2


def _field_points(n, seed):
    """n seeded 3D points: spread, CLI-shaped, tiny and huge components."""
    rng = np.random.default_rng(seed)
    q = n // 4
    spread = rng.standard_normal((q, 3)) * 10.0 ** rng.uniform(-3, 3, (q, 3))
    s = 10.0 ** rng.uniform(-2, 3, q)
    theta = np.radians(rng.uniform(0.0, 90.0, q))
    cli = np.stack([s * np.cos(theta), np.zeros(q), s * np.sin(theta)], axis=1)
    extreme = rng.choice([-1.0, 1.0], (q, 3)) * 10.0 ** rng.uniform(-320, 307, (q, 3))
    mixed = rng.standard_normal((n - 3 * q, 3))
    mixed[:, 1] = 0.0
    mixed[::3, 2] *= 1e-200
    mixed[1::3, 0] *= 1e250
    return np.concatenate([spread, cli, extreme, mixed])


class TestScalarBits:
    def test_gauss_legendre_tables_are_numpys(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert potential._GL_NODES == tuple(nodes.tolist())
        assert potential._GL_WEIGHTS == tuple(weights.tolist())

    def test_field_norm_keeps_numpy_bits(self):
        points = _field_points(100_000, 36)
        norm, scaled, norm2 = _numpy_field_norm(points)
        # flat float lists: no container outlives its step to wake the GC
        flat, flat_scaled = points.ravel().tolist(), scaled.ravel().tolist()
        bad = []
        for i, (n, n2) in enumerate(zip(norm.tolist(), norm2.tolist())):
            r, row = flat[3 * i : 3 * i + 3], flat_scaled[3 * i : 3 * i + 3]
            if potential._field_norm(r) != (n, tuple(row), n2):
                bad.append(r)
        assert bad == []
        # numpy's 3-vector dot accumulates by fused multiply-adds; a plain
        # sum of squares misses its bits in about one case in ten
        plain = scaled[:, 0] ** 2 + scaled[:, 1] ** 2 + scaled[:, 2] ** 2
        assert np.count_nonzero(plain != norm2) > 5_000

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_quadrupole_keeps_numpy_bits(self, dim):
        # the parent's numpy expression for the order-3 value, point by point
        atom = DrudeAtom.bohr_matched(dim)
        a2 = atom.radial_moment(2) / dim
        points = _field_points(1_000, dim)
        norms = zip(*(a.tolist() for a in _numpy_field_norm(points)))
        for r, (s, row, n2) in zip(points.tolist(), norms):
            cos2 = float(np.sum(np.array(row[:dim]) ** 2)) / n2
            want = potential._over_power((dim - 3.0 * cos2) * a2 / 2.0, s, 3)
            if not math.isfinite(want):
                continue
            sample = v_a_multipole(atom, r, 3)
            assert sample.value == want, r
            assert sample.field_point == tuple(r)
            assert all(type(x) is float for x in sample.field_point)

    @pytest.mark.parametrize(
        "atom, point",
        [
            (RingAtom(1, radius=1.0), [1.0, 0.0, 0.0]),
            (RingAtom(2, radius=1.0), [0.0, -1.0, 0.0]),
            (RingAtom(1, radius=1.0), [1.0, 0.0, 5e-324]),
            (RingAtom(2, radius=1.0), [1.0, 0.0, 5e-324]),
            (DrudeAtom.bohr_matched(1), [3.0, 0.0, 5e-324]),
            (DrudeAtom.bohr_matched(1), [3.0, 0.0, -1e-310]),
            (DrudeAtom.bohr_matched(1), [0.0, 0.0, 0.0 + 5e-324]),
            (DrudeAtom.bohr_matched(1), [-7.0, 0.0, 0.0]),
        ],
    )
    def test_divergences_stay_typed(self, atom, point):
        # a Python float division by zero or power overflow would surface
        # as ZeroDivisionError or OverflowError; numpy gave inf instead
        with pytest.raises(DivergentPotentialError, match="diverges"):
            v_a_numeric(atom, point)

    def test_kernel_on_the_charge_is_inf(self):
        assert potential._shell_kernel(1, 0.0, 1.0, 0.0) == math.inf
        assert potential._shell_kernel(2, 0.0, 1.0, 0.0) == math.inf
        assert potential._elliptic_k(0.0) == math.inf
        # k' = 2.5e-324 rounds to zero; the smallest subnormal does not
        assert potential._elliptic_k(5e-324 / 2.0) == math.inf
        assert 744.0 < potential._elliptic_k(5e-324) < 746.0
        assert potential._elliptic_k(1.0) == math.pi / 2.0

    def test_overflowing_panel_edges_fail_as_quadrature(self):
        # at |r| near the largest float the panel midpoints overflow; the
        # NaN estimate is rejected, with no numpy warning to stderr
        with pytest.raises(QuadratureError, match="too large"):
            v_a_numeric(DrudeAtom.bohr_matched(2), [1.2e308, 0.0, 1.2e308])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_float_density_is_the_array_density(self, dim):
        # the spline keeps its bits at a float; a Drude float goes through
        # math.exp, whose last bit differs from np.exp's now and then
        r = np.linspace(0.0, 9.0, 1000)
        numeric = NumericRadialAtom(
            dim, r, (2 * math.pi) ** (-dim / 2.0) * np.exp(-(r**2) / 2)
        )
        drude = DrudeAtom.bohr_matched(dim)
        u = np.concatenate([np.linspace(-1.0, 10.0, 2001), r[[0, -1]]])
        for atom, rtol in ((numeric, 0.0), (drude, 4.5e-16)):
            want = atom.radial_density(u).tolist()
            got = [atom.radial_density(x) for x in u.tolist()]
            assert all(type(x) is float for x in got)
            assert got == pytest.approx(want, rel=rtol, abs=0.0)


class TestQuadpackPort:
    # the potential --dim 3 radii of the cli benchmark workload
    CLI_RADII = (2.0, 5.0, 9.0, 3.0, 12.0, 6.0, 20.0, 40.0, 2.5, 7.5)

    @staticmethod
    def _integrals(monkeypatch):
        """Every (integrand, lo, hi) that ``v_a_numeric`` hands to ``_quad``."""
        bohr = DrudeAtom.bohr_matched(3)
        cases = [(bohr, s) for s in TestQuadpackPort.CLI_RADII]
        rng = np.random.default_rng(16)
        for omega in (0.5, 1.0, 2.0):
            atom = DrudeAtom(3, omega)
            cases += [(atom, s) for s in 10.0 ** rng.uniform(-3, 3, 60)]
        r = np.linspace(0.0, 1.0, 200)  # verify's shell-theorem-ball
        ball = NumericRadialAtom(3, r + 1e-6, np.ones_like(r))
        cases += [(ball, s) for s in (2.0, 3.0, 5.0, 0.5)]

        calls = []
        quad = potential._quad

        def spy(f, lo, hi):
            calls.append((f, lo, hi))
            return quad(f, lo, hi)

        monkeypatch.setattr(potential, "_quad", spy)
        for atom, s in cases:
            v_a_numeric(atom, [s, 0.0, 0.0])
        monkeypatch.undo()
        return calls

    def test_matches_scipy_quad(self, monkeypatch):
        from scipy.integrate import quad

        lasts = []
        for f, lo, hi in self._integrals(monkeypatch):
            # the same numpy expression, one abscissa at a time: a Python
            # float's u**2 goes through libm's pow, which now and then rounds
            # u^2 differently from numpy's square
            def scalar(u, f=f):
                return float(f(np.array([u]))[0])

            want, want_err, info = quad(
                scalar, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400,
                full_output=1,
            )[:3]
            got, got_err = potential._quad(f, lo, hi)
            assert got == want, (lo, hi)
            assert got_err == pytest.approx(want_err, rel=1e-12, abs=0.0)
            lasts.append(info["last"])
        # both the first-interval exit and the bisection loop are exercised
        assert len(lasts) > 300 and min(lasts) == 1 and max(lasts) >= 3

    def test_unbounded_error_raises(self):
        # 1/u is not integrable at 0: every bisection of [0, h] leaves an
        # error of order one on the leftmost interval, up to the 400 limit
        with pytest.raises(QuadratureError, match="too large"):
            potential._quad(lambda u: 1.0 / u, 0.0, 1.0)


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
        # order 5 holds on the x axis, along which its coefficients are taken
        with pytest.raises(UnsupportedOrderError):
            v_a_multipole(DrudeAtom.bohr_matched(3), [3.0, 0.0, 4.0], 5)

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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_multipole_far_from_the_atom_underflows(self, dim):
        # s^3 overflows a float beyond about 5.6e102 and s^5 beyond 1.9e61;
        # the value underflows instead, to a subnormal (to zero for d=3)
        atom = DrudeAtom.bohr_matched(dim)
        c3, _ = multipole_coefficients(atom)
        for order in (3, 5):
            got = v_a_multipole(atom, [1e103, 0, 0], order).value
            assert got == pytest.approx(c3 * 1e-309, rel=1e-12, abs=0.0)
        assert v_a_multipole(atom, [1e62, 0, 0], 5).value == c3 / 1e62**3

    @pytest.mark.parametrize(
        "point, order",
        [([1e-110, 0, 0], 3), ([1e-105, 0, 0], 3), ([1e-70, 0, 0], 5),
         ([1e-170, 0, 0], 3), ([0, 0, 1e-200], 3)],
    )
    def test_multipole_next_to_nucleus_is_divergent(self, point, order):
        # s^order underflows to zero (1e-110, 1e-70) or the value to -inf;
        # at 1e-170 and below |r|^2 underflows too, but |r| does not
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
