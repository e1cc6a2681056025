"""Rotationally symmetric atom ground states, exposed through their moments.

Every model lives in ``dim`` in {1, 2, 3} and is inversion symmetric, so the
coordinate moments factor into a radial moment <r^E> times a closed-form
angular average over the (d-1)-sphere.  The characteristic length is
a^2 = <|r|^2> / d and the shape coefficient alpha = <x^4> / a^4 controls the
subleading multipole of the charge cloud.

Moments are the only interface first order needs.  Second order and the
oracle take their product states, levels, coupling and (the oracle) symmetry
classes from ``_ProductStates``, which reads the oscillator elements
<s|x^e|s'> from ``DrudeAtom.ladder_elements``, their one home.  Densities
are exposed separately for the quadrature oracles and the potential module.
``moment`` checks its exponents and calls ``_moment``, which a caller holding
checked rows (a series form's) calls directly; other checks are drude_exact's.
Every moment passes one check, ``AtomModel._finite``: past float64, ValueError.

This module loads when a command first asks for an atom: ``moments``,
``potential`` and ``verify`` do, while ``expand``, ``curve`` and ``exact``
never touch it (see the package docstring).  It imports numpy only inside
the functions that build arrays (``ladder_elements``, ``_ProductStates``,
``NumericRadialAtom``, its spline and the array case of
``DrudeAtom.radial_density``), so the moments of the closed-form atoms and
a Drude density at a float load none.  ``NumericRadialAtom``'s density
spline is ``_NotAKnotCubic``, a numpy port of the one scipy ``CubicSpline``
configuration it needs, bit for bit.  ``DrudeAtom.support_radius`` reads
its radius from a table of Gaussian survival roots.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from .drude_exact import _check_terms, _dimension, _integer

MOMENT_CAP = 16

# c_d with Q(d/2, c_d^2 / 2) = 1e-14, Q the regularized upper incomplete
# gamma function: the isotropic Gaussian of per-axis variance a^2 keeps all
# but 1e-14 of its mass within a c_d.  Correctly rounded (40-digit check).
_GAUSS_SUPPORT = {1: 7.739256319504373, 2: 8.029469634031459, 3: 8.262747136972074}


class MomentCapError(ValueError):
    """Requested moment order exceeds MOMENT_CAP."""


class DegenerateAtomError(ValueError):
    """Operation undefined for a fully localized (a = 0) atom."""


class NonNormalizableDensityError(ValueError):
    """Provided density samples do not integrate to a positive mass."""


class AtomKindError(TypeError):
    """Operation restricted to a different atom kind."""


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _angular_average(dim, exponents) -> Fraction:
    """Average of prod_i u_i^e_i over the unit (d-1)-sphere, exact."""
    if any(e % 2 for e in exponents):
        return Fraction(0)
    ms = [e // 2 for e in exponents]
    total = sum(ms)
    num = 1
    for m in ms:
        num *= _double_factorial(2 * m - 1)
    den = 1
    for j in range(1, total + 1):
        den *= dim + 2 * j - 2
    return Fraction(num, den)


def _check_exponents(dim, exponents):
    exponents = tuple(_integer("exponent", e, 0) for e in exponents)
    if len(exponents) != dim:
        raise ValueError(f"expected {dim} exponents, got {len(exponents)}")
    if sum(exponents) > MOMENT_CAP:
        raise MomentCapError(
            f"total degree {sum(exponents)} exceeds cap {MOMENT_CAP}"
        )
    return exponents


class AtomModel:
    """Base class: isotropic ground state with factorized moments."""

    dim: int

    def radial_moment(self, order: int) -> float:
        """<|r|^order>, a finite float (``_finite``)."""
        return self._finite(order, self._radial_moment, order)

    def _radial_moment(self, order):
        raise NotImplementedError

    def moment(self, exponents) -> float:
        """Ground-state expectation of prod_i x_i^e_i (zero for odd degrees)."""
        return self._moment(_check_exponents(self.dim, exponents))

    def _moment(self, exponents):
        """``moment`` of ``dim`` plain non-negative ints, taken as checked."""
        return self._finite(sum(exponents), self._coordinate_moment, exponents)

    def _coordinate_moment(self, exponents):
        ang = _angular_average(self.dim, exponents)
        if ang == 0:
            return 0.0
        return float(ang) * self._radial_moment(sum(exponents))

    def _finite(self, order, moment, arg):
        """``moment(arg)`` of total degree ``order``; ValueError past float64."""
        try:
            value = moment(arg)
        except OverflowError:  # a Python float power; numpy gives inf or NaN
            value = math.inf
        if math.isfinite(value):
            return value
        raise ValueError(
            f"the order-{order} moment of {type(self).__name__} with "
            f"support radius {self.support_radius():.6g} is outside float64"
        )

    def characteristic_length(self) -> float:
        """a with a^2 = <|r|^2> / d."""
        return math.sqrt(self.radial_moment(2) / self.dim)

    def alpha(self) -> float:
        """Shape coefficient <x^4> / a^4 (requires a > 0)."""
        a2 = self.radial_moment(2) / self.dim
        if a2 == 0:
            raise DegenerateAtomError("alpha undefined for a = 0")
        e4 = (4,) + (0,) * (self.dim - 1)
        return self.moment(e4) / a2**2

    def support_radius(self) -> float:
        """Radius enclosing all but 1e-14 of the electron cloud."""
        raise NotImplementedError


class DrudeAtom(AtomModel):
    """Electron bound by an isotropic harmonic potential; Gaussian ground state.

    In units with hbar = 1: a^2 = 1 / (2 m omega), every Gaussian moment is
    a double factorial, and alpha = 3.  ``ladder_elements`` gives the matrix
    elements of the coordinates' powers between oscillator states.  omega
    and mass must be finite and positive, and so must a, a^2 and the peak
    density (2 pi a^2)^(-d/2) as floats; otherwise the constructor raises
    ValueError.
    """

    def __init__(self, dim, omega, mass=1.0):
        self.dim = _dimension(dim)
        _check_terms({"omega": omega, "mass": mass})
        self.omega = omega
        self.mass = mass
        try:
            self.a = math.sqrt(1.0 / (2.0 * mass * omega))
            sizes = (self.a, self.a**2, self._peak())
        except (ZeroDivisionError, OverflowError):
            sizes = (0.0,)
        if not all(0.0 < x < math.inf for x in sizes):
            raise ValueError(
                f"omega = {omega!r} and mass = {mass!r} put the width a, a^2 "
                "or the peak density (2 pi a^2)^(-d/2) outside the "
                "finite positive floats"
            )

    @classmethod
    def bohr_matched(cls, dim):
        """Reduced units with a = 1 and hbar * omega = k / (2 a) for k = 1."""
        return cls(dim, omega=0.5, mass=1.0)

    @property
    def hbar_omega(self):
        """Level spacing hbar omega, equal to omega since hbar = 1."""
        return self.omega

    def ladder_elements(self, rows, bras, kets):
        """F[r, b, k] = prod_c <bras[b, c]| x_c^rows[r, c] |kets[k, c]>.

        Integer arrays with one column per axis: exponent rows, and the
        oscillator levels of bras and kets.  x = a (b + b^dagger) is
        tridiagonal, <n+1|x|n> = <n|x|n+1> = a sqrt(n + 1), and its powers
        x^e |k> up to the highest exponent, top, are built on the levels
        0..max(bras, kets + top), so no path of at most top steps from a ket
        leaves them and no element is cut off.  These are the package's only
        ladder elements.
        """
        import numpy as np

        top = int(rows.max(initial=0))
        n = int(kets.max()) + 1
        levels = max(n + top, int(bras.max()) + 1)
        x = np.zeros((levels, levels))
        up = np.arange(1, levels)
        x[up - 1, up] = x[up, up - 1] = self.a * np.sqrt(up)
        powers = [np.eye(levels, n)]
        for _ in range(top):
            powers.append(x @ powers[-1])
        table = np.array(powers)
        out = np.ones((rows.shape[0], bras.shape[0], kets.shape[0]))
        for c in range(self.dim):
            out *= table[rows[:, c, None, None], bras[:, c, None], kets[:, c]]
        return out

    def _coordinate_moment(self, exponents):
        if any(e % 2 for e in exponents):
            return 0.0
        out = self.a ** sum(exponents)
        for e in exponents:
            out *= _double_factorial(e - 1)
        return out

    def _radial_moment(self, order):
        if order % 2 == 0:
            out = self.a**order
            for j in range(1, order // 2 + 1):
                out *= self.dim + 2 * j - 2
            return out
        return (
            self.a**order
            * 2 ** (order / 2)
            * math.gamma((order + self.dim) / 2.0)
            / math.gamma(self.dim / 2.0)
        )

    def _peak(self):
        """(2 pi a^2)^(-d/2), the density at the nucleus."""
        return (2.0 * math.pi * self.a**2) ** (-self.dim / 2.0)

    def radial_density(self, r):
        """Ground-state density value at radius r (full d-dim density).

        A float r gives a float through ``math.exp``; anything else is taken
        as an array and keeps ``np.exp``, whose last bits differ from
        ``math.exp``'s for a few percent of arguments.  Far out, where
        r^2 / (2 a^2) overflows, the exponential is 0.0 and so is the
        density, without a warning.
        """
        if isinstance(r, float):
            return self._peak() * math.exp(-(r * r) / (2.0 * self.a**2))
        import numpy as np

        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            return self._peak() * np.exp(-(r**2) / (2.0 * self.a**2))

    def support_radius(self):
        return self.a * _GAUSS_SUPPORT[self.dim]


class _ProductStates:
    """States |s_a s_b> of two Drude atoms, each of total quanta <= cutoff.

    The one home of the product states: each atom's S ``states``, the
    multi-indices in lexicographic order (ground state first), the
    ``levels`` hbar omega_A |s_a| + hbar omega_B |s_b| in pair order
    (|s_a s_b> at s_a S + s_b), ``coupling``, and the symmetry ``classes``
    of the pairs of equal atoms.
    """

    def __init__(self, atom_a, atom_b, cutoff):
        import numpy as np

        self.atoms, dim = (atom_a, atom_b), atom_a.dim
        grid = np.indices((cutoff + 1,) * dim).reshape(dim, -1).T
        self.states = grid[grid.sum(axis=1) <= cutoff]
        quanta = self.states.sum(axis=1)
        self.levels = np.add.outer(*(a.hbar_omega * quanta for a in self.atoms)).ravel()

    def coupling(self, form, weightings, kets):
        """<s_a s_b| sum_p w_p T_p |k_a k_b> per weighting, (S K, S K) each.

        ``kets`` are K states of one atom.  F[row, (s, k)] = <s|x^row|k>
        (atom B reuses atom A's when they are one object with the same rows)
        is contracted as F_A^T C F_B (``SeriesForm.contract``), so the
        element sits at [(s_a, k_a), (s_b, k_b)], (s_a K + k_a, s_b K + k_b).
        With the ground state as the only ket that is the S x S table of
        <s_a s_b|T|00>, whose ravel is in pair order.
        """
        import numpy as np

        (atom_a, atom_b), dim = self.atoms, self.states.shape[1]
        rows_a, rows_b = form.rows_a[:, :dim], form.rows_b[:, :dim]
        shape = (-1, len(self.states) * len(kets))
        f_a = atom_a.ladder_elements(rows_a, self.states, kets).reshape(shape)
        if atom_b is atom_a and np.array_equal(rows_b, rows_a):
            f_b = f_a
        else:
            f_b = atom_b.ladder_elements(rows_b, self.states, kets).reshape(shape)
        return [form.contract(f_a, form.block_matrices(w), f_b) for w in weightings]

    def classes(self, even):
        """The pairs (a, b), a <= b, of equal atoms grouped by their characters.

        Two equal atoms on the x axis commute with the exchange P, which
        swaps the electrons and reflects x, (x_A, x_B) -> (-x_B, -x_A):
        P|s_a s_b> = (-1)^(n_x(a) + n_x(b)) |s_b s_a>.  The transverse
        reflections Y and Z multiply |s_a s_b> by (-1)^(n_y(a) + n_y(b)) and
        (-1)^(n_z(a) + n_z(b)), and, when ``even`` (every monomial of the
        coupling has even degree e_A + e_B), so does the total parity T by
        (-1)^(|s_a| + |s_b|).  Returns (key, a, b, sign, reach) per class,
        the class of |00> first: its characters (Y, Z as far as the axes go,
        then T when ``even``), its pairs as indices into ``states``, each
        pair's exchange sign and its larger total quanta.  The pairs run by
        reach, so those of a smaller cutoff lead each class in its order.
        """
        import numpy as np

        quanta = self.states.sum(axis=1)
        b, a = np.tril_indices(len(self.states))
        order = np.argsort(np.maximum(quanta[a], quanta[b]), kind="stable")
        a, b = a[order], b[order]
        odd = (self.states[a] + self.states[b]) % 2
        if even:
            odd = np.column_stack((odd, (quanta[a] + quanta[b]) % 2))
        sign, reach = 1 - 2 * odd, np.maximum(quanta[a], quanta[b])
        code = odd[:, 1:] @ (1 << np.arange(odd.shape[1] - 1))
        return [
            (tuple(sign[k][0, 1:].tolist()), a[k], b[k], sign[k, 0], reach[k])
            for k in (code == c for c in sorted(set(code.tolist())))
        ]


class RingAtom(AtomModel):
    """All electron density concentrated at one radius (shell distribution).

    The idealized limit of a numeric radial density peaked at ``radius``:
    <r^E> = radius^E exactly.  In d = 2 this is a uniform ring with
    alpha = 3/2; in d = 3 a spherical shell.
    """

    def __init__(self, dim, radius=1.0):
        self.dim = _dimension(dim)
        _check_terms({"radius": radius})
        self.radius = radius

    def _radial_moment(self, order):
        return self.radius**order

    def support_radius(self):
        return self.radius


class Hydrogen1DAtom(AtomModel):
    """1D hydrogen-like atom whose ground state collapses onto the nucleus.

    The attractive -k/|x| potential in one dimension localizes the ground
    state completely, so a^2 = 0 and every nonzero moment vanishes; the atom
    produces no permanent multipoles at all.
    """

    def __init__(self):
        self.dim = 1
        self.a = 0.0

    def _radial_moment(self, order):
        return 1.0 if order == 0 else 0.0

    def support_radius(self):
        return 0.0

    def alpha(self):
        raise DegenerateAtomError("alpha undefined for the collapsed 1D atom")


class NumericRadialAtom(AtomModel):
    """Atom defined by sampled radial density values rho(r).

    ``rho`` holds the full d-dimensional density at the grid radii; the mass
    under the radial measure S_{d-1} r^{d-1} dr is renormalized to one on
    construction.  The density is zero outside [r[0], r[-1]], so a grid for
    d = 1, whose line charge is dense at its centre, should start at 0.
    Moments use composite Gauss-Legendre quadrature on the not-a-knot cubic
    spline through the samples (target 1e-8 relative for smooth densities),
    the values of scipy's ``CubicSpline`` (``_NotAKnotCubic``); the spline
    is evaluated at the nodes once, on construction, and each radial order
    is integrated once and kept.  The grid must be finite, strictly
    increasing and start at r >= 0 (a ``ValueError`` otherwise).
    """

    _GL_ORDER = 12

    def __init__(self, dim, r, rho):
        import numpy as np

        dim = _dimension(dim)
        r = np.asarray(r, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if r.ndim != 1 or r.shape != rho.shape or r.size < 4:
            raise ValueError("need matching 1D arrays with at least 4 samples")
        if not np.all(np.isfinite(r)):
            raise ValueError("radial grid must be finite")
        if not np.all(np.diff(r) > 0):
            raise ValueError("radial grid must be strictly increasing")
        if r[0] < 0:
            raise ValueError(
                f"radial grid must start at r >= 0, r[0] = {float(r[0])!r}"
            )
        if np.any(~np.isfinite(rho)) or np.any(rho < -1e-12 * rho.max(initial=0.0)):
            raise NonNormalizableDensityError("density must be finite and non-negative")
        self.dim = dim
        self._r = r
        self._spline = _NotAKnotCubic(r, np.clip(rho, 0.0, None))
        nodes, weights = np.polynomial.legendre.leggauss(self._GL_ORDER)
        mid = 0.5 * (r[:-1] + r[1:])
        half = 0.5 * (r[1:] - r[:-1])
        self._u = mid[:, None] + half[:, None] * nodes[None, :]
        self._rho_u = self._spline(self._u)
        self._hw = half[:, None] * weights[None, :]
        self._radial_moments = {}
        mass = self._integrate(dim - 1) * _sphere_area(dim)
        if not np.isfinite(mass) or mass <= 0:
            raise NonNormalizableDensityError(f"density mass {mass!r} not positive")
        self._norm = 1.0 / mass

    @classmethod
    def from_file(cls, path, dim):
        """Load a two-column text file of (r, rho(r)) samples."""
        import numpy as np

        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] < 2:
            raise ValueError("expected two columns: r and rho(r)")
        return cls(dim, data[:, 0], data[:, 1])

    def _integrate(self, power):
        """Integral of spline(u) u^power over the grid; inf or NaN, unwarned."""
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(self._hw * (self._rho_u * self._u**power)))

    def _radial_moment(self, order):
        if order > MOMENT_CAP:
            raise MomentCapError(f"order {order} exceeds cap {MOMENT_CAP}")
        if order not in self._radial_moments:
            self._radial_moments[order] = (
                self._norm
                * _sphere_area(self.dim)
                * self._integrate(order + self.dim - 1)
            )
        return self._radial_moments[order]

    def radial_density(self, r):
        """Normalized spline density at radius r, zero outside the grid.

        A float r gives a float, the same bits as the array case.
        """
        if isinstance(r, float):
            knots = self._spline.knots
            if not knots[0] <= r <= knots[-1]:
                return 0.0
            return self._norm * max(self._spline.at(r), 0.0)
        import numpy as np

        r = np.asarray(r, dtype=float)
        inside = (r >= self._r[0]) & (r <= self._r[-1])
        out = np.where(inside, np.clip(self._spline(np.clip(r, self._r[0], self._r[-1])), 0.0, None), 0.0)
        return self._norm * out

    def support_radius(self):
        return float(self._r[-1])


class _NotAKnotCubic:
    """scipy's ``CubicSpline(x, y)``, not-a-knot at both ends, bit for bit.

    For at least 4 finite, strictly increasing ``x``: the slopes s solve
    scipy's tridiagonal system as LAPACK's dgtsv solves it (``_gtsv``), the
    coefficients are scipy's PPoly ones (``c[0]`` the cubic term), and a
    point u in [x[i], x[i + 1]) (the last interval closed, the end intervals
    extended) is summed from the constant term up, as scipy evaluates it.
    ``at`` evaluates a float in Python floats, with the same bits.
    """

    def __init__(self, x, y):
        import numpy as np

        dx = np.diff(x)
        slope = np.diff(y) / dx
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        first = (dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] * dx[0] * slope[1]
        last = dx[-1] * dx[-1] * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]
        inner = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        s = np.array(_gtsv(
            np.append(dx[1:], d1),
            np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])),
            np.append(d0, dx[:-1]),
            np.concatenate(([first / d0], inner, [last / d1])),
        ))
        if not np.all(np.isfinite(s)):
            raise ValueError("spline slopes of the density are not finite")
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        self.knots = x.tolist()
        self._rows = self.c.T[:, ::-1].tolist()  # per interval, constant first

    def __call__(self, u):
        import numpy as np

        i = np.searchsorted(self.x, u, side="right") - 1
        i = np.clip(i, 0, self.x.size - 2)
        s = u - self.x[i]
        out, z = np.zeros(np.shape(u)), np.ones(np.shape(u))
        for c in self.c[::-1]:
            out += c[i] * z
            z *= s
        return out

    def at(self, u):
        """The spline at one float u, in ``__call__``'s order of operations."""
        knots = self.knots
        i = min(max(bisect.bisect_right(knots, u) - 1, 0), len(knots) - 2)
        s = u - knots[i]
        c0, c1, c2, c3 = self._rows[i]
        z = s * s
        return 0.0 + c0 + c1 * s + c2 * z + c3 * (z * s)


def _gtsv(lower, diag, upper, rhs):
    """The solution of a tridiagonal system, as LAPACK's dgtsv for one rhs.

    Gaussian elimination with partial pivoting, a row swap filling in the
    second superdiagonal (kept in ``lower``), then back substitution, all in
    dgtsv's order of operations.  A sweep without pivoting differs in the
    last bits wherever the grid spacing jumps.
    """
    import numpy as np

    dl, d, du, b = (v.tolist() for v in (lower, diag, upper, rhs))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                dl[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:  # dgtsv's INFO = N; no earlier pivot can be zero
        raise np.linalg.LinAlgError("spline system of the radial grid is singular")
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _sphere_area(dim):
    # surface of the unit (d-1)-sphere; d = 1 counts the two half-lines
    return {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]


@dataclass(frozen=True)
class SpectrumLevel:
    energy: float
    quanta: tuple


def drude_spectrum(atom, cutoff):
    """Oscillator eigenvalues and multi-indices with total quanta <= cutoff."""
    if not isinstance(atom, DrudeAtom):
        raise AtomKindError("spectrum available only for Drude atoms")
    cutoff = _integer("cutoff", cutoff, 0)
    levels = []
    for quanta in map(tuple, _ProductStates(atom, atom, cutoff).states.tolist()):
        energy = atom.hbar_omega * (sum(quanta) + atom.dim / 2.0)
        levels.append(SpectrumLevel(energy, quanta))
    levels.sort(key=lambda lv: (lv.energy, lv.quanta))
    return levels
