"""Rotationally symmetric atom ground states, exposed through their moments.

Every model lives in ``dim`` in {1, 2, 3} and is inversion symmetric, so the
coordinate moments factor into a radial moment <r^E> times a closed-form
angular average over the (d-1)-sphere.  The characteristic length is
a^2 = <|r|^2> / d and the shape coefficient alpha = <x^4> / a^4 controls the
subleading multipole of the charge cloud.

Moments are the only interface the perturbative machinery needs; densities
are exposed separately for the quadrature oracles and the potential module.

This module needs numpy, and loads when a command first asks for an atom:
``moments``, ``potential`` and ``verify`` do, while ``expand``, ``curve``
and ``exact`` never touch it (see the package docstring).  scipy is imported
only by ``NumericRadialAtom``, which builds its density spline with
``CubicSpline``; that is the package's only use of scipy, so no command
that prints moments or potentials pays for it.
``DrudeAtom.support_radius`` reads its radius from a table of Gaussian
survival roots.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .drude_exact import _positive
from .multipole import _integer

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
    exponents = tuple(_integer("exponent", e) for e in exponents)
    if len(exponents) != dim:
        raise ValueError(f"expected {dim} exponents, got {len(exponents)}")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    if sum(exponents) > MOMENT_CAP:
        raise MomentCapError(
            f"total degree {sum(exponents)} exceeds cap {MOMENT_CAP}"
        )
    return exponents


class AtomModel:
    """Base class: isotropic ground state with factorized moments."""

    dim: int

    def radial_moment(self, order: int) -> float:
        raise NotImplementedError

    def moment(self, exponents) -> float:
        """Ground-state expectation of prod_i x_i^e_i (zero for odd degrees)."""
        exponents = _check_exponents(self.dim, exponents)
        ang = _angular_average(self.dim, exponents)
        if ang == 0:
            return 0.0
        return float(ang) * self.radial_moment(sum(exponents))

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
    a double factorial, and alpha = 3.
    """

    def __init__(self, dim, omega, mass=1.0):
        if dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2, or 3")
        if not all(_positive(v) for v in (omega, mass)):
            raise ValueError("omega and mass must be finite and positive")
        self.dim = dim
        self.omega = omega
        self.mass = mass
        self.a = math.sqrt(1.0 / (2.0 * mass * omega))

    @classmethod
    def bohr_matched(cls, dim):
        """Reduced units with a = 1 and hbar * omega = k / (2 a) for k = 1."""
        return cls(dim, omega=0.5, mass=1.0)

    @property
    def hbar_omega(self):
        """Level spacing hbar omega, equal to omega since hbar = 1."""
        return self.omega

    def moment(self, exponents) -> float:
        exponents = _check_exponents(self.dim, exponents)
        if any(e % 2 for e in exponents):
            return 0.0
        out = self.a ** sum(exponents)
        for e in exponents:
            out *= _double_factorial(e - 1)
        return out

    def radial_moment(self, order):
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

    def radial_density(self, r):
        """Ground-state density value at radius r (full d-dim density)."""
        r = np.asarray(r, dtype=float)
        a2 = self.a**2
        return (2.0 * math.pi * a2) ** (-self.dim / 2.0) * np.exp(
            -(r**2) / (2.0 * a2)
        )

    def support_radius(self):
        return self.a * _GAUSS_SUPPORT[self.dim]


class RingAtom(AtomModel):
    """All electron density concentrated at one radius (shell distribution).

    The idealized limit of a numeric radial density peaked at ``radius``:
    <r^E> = radius^E exactly.  In d = 2 this is a uniform ring with
    alpha = 3/2; in d = 3 a spherical shell.
    """

    def __init__(self, dim, radius=1.0):
        if dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2, or 3")
        if not _positive(radius):
            raise ValueError("radius must be finite and positive")
        self.dim = dim
        self.radius = radius

    def radial_moment(self, order):
        return self.radius**order


class Hydrogen1DAtom(AtomModel):
    """1D hydrogen-like atom whose ground state collapses onto the nucleus.

    The attractive -k/|x| potential in one dimension localizes the ground
    state completely, so a^2 = 0 and every nonzero moment vanishes; the atom
    produces no permanent multipoles at all.
    """

    def __init__(self):
        self.dim = 1
        self.a = 0.0

    def radial_moment(self, order):
        return 1.0 if order == 0 else 0.0

    def alpha(self):
        raise DegenerateAtomError("alpha undefined for the collapsed 1D atom")


class NumericRadialAtom(AtomModel):
    """Atom defined by sampled radial density values rho(r).

    ``rho`` holds the full d-dimensional density at the grid radii; the mass
    under the radial measure S_{d-1} r^{d-1} dr is renormalized to one on
    construction.  The density is zero outside [r[0], r[-1]], so a grid for
    d = 1, whose line charge is dense at its centre, should start at 0.
    Moments use composite Gauss-Legendre quadrature on a cubic spline through
    the samples (target 1e-8 relative for smooth densities); the spline is
    evaluated at the nodes once, on construction, and each radial order is
    integrated once and kept.
    """

    _GL_ORDER = 12

    def __init__(self, dim, r, rho):
        from scipy.interpolate import CubicSpline

        if dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2, or 3")
        r = np.asarray(r, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if r.ndim != 1 or r.shape != rho.shape or r.size < 4:
            raise ValueError("need matching 1D arrays with at least 4 samples")
        if not np.all(np.diff(r) > 0):
            raise ValueError("radial grid must be strictly increasing")
        if np.any(~np.isfinite(rho)) or np.any(rho < -1e-12 * rho.max(initial=0.0)):
            raise NonNormalizableDensityError("density must be finite and non-negative")
        self.dim = dim
        self._r = r
        self._spline = CubicSpline(r, np.clip(rho, 0.0, None))
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
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] < 2:
            raise ValueError("expected two columns: r and rho(r)")
        return cls(dim, data[:, 0], data[:, 1])

    def _integrate(self, power):
        """Integral of spline(u) u^power over the radial grid."""
        return float(np.sum(self._hw * (self._rho_u * self._u**power)))

    def radial_moment(self, order):
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
        r = np.asarray(r, dtype=float)
        inside = (r >= self._r[0]) & (r <= self._r[-1])
        out = np.where(inside, np.clip(self._spline(np.clip(r, self._r[0], self._r[-1])), 0.0, None), 0.0)
        return self._norm * out

    def support_radius(self):
        return float(self._r[-1])


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
    cutoff = _integer("cutoff", cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    levels = []
    for quanta in _multi_indices(atom.dim, cutoff):
        energy = atom.hbar_omega * (sum(quanta) + atom.dim / 2.0)
        levels.append(SpectrumLevel(energy, quanta))
    levels.sort(key=lambda lv: (lv.energy, lv.quanta))
    return levels


def _multi_indices(dim, cutoff):
    if dim == 1:
        return [(n,) for n in range(cutoff + 1)]
    out = []
    for head in range(cutoff + 1):
        for rest in _multi_indices(dim - 1, cutoff - head):
            out.append((head,) + rest)
    return out
