"""Electrostatic potential of one atom at a 3D field point.

The atom (nucleus at the origin, electron cloud confined to the first d
coordinates) is probed anywhere in 3D space.  The nuclear 1/|r| piece is kept
analytic; the electron-cloud part is reduced by rotational symmetry to 1D
adaptive quadrature (relative error 1e-8 at worst):

    d = 1  integral along the line,
    d = 2  radial integral with the in-plane angle done as a complete
           elliptic integral,
    d = 3  classic shell decomposition (interior/exterior pieces).

For d = 3 the exterior potential vanishes identically (shell theorem); for
d < 3 the cloud carries a permanent quadrupole whose leading field is
-(3 cos^2 theta - d) a^2 / (2 r^3) with theta the angle out of the confined
subspace.  On axis the next order adds -(3 - d)(5 - d) alpha a^4 / (8 r^5),
where alpha = <x^4> / a^4 is the per-axis fourth-moment ratio of the cloud
(alpha = 3 for a Gaussian).  The on-axis multipole series is asymptotic, not
convergent (for a Gaussian its coefficients grow like (2n-1)!!), and the
later terms s^-7, s^-9, ... are not negligible at 1e-6 relative for s up to
about 15.

The d = 1 and d = 2 cloud integrals use ``_panels``, adaptive 20-point
Gauss-Legendre panels in numpy that aim at 1e-13 relative; the d = 2 ring
kernel takes K from the arithmetic-geometric mean of the complementary
modulus.  Only the d = 3 shell integrals import scipy, for ``quad`` in
``_quad``: outside the cloud the d = 3 value is the rounding residue of
(1 - 4 pi E) / s, so any other rule would move its printed digits.  With
``CubicSpline`` in ``NumericRadialAtom`` (see ``atoms``) that is the only
use of scipy, so the package, the multipole forms and the d = 1 and d = 2
quadrature import none of it.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .atoms import DrudeAtom, Hydrogen1DAtom, NumericRadialAtom, RingAtom


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class UnsupportedOrderError(ValueError):
    """Multipole order not available at this field direction."""


class DimensionError(ValueError):
    """Operation requires a different confinement dimension."""


class DivergentPotentialError(ValueError):
    """The cloud potential is infinite at the requested field point."""


@dataclass(frozen=True)
class PotentialSample:
    """One potential value; ``error`` is its quadrature error estimate, if any."""

    field_point: tuple
    value: float
    method: str
    error: float | None = None


_REL_TOL = 1e-8
_ABS_FLOOR = 1e-11


def multipole_coefficients(atom):
    """(c3, c5) with V(s) = c3 / s^3 + c5 / s^5 + O(s^-7) on axis.

    Built from raw ground-state moments, so for a numeric density these
    inherit only quadrature error:

        c3 = (<|r|^2> - 3 <x^2>) / 2
        c5 = -(35 <x^4> - 30 <x^2 |r|^2> + 3 <|r|^4>) / 8
    """
    m2x, r2, m4x, x2r2, r4 = even_moments(atom)
    c3 = 0.5 * (r2 - 3.0 * m2x)
    c5 = -(35.0 * m4x - 30.0 * x2r2 + 3.0 * r4) / 8.0
    return c3, c5


def even_moments(atom):
    """(<x^2>, <|r|^2>, <x^4>, <x^2 |r|^2>, <|r|^4>) of an isotropic atom."""
    d = atom.dim
    m2x = atom.moment((2,) + (0,) * (d - 1))
    r2 = atom.radial_moment(2)
    m4x = atom.moment((4,) + (0,) * (d - 1))
    if d == 1:
        x2r2 = m4x
        r4 = m4x
    else:
        x2y2 = atom.moment((2, 2) + (0,) * (d - 2))
        x2r2 = m4x + (d - 1) * x2y2
        r4 = d * m4x + d * (d - 1) * x2y2
    return m2x, r2, m4x, x2r2, r4


def _field_norm(r):
    """|r| of a field point, which must be finite and nonzero.

    The point is scaled by the power of two of its largest component before
    the norm is taken and the norm scaled back.  That is exact, so |r| keeps
    the bits of ``np.linalg.norm(r)`` wherever that is right, but the
    squares of tiny (or huge) components no longer underflow (or overflow).
    """
    largest = float(np.max(np.abs(r)))
    if not (math.isfinite(largest) and largest > 0):
        raise ValueError("field point must be finite and nonzero")
    exp = math.frexp(largest)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(r, -exp))), exp)


def v_a_multipole(atom, r, order=3):
    """Multipole form of the potential at a 3D field point.

    Order 3 is the quadrupole field, valid at any angle; order 5 adds the
    next on-axis term and is rejected off axis, where that coefficient is
    not available.  A field point so close to the nucleus that s^order
    underflows or the value overflows raises ``DivergentPotentialError``.
    """
    if order not in (3, 5):
        raise UnsupportedOrderError("order must be 3 or 5")
    r = np.asarray(r, dtype=float)
    s = _field_norm(r)
    if s**order == 0.0:
        raise DivergentPotentialError(
            f"multipole{order} potential diverges at |r| = {s:.3g}"
        )
    cos2 = float(np.sum(r[: atom.dim] ** 2)) / float(r @ r)
    a2 = atom.radial_moment(2) / atom.dim
    value = -(3.0 * cos2 - atom.dim) * a2 / (2.0 * s**3)
    if order == 5:
        if abs(cos2 - 1.0) > 1e-12:
            raise UnsupportedOrderError(
                "order 5 is only available on the in-plane axis"
            )
        c3, c5 = multipole_coefficients(atom)
        value = c3 / s**3 + c5 / s**5
    if not math.isfinite(value):
        raise DivergentPotentialError(
            f"multipole{order} potential diverges at |r| = {s:.3g}"
        )
    return PotentialSample(tuple(r), value, f"multipole{order}")


def v_a_numeric(atom, r):
    """Potential by quadrature of the electron cloud (1e-8 relative).

    ``error`` of the sample is the quadrature's own estimate for a density
    that is integrated, and ``None`` where the cloud potential has a closed
    form (the collapsed 1D atom and the ring atoms).
    """
    r = np.asarray(r, dtype=float)
    s = _field_norm(r)

    if isinstance(atom, Hydrogen1DAtom):
        # density collapsed onto the nucleus: exact cancellation
        return PotentialSample(tuple(r), 0.0, "quadrature")
    if not math.isfinite(1.0 / s):
        raise DivergentPotentialError(f"potential diverges at |r| = {s:.3g}")
    if isinstance(atom, RingAtom):
        cloud = _shell_cloud_potential(atom.dim, atom.radius, r, s)
        return PotentialSample(tuple(r), 1.0 / s - cloud, "quadrature")

    support = atom.support_radius()
    if atom.dim == 1:
        cloud, error = _cloud_1d(atom, r, support)
    elif atom.dim == 2:
        cloud, error = _cloud_2d(atom, r, support)
    else:
        cloud, error = _cloud_3d(atom, s, support)
    return PotentialSample(tuple(r), 1.0 / s - cloud, "quadrature", error)


def shell_theorem_check(atom, radii):
    """Largest |V| over exterior radii for a bounded d = 3 density."""
    if atom.dim != 3:
        raise DimensionError("shell-theorem check requires dim = 3")
    worst = 0.0
    for s in np.asarray(radii, dtype=float):
        sample = v_a_numeric(atom, np.array([s, 0.0, 0.0]))
        worst = max(worst, abs(sample.value))
    return worst


def _accept(val, err):
    """(val, err) if err meets the documented 1e-8 relative bound, else raise."""
    if not err <= max(_REL_TOL * abs(val), _ABS_FLOOR):
        raise QuadratureError(
            f"quadrature error {err:.2e} too large for value {val:.6e}"
        )
    return val, err


def _quad(fn, lo, hi):
    from scipy.integrate import IntegrationWarning, quad

    # quad warns when it stops short of its own 1e-11 target; _accept
    # decides pass or fail against the documented 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)
    return _accept(val, err)


_GL_ORDER = 20
_PANEL_RTOL = 1e-13
_MAX_PANELS = 2000


@functools.cache
def _gauss_legendre():
    """Nodes and weights on [-1, 1], built on first use.

    ``import numpy`` does not load ``numpy.polynomial``, so building them at
    import would cost every command that never integrates.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss(f, a, b):
    """Gauss-Legendre value of f on each panel [a_i, b_i], as one array."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (b - a)
    u = (0.5 * (a + b))[:, None] + half[:, None] * nodes
    return half * (f(u) @ weights)


def _halves(f, a, b):
    """Gauss-Legendre values of f on the left and right half of each panel."""
    mid = 0.5 * (a + b)
    both = _gauss(f, np.concatenate([a, mid]), np.concatenate([mid, b]))
    return both[: a.size], both[a.size :]


def _panels(f, lo, hi):
    """(integral, error estimate) of f over [lo, hi] by adaptive panels.

    Each panel is integrated whole and as its two halves; the halves' sum is
    its value and the gap between the two its error estimate.  Panels that
    carry at least a quarter of the largest estimate are bisected until the
    summed estimate is within ``_PANEL_RTOL`` of the value, or until there
    are ``_MAX_PANELS`` panels; a result whose estimate then misses the
    documented 1e-8 raises ``QuadratureError``.  ``f`` maps an array of
    abscissae to an array of integrand values of the same shape.
    """
    a = np.array([float(lo)])
    b = np.array([float(hi)])
    whole = _gauss(f, a, b)
    left, right = _halves(f, a, b)
    while True:
        err = np.abs(whole - (left + right))
        val = float(np.sum(left + right))
        total = float(np.sum(err))
        # a NaN estimate ends the loop here and is rejected by _accept
        if not total > _PANEL_RTOL * abs(val) or a.size >= _MAX_PANELS:
            return _accept(val, total)
        split = err >= 0.25 * err.max()
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_left, new_right = _halves(f, new_a, new_b)
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        whole = np.concatenate([whole[keep], left[split], right[split]])
        left = np.concatenate([left[keep], new_left])
        right = np.concatenate([right[keep], new_right])


def _panels_between(f, edges):
    """``_panels`` over each interval between consecutive edges, summed."""
    parts = [_panels(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    return sum(val for val, _ in parts), sum(err for _, err in parts)


def _cloud_1d(atom, r, support):
    rx = float(r[0])
    perp2 = float(r[1] ** 2 + r[2] ** 2)
    if perp2 == 0.0 and abs(rx) <= support:
        # the 1/|rx - x| singularity sits on the charged line (at its end
        # too: the density does not vanish there)
        raise DivergentPotentialError(
            f"d=1 cloud potential diverges logarithmically on the axis "
            f"inside the cloud (|x| < {support:.6g})"
        )

    def integrand(t):
        # t = x - rx: abscissae next to the field point's foot stay exact
        return atom.radial_density(np.abs(rx + t)) / np.sqrt(t**2 + perp2)

    lo, hi = -support - rx, support - rx
    # 1/|r - x| peaks at the foot, with height 1/|r_perp|: make it an edge
    return _panels_between(integrand, [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi])


def _cloud_2d(atom, r, support):
    r_par = math.hypot(r[0], r[1])
    z = float(r[2])

    def integrand(u):
        return atom.radial_density(u) * u * _ring_kernel(u, r_par, z)

    # in the plane K has a logarithmic singularity at u = r_par: an edge
    inside = abs(z) < 1e-300 and r_par < support
    return _panels_between(
        integrand, [0.0, r_par, support] if inside else [0.0, support]
    )


def _cloud_3d(atom, s, support):
    def shell_inner(u):
        return float(atom.radial_density(u)) * u**2

    def shell_outer(u):
        return float(atom.radial_density(u)) * u

    inner_top = min(s, support)
    enclosed, enclosed_err = (
        _quad(shell_inner, 0.0, inner_top) if inner_top > 0 else (0.0, 0.0)
    )
    outer, outer_err = _quad(shell_outer, s, support) if s < support else (0.0, 0.0)
    cloud = 4.0 * math.pi * (enclosed / s + outer)
    return cloud, 4.0 * math.pi * (enclosed_err / s + outer_err)


def _elliptic_k(kp):
    """Complete elliptic integral K as a function of k' = sqrt(1 - m) > 0.

    K = pi / (2 AGM(1, k')).  Taking k' itself, rather than 1 - m formed
    from m, keeps K accurate next to its logarithmic singularity at k' = 0,
    where 1 - m has lost its digits to cancellation.
    """
    a = np.ones_like(kp)
    b = kp
    # AM >= GM, and the gap closes quadratically
    while np.any(a - b > 1e-15 * a):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return 0.5 * math.pi / a


def _ring_kernel(u, r_par, z):
    """Angular integral of 1/|r - u e(phi)| over a circle of radius u.

    Seen from a field point at in-plane radius r_par and height z, the near
    and far sides of the circle lie at hypot(u - r_par, z) and
    hypot(u + r_par, z).  The integral is 4 K / far, with complementary
    modulus k' = near / far; k' = 0, where K diverges, exactly on the circle.
    """
    far = np.hypot(u + r_par, z)
    return 4.0 * _elliptic_k(np.hypot(u - r_par, z) / far) / far


def _shell_cloud_potential(dim, radius, r, s):
    """Cloud potential of the ideal shell distribution at one field point."""
    if dim == 1:
        # two half charges at +-radius on the x-axis
        rx = float(r[0])
        perp2 = float(r[1] ** 2 + r[2] ** 2)
        d_plus = math.sqrt((rx - radius) ** 2 + perp2)
        d_minus = math.sqrt((rx + radius) ** 2 + perp2)
        if min(d_plus, d_minus) == 0.0:
            raise DivergentPotentialError("d=1 shell potential diverges on a charge")
        return 0.5 / d_plus + 0.5 / d_minus
    if dim == 2:
        r_par = math.hypot(r[0], r[1])
        if r_par == radius and r[2] == 0.0:
            raise DivergentPotentialError("d=2 shell potential diverges on the ring")
        return float(_ring_kernel(radius, r_par, float(r[2]))) / (2.0 * math.pi)
    return 1.0 / max(s, radius)
