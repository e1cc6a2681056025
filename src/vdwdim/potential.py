"""Electrostatic potential of one atom at a 3D field point.

The atom (nucleus at the origin, electron cloud confined to the first d
coordinates) is probed anywhere in 3D space.  The nuclear 1/|r| piece is kept
analytic; the electron-cloud part is reduced by rotational symmetry to 1D
adaptive quadrature:

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

scipy is imported only inside the quadrature route, where nothing cheaper
does the job: ``quad`` in ``_quad``, ``ellipk`` for the ring kernel, and the
Drude ``support_radius`` root that sets the integration range.  ``ellipk``
stays scipy's because an arithmetic-geometric-mean K(m) in plain ``math``
differs from it by a few ulp, which would move the printed ring and d = 2
potentials.  The multipole forms and the moment helpers need none of it, so
the package imports without scipy, and only ``v_a_numeric`` and
``NumericRadialAtom`` (see ``atoms``) load it.
"""

import math
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
    field_point: tuple
    value: float
    method: str


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
    """|r| of a field point, which must be finite and nonzero."""
    s = float(np.linalg.norm(r))
    if not (np.all(np.isfinite(r)) and s > 0):
        raise ValueError("field point must be finite and nonzero")
    return s


def _in_plane_cos2(atom, r):
    r = np.asarray(r, dtype=float)
    s2 = float(r @ r)
    if s2 == 0:
        raise ValueError("field point must be nonzero")
    return float(np.sum(r[: atom.dim] ** 2)) / s2


def v_a_multipole(atom, r, order=3):
    """Multipole form of the potential at a 3D field point.

    Order 3 is the quadrupole field, valid at any angle; order 5 adds the
    next on-axis term and is rejected off axis, where that coefficient is
    not available.
    """
    if order not in (3, 5):
        raise UnsupportedOrderError("order must be 3 or 5")
    r = np.asarray(r, dtype=float)
    s = _field_norm(r)
    cos2 = _in_plane_cos2(atom, r)
    a2 = atom.radial_moment(2) / atom.dim
    value = -(3.0 * cos2 - atom.dim) * a2 / (2.0 * s**3)
    if order == 5:
        if abs(cos2 - 1.0) > 1e-12:
            raise UnsupportedOrderError(
                "order 5 is only available on the in-plane axis"
            )
        c3, c5 = multipole_coefficients(atom)
        value = c3 / s**3 + c5 / s**5
    return PotentialSample(tuple(r), value, f"multipole{order}")


def v_a_numeric(atom, r):
    """Potential by adaptive quadrature of the electron cloud (1e-8 relative)."""
    r = np.asarray(r, dtype=float)
    s = _field_norm(r)

    if isinstance(atom, Hydrogen1DAtom):
        # density collapsed onto the nucleus: exact cancellation
        return PotentialSample(tuple(r), 0.0, "quadrature")
    if isinstance(atom, RingAtom):
        cloud = _shell_cloud_potential(atom.dim, atom.radius, r, s)
        return PotentialSample(tuple(r), 1.0 / s - cloud, "quadrature")

    support = atom.support_radius(1e-14)
    if atom.dim == 1:
        cloud = _cloud_1d(atom, r, support)
    elif atom.dim == 2:
        cloud = _cloud_2d(atom, r, s, support)
    else:
        cloud = _cloud_3d(atom, s, support)
    return PotentialSample(tuple(r), 1.0 / s - cloud, "quadrature")


def shell_theorem_check(atom, radii):
    """Largest |V| over exterior radii for a bounded d = 3 density."""
    if atom.dim != 3:
        raise DimensionError("shell-theorem check requires dim = 3")
    worst = 0.0
    for s in np.asarray(radii, dtype=float):
        sample = v_a_numeric(atom, np.array([s, 0.0, 0.0]))
        worst = max(worst, abs(sample.value))
    return worst


def _quad(fn, lo, hi, points=None):
    from scipy.integrate import quad

    val, err = quad(
        fn, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400, points=points
    )
    if err > max(_REL_TOL * abs(val), _ABS_FLOOR):
        raise QuadratureError(
            f"quadrature error {err:.2e} too large for value {val:.6e}"
        )
    return val


def _cloud_1d(atom, r, support):
    rx = float(r[0])
    perp2 = float(r[1] ** 2 + r[2] ** 2)
    if perp2 == 0.0 and -support < rx < support:
        # the 1/|rx - x| singularity sits inside the charged line
        raise DivergentPotentialError(
            f"d=1 cloud potential diverges logarithmically on the axis "
            f"inside the cloud (|x| < {support:.6g})"
        )

    def integrand(x):
        return float(atom.radial_density(abs(x))) / math.sqrt(
            (rx - x) ** 2 + perp2
        )

    return _quad(integrand, -support, support)


def _cloud_2d(atom, r, s, support):
    from scipy.special import ellipk

    r_par = math.sqrt(float(r[0] ** 2 + r[1] ** 2))

    def integrand(u):
        kernel = _ring_kernel(u, r_par, s, ellipk)
        return float(atom.radial_density(u)) * u * kernel

    pts = [r_par] if (abs(float(r[2])) < 1e-300 and r_par < support) else None
    return _quad(integrand, 0.0, support, points=pts)


def _cloud_3d(atom, s, support):
    def shell_inner(u):
        return float(atom.radial_density(u)) * u**2

    def shell_outer(u):
        return float(atom.radial_density(u)) * u

    inner_top = min(s, support)
    enclosed = _quad(shell_inner, 0.0, inner_top) if inner_top > 0 else 0.0
    outer = (
        _quad(shell_outer, s, support) if s < support else 0.0
    )
    return 4.0 * math.pi * (enclosed / s + outer)


def _ring_kernel(u, r_par, s, ellipk):
    """Angular integral of 1/|r - u e(phi)| over a circle of radius u.

    ``ellipk`` is scipy's complete elliptic integral K(m), imported once by
    the caller rather than on every integrand call.
    """
    A = u * u + s * s
    B = 2.0 * u * r_par
    m = 2.0 * B / (A + B)
    return 4.0 * ellipk(m) / math.sqrt(A + B)


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
        from scipy.special import ellipk

        r_par = math.sqrt(float(r[0] ** 2 + r[1] ** 2))
        cloud = _ring_kernel(radius, r_par, s, ellipk) / (2.0 * math.pi)
        if not math.isfinite(cloud):
            raise DivergentPotentialError("d=2 shell potential diverges on the ring")
        return cloud
    return 1.0 / max(s, radius)
