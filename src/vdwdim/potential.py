"""Electrostatic potential of one atom at a 3D field point.

The atom (nucleus at the origin, electron cloud confined to the first d
coordinates) is probed anywhere in 3D space.  The nuclear 1/|r| piece is kept
analytic.  For d = 1 and 2 the cloud is a stack of charged shells, and one
kernel, ``_shell_kernel``, is the potential of unit charge spread evenly
over the shell of radius u: two half charges in d = 1, a ring in d = 2.  A
``RingAtom`` is one shell; a density is integrated over the shells in their
offset from the field point's foot (``_cloud``, relative error 1e-8 at
worst).  d = 3 is the classic interior/exterior shell decomposition.

For d = 3 the exterior potential vanishes identically (shell theorem); for
d < 3 the cloud carries a permanent quadrupole whose leading field is
-(3 cos^2 theta - d) a^2 / (2 r^3) with theta the angle out of the confined
subspace.  On axis the next order adds -(3 - d)(5 - d) alpha a^4 / (8 r^5),
where alpha = <x^4> / a^4 is the per-axis fourth-moment ratio of the cloud
(alpha = 3 for a Gaussian).  The on-axis multipole series is asymptotic, not
convergent (for a Gaussian its coefficients grow like (2n-1)!!), and the
later terms s^-7, s^-9, ... are not negligible at 1e-6 relative for s up to
about 15.

``_cloud`` uses ``_panels``, adaptive 20-point Gauss-Legendre panels in
plain floats that aim at 1e-13 relative; the ring kernel takes K from the
arithmetic-geometric mean of the complementary modulus.  The d = 3 shell
integrals use ``_quad``, QUADPACK's QAGS without its extrapolation, in the
same arithmetic as scipy's ``quad``: outside the cloud the d = 3 value is
the rounding residue of (1 - 4 pi E) / s, so any other rule would move its
printed digits.

Only that d = 3 rule loads numpy: ``_qk21`` evaluates the density on its
21 nodes as one array, with numpy's ``exp``, which keeps the residue's
digits where ``math.exp`` would move some of them.  Everything else here,
every d = 1 and d = 2 value and every multipole value, is computed in
Python floats with ``math``, so ``vdw potential --dim 1`` and ``--dim 2``
never import numpy.
"""

import math
import sys
from dataclasses import dataclass

from .atoms import Hydrogen1DAtom, RingAtom, _sphere_area


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
    """One potential value; ``error`` is its quadrature error estimate, if any.

    ``field_point`` is the point as a tuple of three Python floats.
    """

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


def _point(r):
    """The field point as a tuple of three floats.

    ValueError unless it has shape (3,), as ``np.shape`` reads it.
    """
    shape = ()
    probe = r
    while isinstance(probe, (list, tuple)):
        shape += (len(probe),)
        if not probe:
            break
        probe = probe[0]
    else:
        shape += tuple(getattr(probe, "shape", ()))
    if shape != (3,):
        raise ValueError(f"field point must have shape (3,), got {shape}")
    return tuple(float(x) for x in r)


def _add_square(acc, x):
    """acc + x * x rounded once, as a fused multiply-add rounds it.

    ``math`` has no fma before Python 3.13, so the sum is formed exactly:
    the denominators of floats are powers of two, and int / int rounds
    correctly.
    """
    xn, xd = x.as_integer_ratio()
    an, ad = acc.as_integer_ratio()
    return (xn * xn * ad + an * xd * xd) / (xd * xd * ad)


def _field_norm(r):
    """(|r|, r scaled by the power of two of its largest component, |scaled|^2).

    The field point must be three finite floats, not all zero (ValueError).
    The scaling is exact, so the squares of tiny (or huge) components no
    longer underflow (or overflow).  |scaled|^2 keeps the bits of numpy's
    ``scaled @ scaled``, and |r| those of ``np.linalg.norm(r)`` wherever
    that is right: numpy's dot of three floats accumulates by fused
    multiply-adds, fma(z, z, fma(y, y, x x)) (OpenBLAS's ddot on an x86-64
    FMA processor), which a plain sum of squares misses in about one case
    in ten.
    """
    x, y, z = r
    largest = max(abs(x), abs(y), abs(z))
    # an inf component makes largest inf, a NaN one the sum NaN
    if not 0.0 < largest < math.inf or math.isnan(x + y + z):
        raise ValueError("field point must be finite and nonzero")
    exp = math.frexp(largest)[1]
    x, y, z = scaled = (math.ldexp(x, -exp), math.ldexp(y, -exp), math.ldexp(z, -exp))
    norm2 = _add_square(_add_square(x * x, y), z)
    return math.ldexp(math.sqrt(norm2), exp), scaled, norm2


def v_a_multipole(atom, r, order=3):
    """Multipole form of the potential at a 3D field point.

    Order 3 is the quadrupole field, valid at any angle; order 5 adds the
    next term on the x axis, along which ``multipole_coefficients`` are
    taken, and is rejected off it.  A field point so close to the nucleus
    that s^order underflows or the value overflows raises
    ``DivergentPotentialError``; far from it the value underflows to a
    subnormal or zero.
    """
    if order not in (3, 5):
        raise UnsupportedOrderError("order must be 3 or 5")
    r = _point(r)
    s, scaled, norm2 = _field_norm(r)
    if order == 3:
        in_plane = 0.0  # numpy's sum of the squares, left to right
        for x in scaled[: atom.dim]:
            in_plane += x * x
        cos2 = in_plane / norm2
        a2 = atom.radial_moment(2) / atom.dim
        value = _over_power((atom.dim - 3.0 * cos2) * a2 / 2.0, s, 3)
    else:
        if abs(scaled[0] ** 2 / norm2 - 1.0) > 1e-12:
            raise UnsupportedOrderError(
                "order 5 is only available on the in-plane axis"
            )
        c3, c5 = multipole_coefficients(atom)
        value = _over_power(c3, s, 3) + _over_power(c5, s, 5)
    if not math.isfinite(value):
        raise DivergentPotentialError(
            f"multipole{order} potential diverges at |r| = {s:.3g}"
        )
    return PotentialSample(r, value, f"multipole{order}")


def _over_power(c, s, n):
    """c / s^n: inf where s^n underflows, subnormal or zero where it overflows."""
    try:
        power = s**n
    except OverflowError:
        mantissa, exp = math.frexp(s)
        return math.ldexp(c / mantissa**n, -n * exp)
    return math.inf if power == 0.0 else c / power


def v_a_numeric(atom, r):
    """Potential by quadrature of the electron cloud (1e-8 relative).

    ``error`` of the sample is the quadrature's own estimate for a density
    that is integrated, and ``None`` where the cloud potential has a closed
    form (the collapsed 1D atom and the ring atoms).
    """
    r = _point(r)
    s = _field_norm(r)[0]

    if isinstance(atom, Hydrogen1DAtom):
        # density collapsed onto the nucleus: exact cancellation
        return PotentialSample(r, 0.0, "quadrature")
    if not math.isfinite(1.0 / s):
        raise DivergentPotentialError(f"potential diverges at |r| = {s:.3g}")
    d = atom.dim
    r_par = math.hypot(*r[:d])
    perp = math.hypot(*r[d:])
    if isinstance(atom, RingAtom):
        if d == 3:
            cloud = 1.0 / max(s, atom.radius)
        else:
            # the kernel is infinite on the charge and overflows next to it
            cloud = _shell_kernel(d, atom.radius - r_par, r_par, perp)
        if not math.isfinite(cloud):
            on = "a charge" if d == 1 else "the ring"
            raise DivergentPotentialError(f"d={d} shell potential diverges on {on}")
        return PotentialSample(r, 1.0 / s - cloud, "quadrature")

    support = atom.support_radius()
    if d == 3:
        cloud, error = _cloud_3d(atom, s, support)
    else:
        cloud, error = _cloud(atom, r_par, perp, support)
    return PotentialSample(r, 1.0 / s - cloud, "quadrature", error)


def shell_theorem_check(atom, radii):
    """Largest |V| over exterior radii for a bounded d = 3 density."""
    if atom.dim != 3:
        raise DimensionError("shell-theorem check requires dim = 3")
    worst = 0.0
    for s in radii:
        sample = v_a_numeric(atom, (s, 0.0, 0.0))
        worst = max(worst, abs(sample.value))
    return worst


def _accept(val, err):
    """(val, err) if both are finite and err meets the 1e-8 bound, else raise."""
    finite = math.isfinite(val) and math.isfinite(err)
    if not (finite and err <= max(_REL_TOL * abs(val), _ABS_FLOOR)):
        raise QuadratureError(
            f"quadrature error {err:.2e} too large for value {val:.6e}"
        )
    return val, err


# QUADPACK's dqk21 literals (Piessens et al., *QUADPACK*, 1983): the
# Kronrod abscissae on [0, 1] from the outermost in, the 21-point Kronrod
# weights in the same order, and the 10-point Gauss weights of the odd
# abscissae 2, 4, ..., 10.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_EPSABS = 1e-13
_EPSREL = 1e-11
_LIMIT = 400


def _qk21(f, a, b):
    """(result, abserr, resabs, resasc) of f on [a, b], as QUADPACK's dqk21.

    f is evaluated once, on all 21 nodes as one numpy array; the sums are
    then formed one term at a time in dqk21's order, so every value keeps
    its bits.
    """
    import numpy as np

    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = [hlgth * x for x in _XGK]
    nodes = [centr - x for x in absc] + [centr + x for x in absc] + [centr]
    fv = f(np.array(nodes)).tolist()
    fv1, fv2, fc = fv[:10], fv[10:20], fv[20]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):
        fsum = fv1[j] + fv2[j]
        resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    for j in (0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * abs(hlgth)
    resasc = resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _quad(f, lo, hi):
    """(integral, error estimate) of f over [lo, hi], as QUADPACK's QAGS.

    This is scipy's ``quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11,
    limit=400)`` in the same arithmetic, for ``f`` mapping an array of
    abscissae to an array of values.  QUADPACK's order is kept on purpose:
    outside a d = 3 cloud the potential is the rounding residue of
    (1 - 4 pi E) / s, so any other rule would move its printed digits, and
    the recorded d = 3 potential rows pin them.  Until a cancellation-free
    potential frees the rule, this port is what keeps scipy out of the
    package, which imports none.

    The first 21-point Gauss-Kronrod value is returned when it passes
    dqagse's first-interval test.  Otherwise the interval with the largest
    error is bisected, its larger-error half taking its slot in the list and
    the other appended, until the summed error is within max(epsabs,
    epsrel |area|) or there are ``_LIMIT`` intervals; the value is then the
    sum of the list in slot order.  QAGS's epsilon extrapolation is left
    out: where QAGS would extrapolate (once the interval to bisect is at
    most 3/8 of [lo, hi] wide), this routine keeps bisecting, so on
    integrands that reach that point it no longer matches QAGS.  The d = 3
    densities here pass within three intervals.  ``_accept`` decides pass
    or fail against the documented 1e-8.
    """
    result, abserr, resabs, resasc = _qk21(f, lo, hi)
    errbnd = max(_EPSABS, _EPSREL * abs(result))
    if (
        (abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd)
        or (abserr <= errbnd and abserr != resasc)
        or abserr == 0.0
    ):
        return _accept(result, abserr)
    # (a, b, value, error) per interval, in dqagse's slot order
    intervals = [(lo, hi, result, abserr)]
    area, errsum, maxerr = result, abserr, 0
    while True:
        a, b, value, errmax = intervals[maxerr]
        mid = 0.5 * (a + b)
        area1, error1 = _qk21(f, a, mid)[:2]
        area2, error2 = _qk21(f, mid, b)[:2]
        errsum = errsum + (error1 + error2) - errmax
        area = area + (area1 + area2) - value
        halves = [(a, mid, area1, error1), (mid, b, area2, error2)]
        if error2 > error1:  # the larger-error half takes the bisected slot
            halves.reverse()
        intervals[maxerr], appended = halves
        intervals.append(appended)
        if errsum <= max(_EPSABS, _EPSREL * abs(area)) or len(intervals) == _LIMIT:
            break
        maxerr = max(range(len(intervals)), key=lambda i: intervals[i][3])
    total = 0.0
    for interval in intervals:  # left to right, not sum()'s compensated order
        total = total + interval[2]
    return _accept(total, errsum)


# numpy.polynomial.legendre.leggauss(20), bit for bit: the positive nodes
# from the innermost out and their weights; the rule is symmetric
_GL_HALF_NODES = (
    0.07652652113349734,
    0.22778585114164507,
    0.37370608871541955,
    0.5108670019508271,
    0.636053680726515,
    0.7463319064601508,
    0.8391169718222188,
    0.912234428251326,
    0.9639719272779138,
    0.993128599185095,
)
_GL_HALF_WEIGHTS = (
    0.15275338713072628,
    0.14917298647260424,
    0.1420961093183824,
    0.1316886384491769,
    0.1181945319615186,
    0.1019301198172407,
    0.08327674157670471,
    0.06267204833410879,
    0.040601429800386446,
    0.017614007139150893,
)
_GL_NODES = tuple(-x for x in reversed(_GL_HALF_NODES)) + _GL_HALF_NODES
_GL_WEIGHTS = tuple(reversed(_GL_HALF_WEIGHTS)) + _GL_HALF_WEIGHTS
_PANEL_RTOL = 1e-13
_MAX_PANELS = 2000


def _gauss(f, a, b):
    """20-point Gauss-Legendre value of f on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        total += f(mid + half * x) * w
    return half * total


def _panels(f, lo, hi):
    """(integral, error estimate) of f over [lo, hi] by adaptive panels.

    Each panel is integrated whole and as its two halves; the halves' sum is
    its value and the gap between the two its error estimate.  Panels that
    carry at least a quarter of the largest estimate are bisected until the
    summed estimate is within ``_PANEL_RTOL`` of the value, or until there
    are ``_MAX_PANELS`` panels; a result whose estimate then misses the
    documented 1e-8 raises ``QuadratureError``.  ``f`` maps a float to a
    float.  The panels stay in order, each as (a, b, left half, right half)
    beside its value and its estimate.
    """
    panels, values, errors = [], [], []

    def insert(i, a, b, whole):
        mid = 0.5 * (a + b)
        left, right = _gauss(f, a, mid), _gauss(f, mid, b)
        panels.insert(i, (a, b, left, right))
        values.insert(i, left + right)
        errors.insert(i, abs(whole - (left + right)))

    lo, hi = float(lo), float(hi)
    insert(0, lo, hi, _gauss(f, lo, hi))
    while True:
        val, total = sum(values), sum(errors)
        # a NaN estimate ends the loop here and is rejected by _accept
        if not total > _PANEL_RTOL * abs(val) or len(panels) >= _MAX_PANELS:
            return _accept(val, total)
        cut = 0.25 * max(errors)
        for i in reversed([i for i, err in enumerate(errors) if err >= cut]):
            a, b, left, right = panels.pop(i)
            del values[i], errors[i]
            mid = 0.5 * (a + b)
            insert(i, mid, b, right)
            insert(i, a, mid, left)


def _cloud(atom, r_par, perp, support):
    """(cloud potential, error estimate) of a d = 1 or d = 2 density.

    The shells u = r_par + t are integrated over t, so that abscissae next
    to the foot t = 0, where the kernel peaks at about 1 / perp, stay exact;
    the foot is an edge, and each interval has its own ``_panels`` budget.
    """
    d = atom.dim
    if d == 1 and perp < sys.float_info.min and r_par <= support:
        # the 1/|x - r_par| singularity sits on the charged line (at its
        # end too: the density does not vanish there); at a subnormal perp
        # the kernel's peak 1 / perp overflows
        raise DivergentPotentialError(
            f"d=1 cloud potential diverges logarithmically on the axis "
            f"inside the cloud (|x| < {support:.6g})"
        )
    area = _sphere_area(d)

    def integrand(t):
        u = r_par + t
        shells = area * atom.radial_density(u) * u ** (d - 1)
        return shells * _shell_kernel(d, t, r_par, perp)

    lo, hi = -r_par, support - r_par
    edges = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
    parts = [_panels(integrand, a, b) for a, b in zip(edges[:-1], edges[1:])]
    return sum(val for val, _ in parts), sum(err for _, err in parts)


def _cloud_3d(atom, s, support):
    """(cloud potential, error estimate) of a d = 3 density at radius s.

    The shells inside s act as their charge E at the nucleus, E / s, and
    those outside as 4 pi int rho u du.  Both integrals go through
    ``_quad``, whose QUADPACK order keeps the printed digits of the exterior
    value, the rounding residue of (1 - 4 pi E) / s.
    """

    def shell_inner(u):
        return atom.radial_density(u) * u**2

    def shell_outer(u):
        return atom.radial_density(u) * u

    inner_top = min(s, support)
    enclosed, enclosed_err = (
        _quad(shell_inner, 0.0, inner_top) if inner_top > 0 else (0.0, 0.0)
    )
    outer, outer_err = _quad(shell_outer, s, support) if s < support else (0.0, 0.0)
    cloud = 4.0 * math.pi * (enclosed / s + outer)
    return cloud, 4.0 * math.pi * (enclosed_err / s + outer_err)


def _elliptic_k(kp):
    """Complete elliptic integral K as a function of k' = sqrt(1 - m) >= 0.

    K = pi / (2 AGM(1, k')), and inf at k' = 0.  Taking k' itself, rather
    than 1 - m formed from m, keeps K accurate next to its logarithmic
    singularity at k' = 0, where 1 - m has lost its digits to cancellation.
    """
    if kp == 0.0:
        return math.inf
    a, b = 1.0, kp
    # AM >= GM, and the gap closes quadratically
    while a - b > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * math.pi / a


def _shell_kernel(dim, t, r_par, perp):
    """Potential of unit charge spread evenly over a shell in d = 1 or 2.

    The shell has radius u = r_par + t; the field point lies r_par from the
    nucleus in the confined subspace and perp out of it, so the near and far
    sides of the shell lie at hypot(t, perp) and hypot(2 r_par + t, perp).
    d = 1: two half charges.  d = 2: a ring, 2 K / (pi far) with
    complementary modulus k' = near / far.  On the charge (near = 0) the
    kernel is inf, and next to it it overflows to inf.
    """
    near = math.hypot(t, perp)
    far = math.hypot(2.0 * r_par + t, perp)
    if near == 0.0:
        return math.inf
    if dim == 1:
        return 0.5 / near + 0.5 / far
    return 2.0 * _elliptic_k(near / far) / (math.pi * far)
