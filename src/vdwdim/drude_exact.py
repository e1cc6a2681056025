"""Exact ground-state energy of the dipole-coupled Drude pair.

Keeping only the leading coupling term -2 x_A x_B + sum_perp y_A y_B (times
k/R^3) leaves the two-atom system harmonic.  In the symmetric/antisymmetric
coordinates (r_A +- r_B)/sqrt(2) it decouples into 2d oscillators with
shifted frequencies

    w_n = omega sqrt(1 + n x),   n in {-2, -1, 0, +1, +2},

with multiplicities {1, d-1, 2d (reference), d-1, 1} and the coupling ratio
x = k / (m omega^2 R^3).  The correction

    (hbar/2) [ w_2 + w_-2 + (d-1)(w_1 + w_-1) - 2d w_0 ]

is a near-cancellation of terms of order hbar omega leaving O(R^-6), so it is
evaluated in a rationalized form accurate to full relative precision; the
pair sums (sqrt(1+u) + sqrt(1-u) - 2) contain only even powers of u, which is
why the expansion has no R^-9 term:

    -(3+d) k^2 a^4 / (2 hbar omega R^6) [1 + 5(d+15) x^2 / (16(d+3)) + O(x^4)],

where the x^4 coefficient inside the bracket is 21(d+63) / (128(d+3)), i.e.
21/8 for d = 1.  The mode with n = -2 softens as the atoms approach; the pair
is stable iff 2x < 1, the package's one stability predicate.  Curve rows
leave ``exact`` empty exactly where ``exact_correction`` raises.

This module is also the home of the closed-form pair the ``curve`` and
``exact`` commands print: the first-order terms r5 and r7, the leading R^-6
term, the ``DrudePreset`` unit system and the curve rows.  It imports no
numpy (``series_residual`` loads it when called) and no ``fractions``, so
those commands never load either.  As the package's leaf it is the one home
of the argument checks every module shares (``_integer``, ``_dimension``,
``_check_terms``, ``_check_separation``), each a ValueError naming the
argument.  The closed forms take R and hbar omega finite and positive, and
a, alpha and k finite and non-negative.  They compute in plain floats with
float64 results: a power of R that overflows counts as inf, so a term far
out is 0.0 or -0.0, and a term that is not a finite number (R^p underflows
as R -> 0) raises ``SeparationRangeError``.  The curve rows, the crossover and
``series_residual`` take them in the preset's own units, a = k = 1, where
only hbar omega a / k is left, so no power of a is formed; a row's
``exact`` makes the stability decision that ``exact_correction`` makes on
the preset's own mass and R (``_curve_exact``).
"""

import math
import operator
from dataclasses import dataclass


def _positive(x):
    """True for a finite positive number (False for NaN and inf)."""
    return math.isfinite(x) and x > 0


def _check_terms(positive, non_negative=None):
    """ValueError naming the first argument not finite and positive/non-negative."""
    for name, x in positive.items():
        if not _positive(x):
            raise ValueError(f"{name} must be finite and positive, got {x!r}")
    for name, x in (non_negative or {}).items():
        if not (math.isfinite(x) and x >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {x!r}")


def _check_separation(R):
    """Reject a separation that is not finite and positive, with a ValueError."""
    _check_terms({"separation R": R})


def _integer(name, value, minimum=None):
    """``value`` as a plain int of at least ``minimum``; a bool is no integer."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is None or value >= minimum:
                return value
            raise ValueError(f"{name} must be at least {minimum}, got {value}")
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _dimension(dim):
    """``dim`` as a plain int in {1, 2, 3}, or a ValueError."""
    dim = _integer("dim", dim)
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
    return dim


class InstabilityError(ValueError):
    """The dipole-truncated pair has no stable ground state at this R."""


class SeparationRangeError(ValueError):
    """A closed-form term is not a finite number at this separation."""


def _power(x, p):
    """x**p for x > 0, or inf where that overflows, as float64 arithmetic has it."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _term(numerator, denominator, R, kind="closed-form"):
    """numerator / denominator, a multiple of a power of R, if that is finite."""
    if denominator != 0:
        value = numerator / denominator
        if math.isfinite(value):
            return value
    raise SeparationRangeError(f"{kind} terms are not finite at R = {R:g}")


@dataclass(frozen=True)
class NormalModeSet:
    """Shifted normal-mode frequencies, keyed by the integer shift n."""

    frequencies: dict
    multiplicities: dict
    valid: bool


def _coupling_ratio(omega, k, mass, R):
    """x = k / (m omega^2 R^3); the pair is stable iff 2x < 1."""
    # k = 0 is the uncoupled pair
    _check_terms({"omega": omega, "mass": mass, "R": R}, {"k": k})
    denominator = mass * _power(omega, 2) * _power(R, 3)
    if denominator == 0:  # R^3 underflows: the coupling is unbounded
        return math.inf if k else 0.0
    return k / denominator


def shifted_frequencies(dim, omega, k, mass, R):
    """Normal-mode frequencies of the dipole-coupled pair at separation R."""
    dim = _dimension(dim)
    x = _coupling_ratio(omega, k, mass, R)
    freqs = {}
    for n in (-2, -1, 0, 1, 2):
        w2 = 1.0 + n * x
        freqs[n] = omega * math.sqrt(w2) if w2 >= 0 else float("nan")
    mult = {-2: 1, -1: dim - 1, 0: 2 * dim, 1: dim - 1, 2: 1}
    return NormalModeSet(freqs, mult, bool(2.0 * x < 1.0))


def _pair_shift(u):
    """sqrt(1+u) + sqrt(1-u) - 2 at full relative precision for small u."""
    w = -u * u / (1.0 + math.sqrt(1.0 - u * u))  # sqrt(1-u^2) - 1
    return w / (1.0 + math.sqrt(1.0 + 0.5 * w))


def exact_correction(dim, omega, k, mass, R):
    """Ground-state energy shift of the dipole-truncated pair.

    Equals (1/2) [w_2 + w_-2 + (d-1)(w_1 + w_-1) - 2d omega] with hbar = 1,
    computed stably; negative for every stable R.
    """
    dim = _dimension(dim)
    x = _coupling_ratio(omega, k, mass, R)
    if not 2.0 * x < 1.0:
        raise InstabilityError(
            f"soft mode at R = {R:g}: need R^3 > 2k/(m omega^2)"
        )
    return 0.5 * omega * (_pair_shift(2.0 * x) + (dim - 1) * _pair_shift(x))


def first_order_closed_form(dim, a, alpha, k, R):
    """(r5, r7) closed-form first-order terms for an isotropic atom pair."""
    dim = _dimension(dim)
    _check_terms({"R": R}, {"a": a, "alpha": alpha, "k": k})
    r5 = _term(
        3.0 * (3 - dim) * (5 - dim) * k * _power(a, 4), 4.0 * _power(R, 5), R
    )
    r7 = _term(
        5.0 * (3 - dim) * (5 - dim) * (7 - dim) * alpha * k * _power(a, 6),
        8.0 * _power(R, 7),
        R,
    )
    return r5, r7


def second_order_drude_closed_form(dim, a, k, hbar_omega, R):
    """-(3+d) k^2 a^4 / (2 hbar omega R^6), the leading term of the correction."""
    dim = _dimension(dim)
    _check_terms({"hbar_omega": hbar_omega, "R": R}, {"a": a, "k": k})
    return _term(
        -(3 + dim) * _power(k, 2) * _power(a, 4),
        2.0 * hbar_omega * _power(R, 6),
        R,
    )


@dataclass(frozen=True)
class DrudePreset:
    """Unit system for Drude-pair curves: lengths in a, energies in k/a."""

    name: str
    a: float
    k: float
    hbar_omega: float

    def __post_init__(self):
        # k = 0 is the uncoupled pair: every correction vanishes
        _check_terms({"a": self.a, "hbar_omega": self.hbar_omega}, {"k": self.k})

    @classmethod
    def bohr(cls):
        """Reduced units with hbar omega = k / (2a), i.e. a Bohr-sized atom."""
        return cls("bohr", a=1.0, k=1.0, hbar_omega=0.5)

    @classmethod
    def custom(cls, hbar_omega, a=1.0, k=1.0):
        return cls("custom", a=a, k=k, hbar_omega=hbar_omega)

    @property
    def omega(self):
        return self.hbar_omega  # hbar = 1

    @property
    def mass(self):
        """1 / (2 a^2 omega); 0.0 where a^2 overflows, inf where 2 a^2 omega is 0."""
        denominator = 2.0 * _power(self.a, 2) * self.omega
        return 1.0 / denominator if denominator else math.inf

    def atom(self, dim):
        from .atoms import DrudeAtom

        return DrudeAtom(dim, omega=self.omega, mass=self.mass)

    def validity_radius(self):
        """R/a = (4 k / (hbar omega a))^(1/3), where 2x = 1; reported, not a gate."""
        return (4.0 * self.k / self.hbar_omega / self.a) ** (1.0 / 3.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Corrections at one separation, in units of k/a.

    Closed forms are authoritative for the per-term columns; the exact column
    is the normal-mode value of the dipole-truncated pair, or None where that
    pair is unstable.  ``exact_valid`` is derived from it.
    """

    r_tilde: float
    dim: int
    first_order_r5: float
    first_order_r7: float
    second_order_r6: float
    total_truncated: float
    exact: float = None

    @property
    def exact_valid(self):
        return self.exact is not None


def _reduced(preset):
    """``preset`` in its own units (R/a, k/a): a = k = 1, hbar omega a / k."""
    hbar_omega = preset.hbar_omega * preset.a / preset.k
    _check_terms({"preset hbar_omega a / k": hbar_omega})
    return DrudePreset(preset.name, a=1.0, k=1.0, hbar_omega=hbar_omega)


def _curve_exact(dim, preset, unit, rt):
    """``exact_correction`` at R = rt a in units of k/a; None where unstable.

    On the preset's own omega, k, mass and R it makes the stability decision
    ``exact_correction`` makes on them; where that route leaves float range
    (a mass, a / k, R or coupling ratio of 0 or inf) it takes ``unit``'s.
    """
    pair = (preset.omega, preset.k, preset.mass, rt * preset.a)
    scale = preset.a / preset.k
    in_range = all(map(_positive, (*pair[2:], scale)))
    if not (in_range and _positive(_coupling_ratio(*pair))):
        pair, scale = (unit.omega, 1.0, unit.mass, rt), 1.0
    try:
        return scale * exact_correction(dim, *pair)
    except InstabilityError:
        return None


def total_energy_curve(dim, r_tilde_values, preset=None):
    """Rows of (r5, r6, r7, total, exact) over R/a, in units of k/a."""
    dim = _dimension(dim)
    if preset is None:
        preset = DrudePreset.bohr()
    if preset.k == 0:
        raise ValueError("energies are in units of k/a: preset k must be positive")
    unit = _reduced(preset)
    rows = []
    for rt in map(float, r_tilde_values):
        r5, r7 = first_order_closed_form(dim, 1.0, 3.0, 1.0, rt)
        r6 = second_order_drude_closed_form(dim, 1.0, 1.0, unit.hbar_omega, rt)
        rows.append(
            EnergyBreakdown(
                r_tilde=rt,
                dim=dim,
                first_order_r5=r5,
                first_order_r7=r7,
                second_order_r6=r6,
                total_truncated=r5 + r6 + r7,
                exact=_curve_exact(dim, preset, unit, rt),
            )
        )
    return rows


def dominance_crossover(dim, preset=None):
    """Reduced separation where the R^-5 term first exceeds |r6| + r7.

    With r5 = A / R^5, r6 = -B / R^6 and r7 = C / R^7 in the preset's own
    units (``_reduced``), multiplying r5 - |r6| - r7 = 0 by R^7 leaves
    A R^2 - B R - C = 0, whose positive root is the crossover in units of a.
    """
    if _dimension(dim) == 3:
        raise ValueError("crossover defined only for d = 1, 2")
    if preset is None:
        preset = DrudePreset.bohr()
    if preset.k == 0:
        raise ValueError("no crossover without coupling: preset k must be positive")
    unit = _reduced(preset)
    A, C = first_order_closed_form(dim, 1.0, 3.0, 1.0, 1.0)
    B = -second_order_drude_closed_form(dim, 1.0, 1.0, unit.hbar_omega, 1.0)
    return (B + math.sqrt(B * B + 4.0 * A * C)) / (2.0 * A)


@dataclass(frozen=True)
class ResidualReport:
    r_tilde: "numpy.ndarray"
    residual: "numpy.ndarray"
    slope: float


def series_residual(dim, preset, r_tilde_values):
    """Log-log decay of |exact - leading R^-6 term| over a grid of R/a.

    The residual is in units of k/a: both terms are taken in the preset's
    own units (``_reduced``), at R/a with a = k = 1, in plain floats, so no
    power of a or k is formed and a preset whose a is far from 1 keeps its
    residual in range.  A preset with k = 0 is the uncoupled pair, whose
    residual is zero at every separation.  The fitted slope should be about
    -12; it certifies that no odd (R^-9-type) term survives in the
    expansion of the exact correction.
    """
    import numpy as np

    dim = _dimension(dim)
    r_tilde = np.asarray(r_tilde_values, dtype=float)
    if preset.k:
        unit = _reduced(preset)
    else:  # the uncoupled pair: both terms vanish whatever hbar omega is
        unit = DrudePreset(preset.name, a=1.0, k=0.0, hbar_omega=1.0)
    res = []
    for rt in map(float, r_tilde):
        exact = exact_correction(dim, unit.omega, unit.k, unit.mass, rt)
        leading = second_order_drude_closed_form(
            dim, 1.0, unit.k, unit.hbar_omega, rt
        )
        res.append(abs(exact - leading))
    res = np.array(res, dtype=float)
    if np.all(res > 0) and r_tilde.size >= 2:
        slope = float(np.polyfit(np.log(r_tilde), np.log(res), 1)[0])
    else:
        slope = float("nan")
    return ResidualReport(r_tilde, res, slope)
