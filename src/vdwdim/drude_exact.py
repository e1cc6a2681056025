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
"""

import math
from dataclasses import dataclass

import numpy as np


class InstabilityError(ValueError):
    """The dipole-truncated pair has no stable ground state at this R."""


@dataclass(frozen=True)
class NormalModeSet:
    """Shifted normal-mode frequencies, keyed by the integer shift n."""

    frequencies: dict
    multiplicities: dict
    valid: bool


def _coupling_ratio(omega, k, mass, R):
    """x = k / (m omega^2 R^3); the pair is stable iff 2x < 1."""
    if omega <= 0 or mass <= 0 or R <= 0:
        raise ValueError("omega, mass, R must be positive")
    return k / (mass * omega**2 * R**3)


def shifted_frequencies(dim, omega, k, mass, R):
    """Normal-mode frequencies of the dipole-coupled pair at separation R."""
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
    x = _coupling_ratio(omega, k, mass, R)
    if not 2.0 * x < 1.0:
        raise InstabilityError(
            f"soft mode at R = {R:g}: need R^3 > 2k/(m omega^2)"
        )
    return 0.5 * omega * (_pair_shift(2.0 * x) + (dim - 1) * _pair_shift(x))


def second_order_drude_closed_form(dim, a, k, hbar_omega, R):
    """-(3+d) k^2 a^4 / (2 hbar omega R^6), the leading term of the correction."""
    if hbar_omega <= 0:
        raise ValueError("hbar_omega must be positive")
    return -(3 + dim) * k**2 * a**4 / (2.0 * hbar_omega * R**6)


@dataclass(frozen=True)
class ResidualReport:
    r_tilde: np.ndarray
    residual: np.ndarray
    slope: float


def series_residual(dim, preset, r_tilde_values):
    """Log-log decay of |exact - leading R^-6 term| over a grid of R/a.

    The fitted slope should be about -12; it certifies that no odd
    (R^-9-type) term survives in the expansion of the exact correction.
    """
    r_tilde = np.asarray(r_tilde_values, dtype=float)
    a, k = preset.a, preset.k
    res = np.empty_like(r_tilde)
    for i, rt in enumerate(r_tilde):
        R = rt * a
        exact = exact_correction(dim, preset.omega, k, preset.mass, R)
        leading = second_order_drude_closed_form(dim, a, k, preset.hbar_omega, R)
        res[i] = abs(exact - leading)
    if np.all(res > 0) and r_tilde.size >= 2:
        slope = float(np.polyfit(np.log(r_tilde), np.log(res), 1)[0])
    else:
        slope = float("nan")
    return ResidualReport(r_tilde, res, slope)
