"""Exact two-atom Coulomb coupling and its inverse-separation expansion.

Two neutral atoms sit a distance R apart along the x-axis.  With electron
displacements ``r_a`` and ``r_b`` confined to the first ``dim`` coordinates,
the interaction energy, in units of the Coulomb constant k, is the four-site
combination

    1/R + 1/|R x - r_a + r_b| - 1/|R x - r_a| - 1/|R x + r_b|.

Only the mixed kernel is expanded.  With t = r_a - r_b, the Legendre
generating function (Jackson, *Classical Electrodynamics*, sec. 3.3) gives

    1/|R x - t| = sum_n R^-(n+1) sum_k c_{n,k} t_x^(n-2k) |t|^(2k),
    c_{n,k} = (-1)^k (2n-2k)! / (2^n k! (n-k)! (n-2k)!),

with every coefficient an exact rational.  Collecting the k sum at fixed
transverse degree gives each coefficient in closed form (``_legendre_weight``),
and a binomial split of t = r_a - r_b hands it to the two atoms.

The single-atom kernels are the mixed kernel at r_b = 0 and at r_a = 0, so
they remove exactly its monomials of degree zero in one atom; the 1/R they
subtract twice is restored by the nucleus-nucleus term.  What survives
starts at 1/R^3, the order-n polynomial is homogeneous of degree n - 1 in
the coordinates, and every monomial couples both atoms.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from . import kernels

MAX_EXPANSION_POWER = 12


class SingularConfigurationError(ValueError):
    """A kernel denominator fell below 1e-12 of the separation."""


class ExpansionCapError(ValueError):
    """Requested expansion order exceeds MAX_EXPANSION_POWER."""


@dataclass(frozen=True)
class Monomial:
    """One exact-coefficient monomial  coeff * prod r_a^exp_a * prod r_b^exp_b."""

    coeff: Fraction
    exp_a: tuple
    exp_b: tuple


@dataclass(frozen=True)
class InteractionSeries:
    """Expansion of the coupling in powers of 1/R, along the x-axis.

    ``terms`` maps the inverse power n (>= 3) to a tuple of monomials, each
    homogeneous of total degree n - 1 with degree >= 1 on each atom.
    """

    dim: int
    max_power: int
    terms: dict

    def coefficient(self, power, exp_a, exp_b) -> Fraction:
        """Exact coefficient of a given monomial, zero if absent."""
        for mono in self.terms.get(power, ()):
            if mono.exp_a == tuple(exp_a) and mono.exp_b == tuple(exp_b):
                return mono.coeff
        return Fraction(0)

    def monomial_count(self) -> int:
        return sum(len(v) for v in self.terms.values())

    def to_dict(self) -> dict:
        rows = []
        for power in sorted(self.terms):
            for mono in self.terms[power]:
                rows.append(
                    {
                        "power": power,
                        "coeff_num": mono.coeff.numerator,
                        "coeff_den": mono.coeff.denominator,
                        "expA": list(mono.exp_a),
                        "expB": list(mono.exp_b),
                    }
                )
        return {"dim": self.dim, "max_power": self.max_power, "terms": rows}

    @classmethod
    def from_dict(cls, data) -> "InteractionSeries":
        terms = {}
        for row in data["terms"]:
            mono = Monomial(
                Fraction(int(row["coeff_num"]), int(row["coeff_den"])),
                tuple(int(e) for e in row["expA"]),
                tuple(int(e) for e in row["expB"]),
            )
            terms.setdefault(int(row["power"]), []).append(mono)
        ordered = {
            n: tuple(sorted(monos, key=lambda m: (m.exp_a, m.exp_b)))
            for n, monos in sorted(terms.items())
        }
        return cls(int(data["dim"]), int(data["max_power"]), ordered)


def exact_interaction(R, r_a, r_b):
    """Four-site Coulomb coupling in units of k, evaluated without expansion.

    ``r_a`` and ``r_b`` are length-d sequences (d <= 3), zero-padded into 3D
    because the Coulomb field always lives in three dimensions.  Raises
    ``SingularConfigurationError`` when any denominator drops below 1e-12 R;
    the model assumes non-overlapping atoms anyway.
    """
    if R <= 0:
        raise ValueError("separation must be positive")
    eps = 1e-12 * R
    a = _pad3(r_a)
    b = _pad3(r_b)
    d_ab = np.linalg.norm(np.array([R, 0.0, 0.0]) - a + b)
    d_a = np.linalg.norm(np.array([R, 0.0, 0.0]) - a)
    d_b = np.linalg.norm(np.array([R, 0.0, 0.0]) + b)
    if min(R, d_ab, d_a, d_b) < eps:
        raise SingularConfigurationError(
            f"kernel denominator below epsilon {eps:g}"
        )
    return 1.0 / R + 1.0 / d_ab - 1.0 / d_a - 1.0 / d_b


def expand_interaction(dim, max_power) -> InteractionSeries:
    """Expand the coupling through order 1/R**max_power with exact rationals."""
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    if max_power < 3:
        raise ValueError("max_power must be at least 3")
    if max_power > MAX_EXPANSION_POWER:
        raise ExpansionCapError(
            f"max_power {max_power} exceeds cap {MAX_EXPANSION_POWER}"
        )

    terms = {}
    for n in range(2, max_power):
        monos = []
        for axis_exp in _axis_exponents(dim, n):
            weight = _legendre_weight(n, axis_exp)
            # binomial split of each (t_i)^m = (a_i - b_i)^m between the atoms
            for exp_a in itertools.product(*(range(m + 1) for m in axis_exp)):
                exp_b = tuple(m - e for m, e in zip(axis_exp, exp_a))
                if sum(exp_a) == 0 or sum(exp_b) == 0:
                    continue  # cancelled by a single-atom kernel
                split = prod(map(comb, axis_exp, exp_a))
                coeff = weight * (-1) ** sum(exp_b) * split
                monos.append(Monomial(coeff, exp_a, exp_b))
        terms[n + 1] = tuple(sorted(monos, key=lambda m: (m.exp_a, m.exp_b)))
    return InteractionSeries(dim, max_power, terms)


def evaluate_series(series, R, r_a, r_b):
    """Value of the truncated series at one configuration, in units of k."""
    total = 0.0
    for power, monos in series.terms.items():
        s = 0.0
        for mono in monos:
            v = float(mono.coeff)
            for c, e in enumerate(mono.exp_a):
                v *= r_a[c] ** e
            for c, e in enumerate(mono.exp_b):
                v *= r_b[c] ** e
            s += v
        total += s / R**power
    return total


def series_arrays(series):
    """Flat float/int arrays of the series monomials for the batch kernels."""
    monos = [(p, m) for p in sorted(series.terms) for m in series.terms[p]]
    powers = np.array([p for p, _ in monos], dtype=np.int64)
    coeffs = np.array([float(m.coeff) for _, m in monos])
    exp_a = np.zeros((len(monos), 3), dtype=np.int64)
    exp_b = np.zeros((len(monos), 3), dtype=np.int64)
    exp_a[:, : series.dim] = np.reshape([m.exp_a for _, m in monos], (-1, series.dim))
    exp_b[:, : series.dim] = np.reshape([m.exp_b for _, m in monos], (-1, series.dim))
    return powers, coeffs, exp_a, exp_b


@dataclass(frozen=True)
class TruncationReport:
    """Per-radius truncation residuals of a series against the exact kernel."""

    r_values: np.ndarray
    max_residual: np.ndarray
    rms_residual: np.ndarray
    fitted_exponent: float
    sample_count: int
    radius: float


def truncation_residual(series, r_values, sample_count, radius, seed=0):
    """Compare the truncated series against the exact kernel on random clouds.

    Draws ``sample_count`` configurations uniformly in the d-ball of the given
    radius for every separation in ``r_values`` and reports max/RMS residuals
    together with the decay exponent fitted on log-log axes.  The residual of
    an order-N series decays at least as fast as R**-(N+1).
    """
    r_values = np.asarray(r_values, dtype=float)
    rng = np.random.default_rng(seed)
    pts_a = _ball_samples(rng, series.dim, sample_count, radius)
    pts_b = _ball_samples(rng, series.dim, sample_count, radius)
    powers, coeffs, exp_a, exp_b = series_arrays(series)

    max_res = np.empty_like(r_values)
    rms_res = np.empty_like(r_values)
    for i, R in enumerate(r_values):
        exact = kernels.four_site_batch(R, pts_a, pts_b)
        approx = kernels.series_batch(
            powers, coeffs, exp_a, exp_b, R, pts_a, pts_b
        )
        diff = np.abs(exact - approx)
        max_res[i] = diff.max() if diff.size else 0.0
        rms_res[i] = np.sqrt(np.mean(diff**2)) if diff.size else 0.0

    if np.all(max_res > 0) and len(r_values) >= 2:
        slope = np.polyfit(np.log(r_values), np.log(max_res), 1)[0]
        exponent = -slope
    else:
        exponent = float("nan")
    return TruncationReport(
        r_values, max_res, rms_res, exponent, sample_count, radius
    )


def _pad3(r):
    out = np.zeros(3)
    r = np.asarray(r, dtype=float)
    out[: r.size] = r
    return out


def _axis_exponents(dim, n):
    """Exponents of t_x, t_y, t_z in the order-n polynomial; t_y, t_z even."""
    for half in itertools.product(range(n // 2 + 1), repeat=dim - 1):
        if 2 * sum(half) <= n:
            yield (n - 2 * sum(half),) + tuple(2 * h for h in half)


def _legendre_weight(n, axis_exp):
    """Coefficient of prod_i t_i^axis_exp[i] in |t|^n P_n(t_x / |t|).

    Summing c_{n,k} t_x^(n-2k) |t|^(2k) over k at fixed transverse degree 2h
    gives sum_h (-1)^h n! / (4^h (h!)^2 (n-2h)!) t_x^(n-2h) rho^(2h), with
    rho^2 = t_y^2 + t_z^2; the multinomial theorem then splits rho^(2h).
    """
    half = [m // 2 for m in axis_exp[1:]]
    h = sum(half)
    return Fraction(
        (-1) ** h * factorial(n),
        4**h * factorial(h) * factorial(n - 2 * h) * prod(map(factorial, half)),
    )


def _ball_samples(rng, dim, count, radius):
    """Uniform samples in the d-ball of the given radius, zero-padded to 3D."""
    pts = np.zeros((count, 3))
    if radius > 0 and count > 0:
        g = rng.standard_normal((count, dim))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        u = rng.random((count, 1)) ** (1.0 / dim)
        pts[:, :dim] = radius * u * g / norms
    return pts
