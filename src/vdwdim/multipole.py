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

Each order's monomials depend only on (dim, n), so ``expand_interaction``
builds each once per process (``_order_terms``) and keeps it in ``_ORDERS``:
at most 3 x 10 tuples, dim 1-3 and n 2-11, about 2.2 MB of Fractions when
all are built.  Every call returns a fresh ``terms`` dict over those shared
tuples, so a caller that mutates the dict it gets back leaves the next call
unchanged; the tuples and their frozen monomials cannot be mutated.  As the
tuples are shared, ``_expansion_order`` recognises the expansion through
1/R^N by identity alone, with no Fraction hashed or compared, and
``kernels`` keeps one float form per (dim, N) on that test.

This module holds only the exact-rational algebra and the separation check
that every entry point taking R shares (``_check_separation``).  It imports
no numpy, so ``vdw expand`` never loads it.  The float evaluation of the
unexpanded kernel (``exact_interaction``), the flat arrays the batch kernels
take (``series_arrays``) and the truncation residual live in ``kernels``.
"""

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isfinite, prod

MAX_EXPANSION_POWER = 12

# Float-side names that live in ``kernels`` and resolve here too, where the
# tests and perfbench look them up.
_IN_KERNELS = frozenset(
    ("TruncationReport", "exact_interaction", "series_arrays", "truncation_residual")
)


def __getattr__(name):
    if name in _IN_KERNELS:
        from . import kernels

        return getattr(kernels, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SingularConfigurationError(ValueError):
    """A kernel denominator fell below 1e-12 of the separation."""


class ExpansionCapError(ValueError):
    """Requested expansion order exceeds MAX_EXPANSION_POWER."""


def _check_separation(R):
    """Reject a separation that is not finite and positive, with a ValueError."""
    if not (isfinite(R) and R > 0):
        raise ValueError(f"separation R must be finite and positive, got {R!r}")


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


def _integer(name, value):
    """``value`` as a plain int; a bool or a non-integral value is a ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


# (dim, n) -> the monomial tuple of the 1/R**(n + 1) term, built once.
_ORDERS = {}


def expand_interaction(dim, max_power) -> InteractionSeries:
    """Expand the coupling through order 1/R**max_power with exact rationals.

    ``dim`` and ``max_power`` must be integers (a bool is not one); numpy
    integers are taken as plain ints.  Every order is built once per process
    (``_ORDERS``) and each call returns a fresh ``terms`` dict.
    """
    dim = _integer("dim", dim)
    max_power = _integer("max_power", max_power)
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    if max_power < 3:
        raise ValueError("max_power must be at least 3")
    if max_power > MAX_EXPANSION_POWER:
        raise ExpansionCapError(
            f"max_power {max_power} exceeds cap {MAX_EXPANSION_POWER}"
        )
    return InteractionSeries(dim, max_power, _expansion_terms(dim, max_power))


def _expansion_terms(dim, max_power):
    """A fresh ``terms`` dict of the memoized orders 3..max_power (``_ORDERS``)."""
    for n in range(2, max_power):
        if (dim, n) not in _ORDERS:
            _ORDERS[dim, n] = _order_terms(dim, n)
    return {n + 1: _ORDERS[dim, n] for n in range(2, max_power)}


def _expansion_order(series):
    """N if the powers of ``series`` are 3..N, each the very tuple in ``_ORDERS``."""
    powers = sorted(series.terms)
    if not powers or powers != list(range(3, powers[-1] + 1)):
        return None
    kept = all(_ORDERS.get((series.dim, p - 1)) is series.terms[p] for p in powers)
    return powers[-1] if kept else None


def _order_terms(dim, n):
    """Monomials of the 1/R**(n + 1) term, sorted by (exp_a, exp_b)."""
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
    return tuple(sorted(monos, key=lambda m: (m.exp_a, m.exp_b)))


def evaluate_series(series, R, r_a, r_b):
    """Value of the truncated series at one configuration, in units of k."""
    _check_separation(R)
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
