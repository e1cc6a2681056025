"""Ground-state energy corrections from the two-atom coupling.

First order is computed two independent ways: as the ground-state expectation
of the expanded coupling (exact monomial coefficients times factorized atom
moments) and in closed form,

    r5 = 3 (3-d)(5-d) k a^4 / (4 R^5)
    r7 = 5 (3-d)(5-d)(7-d) alpha k a^6 / (8 R^7),

plus a third route that convolves the atom's multipole potential with the
partner's charge cloud.  Both first-order terms are repulsive for d < 3 and
vanish identically in d = 3, where the exterior potential of a spherical
cloud is zero.

Second order is evaluated for Drude atoms by an explicit sum over product
oscillator states, whose enumeration, order, levels and amplitudes <n|T|0>
live in ``atoms._ProductStates``.  By default the sum runs to the series'
exact reach, N - 2 quanta per atom for an order-N expansion; the
dipole-dipole term reaches single excitations only and reproduces
-(3+d) k^2 a^4 / (2 hbar omega R^6).
Opposite inversion parity of the even- and odd-degree coupling terms kills
the R^-7 cross contribution exactly.

The expectation, potential and sum-over-states routes work with
k = hbar = 1.  The closed forms, ``DrudePreset`` and the curve rows keep k,
because presets vary it; they live in the numpy-free ``drude_exact`` and are
re-exported here.
"""

import numpy as np

from . import kernels
from .atoms import AtomKindError, DrudeAtom, _ProductStates
from .drude_exact import (  # noqa: F401  (re-exported; their home is drude_exact)
    DrudePreset,
    EnergyBreakdown,
    dominance_crossover,
    first_order_closed_form,
    second_order_drude_closed_form,
    total_energy_curve,
)
from .drude_exact import _check_separation, _integer, _power, _term
from .potential import even_moments, multipole_coefficients


def _check_dims(series, *atoms):
    if any(atom.dim != series.dim for atom in atoms):
        raise ValueError("atom dimension does not match series dimension")


def first_order_expectation(series, atom_a, atom_b, R):
    """Per-power first-order corrections  R^-n sum_m c_m <A_m> <B_m>, units of k.

    The moments of the distinct rows of the cached ``kernels.series_form``
    are each taken once (atom B reuses atom A's when they are one object
    with the same rows, as for every expansion), and c_m <A_m> <B_m> is
    summed power by power in monomial order, the plain per-monomial sum.
    A form's rows are checked when it is built, so they go to ``_moment``
    unchecked, as plain ints (numpy int64 exponents would change a ** E).
    Returns a dict mapping each inverse power in the series to its energy
    contribution; odd-degree factors make n = 3, 4 and 6 vanish identically.
    As in ``drude_exact``, an R^n past float64 makes its term 0.0 or -0.0,
    and a term that is not finite raises ``SeparationRangeError``.
    """
    _check_separation(R)
    _check_dims(series, atom_a, atom_b)
    form = kernels.series_form(series)
    rows_a, rows_b = (r[:, : series.dim].tolist() for r in (form.rows_a, form.rows_b))
    m_a = np.array([atom_a._moment(row) for row in rows_a])
    if atom_b is atom_a and rows_b == rows_a:
        m_b = m_a
    else:
        m_b = np.array([atom_b._moment(row) for row in rows_b])
    terms = form.coeffs * m_a[form.idx_a] * m_b[form.idx_b]
    totals = np.bincount(form.power_idx, terms).tolist()
    by_power = dict(zip(form.distinct_powers, totals))
    return {
        power: _term(by_power.get(power, 0.0), _power(R, power), R, "series")
        for power in series.terms
    }


def first_order_via_potential(atom_a, atom_b, R):
    """(r5, r7) from the electrostatic-potential route, in units of k.

    Atom A enters through its multipole coefficients (c3, c5); the expectation
    over atom B's cloud of the shifted potential is expanded to matching order
    with raw moments.  Independent algebra from the series route; for numeric
    densities the agreement is quadrature limited.  R's range is handled as
    in ``first_order_expectation``.
    """
    _check_separation(R)
    if atom_a.dim != atom_b.dim:
        raise ValueError("atoms must share a dimension")
    c3, c5 = multipole_coefficients(atom_a)
    m2x, r2, m4x, x2r2, r4 = even_moments(atom_b)
    r5 = _term(-c3 * (7.5 * m2x - 1.5 * r2), _power(R, 5), R, "potential")
    r7 = _term(
        -c3 * (315.0 / 8.0 * m4x - 105.0 / 4.0 * x2r2 + 15.0 / 8.0 * r4)
        - c5 * (17.5 * m2x - 2.5 * r2),
        _power(R, 7),
        R,
        "potential",
    )
    return r5, r7


def _check_states(series, atom_a, atom_b, cutoff):
    """``cutoff``, None or an int of at least 1, for Drude atoms of the series dim."""
    if not all(isinstance(atom, DrudeAtom) for atom in (atom_a, atom_b)):
        raise AtomKindError("sum over states requires Drude atoms")
    _check_dims(series, atom_a, atom_b)
    return None if cutoff is None else _integer("cutoff", cutoff, 1)


def _sum_over_states(form, atom_a, atom_b, cutoff, *weightings):
    """-sum_{n != 0} <0|T_L|n><n|T_R|0> / (E_n - E_0) over product states.

    Each weighting of ``form.distinct_powers`` gives one operator
    sum_p w_p T_p, T_L the first and T_R the last.  The states, their
    levels E_n - E_0 and the amplitudes <n|T|0> are ``atoms._ProductStates``'
    with the ground state as the only ket, whose S x S table ravels into
    the levels' pair order.  A ``cutoff`` of None is the exact reach:
    x^e |0> has at most |e| quanta, so no state beyond the largest row
    degree of the monomials a weighting touches contributes.
    """
    if cutoff is None:
        live = np.any([np.asarray(w)[form.power_idx] != 0 for w in weightings], 0)
        deg = np.maximum(form.rows_a.sum(1)[form.idx_a], form.rows_b.sum(1)[form.idx_b])
        cutoff = int(deg[live].max(initial=1))
    pairs = _ProductStates(atom_a, atom_b, cutoff)
    amps = pairs.coupling(form, weightings, pairs.states[:1])
    prod, levels = (amps[0] * amps[-1]).ravel(), pairs.levels
    prod[0], levels[0] = 0.0, 1.0
    return float(-np.sum(prod / levels))


def second_order_sum(series, atom_a, atom_b, R, cutoff=None):
    """-sum_{n != 0} |<n|H_I|0>|^2 / (E_n - E_0) over product oscillator states.

    In units with k = hbar = 1.  ``series`` supplies the coupling
    polynomials.  By default every state the series reaches is summed, up
    to N - 2 quanta per atom for an order-N expansion, so the sum is exact;
    an integer ``cutoff`` of at least 1 truncates it to that many.
    """
    _check_separation(R)
    cutoff = _check_states(series, atom_a, atom_b, cutoff)
    form = kernels.series_form(series)
    return _sum_over_states(form, atom_a, atom_b, cutoff, form.inverse_powers(R))


def parity_cross_term(series, atom_a, atom_b, cutoff=None, powers=(3, 4)):
    """Second-order cross contribution of two coupling orders at R = 1.

    Evaluates -sum_{n != 0} <0|T_p|n><n|T_q|0> / (E_n - E_0) with k = hbar = 1;
    at separation R it scales by R^-(p+q).  For (p, q) = (3, 4) the two
    operators have opposite inversion parity and every summand vanishes; with
    p = q the dipole-dipole second-order value at R = 1 is recovered
    (diagnostic mode).  Only T_p and T_q are contracted.  By default the sum
    runs to the largest row degree of their monomials, where it is exact;
    an integer ``cutoff`` of at least 1 truncates it.
    """
    cutoff = _check_states(series, atom_a, atom_b, cutoff)
    p, q = powers
    if p not in series.terms or q not in series.terms:
        raise ValueError(f"series lacks requested powers {powers}")
    form = kernels.series_form(series)
    unit = {m: [float(n == m) for n in form.distinct_powers] for m in (p, q)}
    return _sum_over_states(form, atom_a, atom_b, cutoff, *unit.values())
