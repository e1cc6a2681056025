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
oscillator states with ladder-operator matrix elements; the dipole-dipole
term connects the ground state only to single-excitation pairs, so the sum
saturates at cutoff 1 and reproduces -(3+d) k^2 a^4 / (2 hbar omega R^6).
Opposite inversion parity of the even- and odd-degree coupling terms kills
the R^-7 cross contribution exactly.

The expectation, potential and sum-over-states routes work with
k = hbar = 1.  The closed forms, ``DrudePreset`` and the curve rows keep k,
because presets vary it; they live in the numpy-free ``drude_exact`` and are
re-exported here.
"""

import math

import numpy as np

from . import kernels
from .atoms import AtomKindError, DrudeAtom, _multi_indices
from .drude_exact import (  # noqa: F401  (re-exported; their home is drude_exact)
    DrudePreset,
    EnergyBreakdown,
    dominance_crossover,
    first_order_closed_form,
    second_order_drude_closed_form,
    total_energy_curve,
)
from .multipole import _check_separation
from .potential import even_moments, multipole_coefficients


def first_order_expectation(series, atom_a, atom_b, R):
    """Per-power first-order corrections  R^-n m_A^T C_n m_B, in units of k.

    C_n holds the unscaled coefficients of the order-n polynomial between the
    distinct exponent rows of the two atoms (``SeriesForm.per_power`` of the
    cached ``kernels.series_form``) and m_A, m_B the moments of those rows,
    each taken once; when the two atoms are one object and their rows
    coincide, as they do for every expansion, m_B is m_A.  Returns a dict
    mapping each inverse power in the series to its energy contribution.
    Odd-degree factors make the n = 3, 4 and 6 entries vanish identically.
    """
    _check_separation(R)
    if atom_a.dim != series.dim or atom_b.dim != series.dim:
        raise ValueError("atom dimension does not match series dimension")
    form = kernels.series_form(series)
    m_a = np.array([atom_a.moment(row[: series.dim]) for row in form.rows_a])
    if atom_b is atom_a and np.array_equal(form.rows_b, form.rows_a):
        m_b = m_a
    else:
        m_b = np.array(
            [atom_b.moment(row[: series.dim]) for row in form.rows_b]
        )
    totals = {power: float(m_a @ c @ m_b) for power, c in form.per_power()}
    return {power: totals.get(power, 0.0) / R**power for power in series.terms}


def first_order_via_potential(atom_a, atom_b, R):
    """(r5, r7) from the electrostatic-potential route, in units of k.

    Atom A enters through its multipole coefficients (c3, c5); the expectation
    over atom B's cloud of the shifted potential is expanded to matching order
    with raw moments.  Independent algebra from the series route; for numeric
    densities the agreement is quadrature limited.
    """
    _check_separation(R)
    if atom_a.dim != atom_b.dim:
        raise ValueError("atoms must share a dimension")
    c3, c5 = multipole_coefficients(atom_a)
    m2x, r2, m4x, x2r2, r4 = even_moments(atom_b)
    r5 = -c3 * (7.5 * m2x - 1.5 * r2) / R**5
    r7 = (
        -c3 * (315.0 / 8.0 * m4x - 105.0 / 4.0 * x2r2 + 15.0 / 8.0 * r4)
        - c5 * (17.5 * m2x - 2.5 * r2)
    ) / R**7
    return r5, r7


def _x_column_elements(atom, max_power, cutoff):
    """<n|x^p|0> for p <= max_power, n <= cutoff, one oscillator coordinate."""
    size = cutoff + max_power + 2
    x = np.zeros((size, size))
    for n in range(size - 1):
        x[n, n + 1] = x[n + 1, n] = atom.a * math.sqrt(n + 1)
    cols = [np.zeros(size)]
    cols[0][0] = 1.0
    for _ in range(max_power):
        cols.append(x @ cols[-1])
    return np.array(cols)[:, : cutoff + 1]


def _series_amplitudes(series, atom_a, atom_b, cutoff):
    """Per-power transition amplitudes <n_a n_b|T_p|0 0> over product states.

    Power p gives F_A C_p F_B^T, with F[s, row] = prod_c <n_c|x^e_c|0>.
    """
    form = kernels.series_form(series)
    states = np.array(_multi_indices(series.dim, cutoff), dtype=np.int64)
    f_a = _state_factors(atom_a, form.rows_a, states)
    f_b = _state_factors(atom_b, form.rows_b, states)
    amps = {power: f_a @ c @ f_b.T for power, c in form.per_power()}
    zero = np.zeros((states.shape[0], states.shape[0]))
    return states, {power: amps.get(power, zero) for power in series.terms}


def _state_factors(atom, rows, states):
    cols = _x_column_elements(atom, int(rows.max(initial=0)), int(states.max()))
    f = np.ones((states.shape[0], rows.shape[0]))
    for c in range(states.shape[1]):
        f *= cols[rows[:, c]][:, states[:, c]].T
    return f


def _excitation_energies(states, atom_a, atom_b):
    quanta = states.sum(axis=1).astype(float)
    return (
        atom_a.hbar_omega * quanta[:, None] + atom_b.hbar_omega * quanta[None, :]
    )


def _require_drude(*atoms):
    for atom in atoms:
        if not isinstance(atom, DrudeAtom):
            raise AtomKindError("sum over states requires Drude atoms")


def second_order_sum(series, atom_a, atom_b, R, cutoff=1):
    """-sum_{n != 0} |<n|H_I|0>|^2 / (E_n - E_0) over product oscillator states.

    In units with k = hbar = 1.  ``series`` supplies the coupling polynomials
    (normally just the n = 3 dipole-dipole term, for which cutoff 1 is
    already exact).
    """
    _check_separation(R)
    _require_drude(atom_a, atom_b)
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    states, amps = _series_amplitudes(series, atom_a, atom_b, cutoff)
    coupling = np.zeros((states.shape[0], states.shape[0]))
    for power, amp in amps.items():
        coupling += R ** (-float(power)) * amp
    energies = _excitation_energies(states, atom_a, atom_b)
    coupling[0, 0] = 0.0
    energies[0, 0] = 1.0
    return float(-np.sum(coupling**2 / energies))


def parity_cross_term(series, atom_a, atom_b, cutoff=8, powers=(3, 4)):
    """Second-order cross contribution of two coupling orders at R = 1.

    Evaluates -sum_{n != 0} <0|T_p|n><n|T_q|0> / (E_n - E_0) with k = hbar = 1;
    at separation R it scales by R^-(p+q).  For (p, q) = (3, 4) the two
    operators have opposite inversion parity and every summand vanishes; with
    p = q the dipole-dipole second-order value at R = 1 is recovered
    (diagnostic mode).
    """
    _require_drude(atom_a, atom_b)
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    p, q = powers
    if p not in series.terms or q not in series.terms:
        raise ValueError(f"series lacks requested powers {powers}")
    states, amps = _series_amplitudes(series, atom_a, atom_b, cutoff)
    energies = _excitation_energies(states, atom_a, atom_b)
    prod = amps[p] * amps[q]
    prod[0, 0] = 0.0
    energies[0, 0] = 1.0
    return float(-np.sum(prod / energies))
