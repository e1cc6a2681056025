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
"""

import math
from dataclasses import dataclass

import numpy as np

from . import drude_exact, kernels
from .atoms import AtomKindError, DrudeAtom, _multi_indices, _positive
from .drude_exact import second_order_drude_closed_form
from .multipole import series_arrays
from .potential import even_moments, multipole_coefficients


def first_order_expectation(series, atom_a, atom_b, R, k=1.0):
    """Per-power first-order corrections  k R^-n m_A^T C_n m_B.

    C_n holds the unscaled coefficients of the order-n polynomial between the
    distinct exponent rows of the two atoms (``kernels._bilinear_form``) and
    m_A, m_B the moments of those rows, each taken once.  Returns a dict
    mapping each inverse power in the series to its energy contribution.
    Odd-degree factors make the n = 3, 4 and 6 entries vanish identically.
    """
    if atom_a.dim != series.dim or atom_b.dim != series.dim:
        raise ValueError("atom dimension does not match series dimension")
    rows_a, rows_b, per_power = kernels._bilinear_form(*series_arrays(series))
    m_a = np.array([atom_a.moment(row[: series.dim]) for row in rows_a])
    m_b = np.array([atom_b.moment(row[: series.dim]) for row in rows_b])
    totals = {power: float(m_a @ c @ m_b) for power, c in per_power}
    return {power: k * totals.get(power, 0.0) / R**power for power in series.terms}


def first_order_closed_form(dim, a, alpha, k, R):
    """(r5, r7) closed-form first-order terms for an isotropic atom pair."""
    r5 = 3.0 * (3 - dim) * (5 - dim) * k * a**4 / (4.0 * R**5)
    r7 = 5.0 * (3 - dim) * (5 - dim) * (7 - dim) * alpha * k * a**6 / (8.0 * R**7)
    return r5, r7


def first_order_via_potential(atom_a, atom_b, R, k=1.0):
    """(r5, r7) from the electrostatic-potential route.

    Atom A enters through its multipole coefficients (c3, c5); the expectation
    over atom B's cloud of the shifted potential is expanded to matching order
    with raw moments.  Independent algebra from the series route; for numeric
    densities the agreement is quadrature limited.
    """
    if atom_a.dim != atom_b.dim:
        raise ValueError("atoms must share a dimension")
    c3, c5 = multipole_coefficients(atom_a)
    m2x, r2, m4x, x2r2, r4 = even_moments(atom_b)
    r5 = -c3 * (7.5 * m2x - 1.5 * r2) * k / R**5
    r7 = (
        -c3 * (315.0 / 8.0 * m4x - 105.0 / 4.0 * x2r2 + 15.0 / 8.0 * r4)
        - c5 * (17.5 * m2x - 2.5 * r2)
    ) * k / R**7
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
    rows_a, rows_b, per_power = kernels._bilinear_form(*series_arrays(series))
    states = np.array(_multi_indices(series.dim, cutoff), dtype=np.int64)
    f_a = _state_factors(atom_a, rows_a, states)
    f_b = _state_factors(atom_b, rows_b, states)
    amps = {power: f_a @ c @ f_b.T for power, c in per_power}
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


def second_order_sum(series, atom_a, atom_b, R, cutoff=1, k=1.0):
    """-sum_{n != 0} |<n|H_I|0>|^2 / (E_n - E_0) over product oscillator states.

    ``series`` supplies the coupling polynomials (normally just the n = 3
    dipole-dipole term, for which cutoff 1 is already exact).
    """
    _require_drude(atom_a, atom_b)
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    states, amps = _series_amplitudes(series, atom_a, atom_b, cutoff)
    coupling = np.zeros((states.shape[0], states.shape[0]))
    for power, amp in amps.items():
        coupling += k * R ** (-float(power)) * amp
    energies = _excitation_energies(states, atom_a, atom_b)
    coupling[0, 0] = 0.0
    energies[0, 0] = 1.0
    return float(-np.sum(coupling**2 / energies))


def parity_cross_term(series, atom_a, atom_b, cutoff=8, R=1.0, k=1.0, powers=(3, 4)):
    """Second-order cross contribution of two coupling orders.

    Evaluates -k^2 R^-(p+q) sum_{n != 0} <0|T_p|n><n|T_q|0> / (E_n - E_0).
    For (p, q) = (3, 4) the two operators have opposite inversion parity and
    every summand vanishes; with p = q the dipole-dipole second-order value
    is recovered (diagnostic mode).
    """
    _require_drude(atom_a, atom_b)
    p, q = powers
    if p not in series.terms or q not in series.terms:
        raise ValueError(f"series lacks requested powers {powers}")
    states, amps = _series_amplitudes(series, atom_a, atom_b, cutoff)
    energies = _excitation_energies(states, atom_a, atom_b)
    prod = amps[p] * amps[q]
    prod[0, 0] = 0.0
    energies[0, 0] = 1.0
    return float(-(k**2) * R ** (-float(p + q)) * np.sum(prod / energies))


@dataclass(frozen=True)
class DrudePreset:
    """Unit system for Drude-pair curves: lengths in a, energies in k/a."""

    name: str
    a: float
    k: float
    hbar_omega: float

    def __post_init__(self):
        if not (_positive(self.a) and _positive(self.hbar_omega)):
            raise ValueError("preset a and hbar_omega must be finite and positive")
        # k = 0 is the uncoupled pair: every correction vanishes
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError("preset k must be finite and non-negative")

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
        return 1.0 / (2.0 * self.a**2 * self.omega)

    def atom(self, dim):
        return DrudeAtom(dim, omega=self.omega, mass=self.mass)

    def validity_radius(self):
        """R/a where x = k / (m omega^2 R^3) is 1/2; reported, not a gate."""
        r3 = 2.0 * self.k / (self.mass * self.omega**2)
        return r3 ** (1.0 / 3.0) / self.a


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


def total_energy_curve(dim, r_tilde_values, preset=None):
    """Rows of (r5, r6, r7, total, exact) over a grid of reduced separations."""
    if preset is None:
        preset = DrudePreset.bohr()
    a, k = preset.a, preset.k
    if k == 0:
        raise ValueError("energies are in units of k/a: preset k must be positive")
    scale = a / k
    rows = []
    for rt in np.asarray(r_tilde_values, dtype=float):
        if not _positive(rt):
            raise ValueError("separations must be finite and positive")
        R = rt * a
        r5, r7 = first_order_closed_form(dim, a, 3.0, k, R)
        r6 = second_order_drude_closed_form(dim, a, k, preset.hbar_omega, R)
        try:
            exact = scale * drude_exact.exact_correction(
                dim, preset.omega, k, preset.mass, R
            )
        except drude_exact.InstabilityError:
            exact = None
        rows.append(
            EnergyBreakdown(
                r_tilde=float(rt),
                dim=dim,
                first_order_r5=scale * r5,
                first_order_r7=scale * r7,
                second_order_r6=scale * r6,
                total_truncated=scale * (r5 + r6 + r7),
                exact=exact,
            )
        )
    return rows


def dominance_crossover(dim, preset=None):
    """Reduced separation where the R^-5 term first exceeds |r6| + r7.

    With r5 = A / R^5, r6 = -B / R^6 and r7 = C / R^7, multiplying
    r5 - |r6| - r7 = 0 by R^7 leaves A R^2 - B R - C = 0, whose positive root
    divided by a is the crossover in units of a.
    """
    if dim not in (1, 2):
        raise ValueError("crossover defined only for d = 1, 2")
    if preset is None:
        preset = DrudePreset.bohr()
    a, k = preset.a, preset.k
    if k == 0:
        raise ValueError("no crossover without coupling: preset k must be positive")
    A, C = first_order_closed_form(dim, a, 3.0, k, 1.0)
    B = -second_order_drude_closed_form(dim, a, k, preset.hbar_omega, 1.0)
    return (B + math.sqrt(B * B + 4.0 * A * C)) / (2.0 * A) / a
