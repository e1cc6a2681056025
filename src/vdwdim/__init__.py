"""Van der Waals interaction of atoms with electrons confined to d dimensions.

The full 3D Coulomb coupling between two neutral, rotationally symmetric
atoms is expanded exactly in inverse powers of the separation; perturbation
theory on top of that expansion gives a repulsive R^-5 leading correction in
one and two dimensions and the familiar attractive R^-6 in three.  The
package carries the symbolic expansion, atom models, the electrostatic
potential, both perturbative orders, the exact normal-mode solution of the
dipole-coupled Drude pair, and brute-force oracles that validate everything
against the exact kernel.
"""

__version__ = "0.1.0"

from .atoms import (
    DrudeAtom,
    Hydrogen1DAtom,
    NumericRadialAtom,
    RingAtom,
    alpha,
    characteristic_length,
    drude_spectrum,
    moment,
)
from .drude_exact import exact_correction, shifted_frequencies
from .kernels import backend_name
from .multipole import (
    InteractionSeries,
    Monomial,
    evaluate_series,
    exact_interaction,
    expand_interaction,
    truncation_residual,
)
from .oracle import direct_first_order, oscillator_basis_diag
from .perturbation import (
    DrudePreset,
    EnergyBreakdown,
    dominance_crossover,
    first_order_closed_form,
    first_order_expectation,
    parity_cross_term,
    second_order_drude_closed_form,
    second_order_sum,
    total_energy_curve,
)
from .potential import shell_theorem_check, v_a_multipole, v_a_numeric

__all__ = [
    "DrudeAtom",
    "DrudePreset",
    "EnergyBreakdown",
    "Hydrogen1DAtom",
    "InteractionSeries",
    "Monomial",
    "NumericRadialAtom",
    "RingAtom",
    "alpha",
    "backend_name",
    "characteristic_length",
    "direct_first_order",
    "dominance_crossover",
    "drude_spectrum",
    "evaluate_series",
    "exact_correction",
    "exact_interaction",
    "expand_interaction",
    "first_order_closed_form",
    "first_order_expectation",
    "moment",
    "oscillator_basis_diag",
    "parity_cross_term",
    "second_order_drude_closed_form",
    "second_order_sum",
    "shell_theorem_check",
    "shifted_frequencies",
    "total_energy_curve",
    "truncation_residual",
    "v_a_multipole",
    "v_a_numeric",
]
