"""Van der Waals interaction of atoms with electrons confined to d dimensions.

The full 3D Coulomb coupling between two neutral, rotationally symmetric
atoms is expanded exactly in inverse powers of the separation; perturbation
theory on top of that expansion gives a repulsive R^-5 leading correction in
one and two dimensions and the familiar attractive R^-6 in three.  The
package carries the symbolic expansion, atom models, the electrostatic
potential, both perturbative orders, the exact normal-mode solution of the
dipole-coupled Drude pair, and brute-force oracles that validate everything
against the exact kernel.

Results are in reduced units with k = hbar = 1.  Only the Drude presets and
the closed forms and normal modes they feed take k as an argument, because a
custom preset varies it.

Importing the package runs no submodule.  Each one is registered in
``sys.modules`` with importlib's ``LazyLoader`` and runs on first attribute
access, and the public names below resolve on first use (PEP 562).  So a
command loads only the modules it calls: ``expand`` only ``multipole``,
``curve`` and ``exact`` only ``drude_exact``; neither those nor ``--version``
load numpy.  ``moments`` and ``potential`` load ``atoms`` and
``potential``, which import numpy only inside the functions that build
arrays, so ``moments`` and ``potential --dim 1`` and ``--dim 2`` run
without it; a ``--dim 3`` quadrature and ``verify`` load it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "DrudeAtom": "atoms",
    "Hydrogen1DAtom": "atoms",
    "NumericRadialAtom": "atoms",
    "RingAtom": "atoms",
    "drude_spectrum": "atoms",
    "DrudePreset": "drude_exact",
    "EnergyBreakdown": "drude_exact",
    "dominance_crossover": "drude_exact",
    "exact_correction": "drude_exact",
    "first_order_closed_form": "drude_exact",
    "second_order_drude_closed_form": "drude_exact",
    "shifted_frequencies": "drude_exact",
    "total_energy_curve": "drude_exact",
    "backend_name": "kernels",
    "exact_interaction": "kernels",
    "truncation_residual": "kernels",
    "InteractionSeries": "multipole",
    "Monomial": "multipole",
    "evaluate_series": "multipole",
    "expand_interaction": "multipole",
    "direct_first_order": "oracle",
    "oscillator_basis_diag": "oracle",
    "first_order_expectation": "perturbation",
    "parity_cross_term": "perturbation",
    "second_order_sum": "perturbation",
    "shell_theorem_check": "potential",
    "v_a_multipole": "potential",
    "v_a_numeric": "potential",
}

__all__ = sorted(_EXPORTS)


def _register_lazily(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in (
    "atoms",
    "drude_exact",
    "kernels",
    "multipole",
    "oracle",
    "perturbation",
    "potential",
    "verify",
):
    _register_lazily(_name)
del _name


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
