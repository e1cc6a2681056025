"""Brute-force oracles against the analytic results they are meant to check."""

import math

import numpy as np
import pytest
from scipy.special import dawsn

from vdwdim import kernels
from vdwdim.atoms import AtomKindError, DrudeAtom, RingAtom
from vdwdim.drude_exact import exact_correction
from vdwdim.oracle import (
    ConvergenceError,
    OverlapError,
    _coupling_matrix,
    _hermite_columns,
    convergence_report,
    direct_first_order,
    oscillator_basis_diag,
)
from vdwdim.perturbation import DrudePreset

PRESET = DrudePreset.bohr()


def dawson_first_order(R, a=1.0):
    """<H_I> for the 1D Drude pair via the Hilbert transform of a Gaussian.

    With u = x_A - x_B Gaussian of variance 2 a^2, the principal-value
    average of 1/(R - u) is sqrt(2) F(R / (sqrt(2) sigma)) / sigma with F
    the Dawson function; completely independent of the quadrature code.
    """
    return (
        1.0 / R
        + dawsn(R / (2.0 * a)) / a
        - 2.0 * math.sqrt(2.0) * dawsn(R / (math.sqrt(2.0) * a)) / a
    )


class TestDiagonalization:
    def test_truncated_matches_normal_modes(self):
        atom = PRESET.atom(1)
        res = oscillator_basis_diag(
            atom, 6.0, mode="truncated", max_power=3, cutoff=12,
            overlap_tol=1.0,
        )
        want = exact_correction(1, PRESET.omega, 1.0, PRESET.mass, 6.0)
        assert res.correction == pytest.approx(want, rel=1e-8, abs=0.0)
        assert res.mode == "truncated(3)"

    def test_full_kernel_repulsive_and_close_to_asymptotics(self):
        atom = PRESET.atom(1)
        res = oscillator_basis_diag(
            atom, 8.0, mode="full", cutoff=12, overlap_tol=1.0
        )
        ref = 6.0 / 8.0**5 - 4.0 / 8.0**6 + 90.0 / 8.0**7
        assert res.correction > 0
        assert res.correction == pytest.approx(ref, rel=0.15, abs=0.0)

    @pytest.mark.parametrize(
        "cutoff, R", [(19, 8.076986467623906), (12, 8.22), (14, 8.23)]
    )
    def test_full_kernel_default_nodes_clear_of_nucleus(self, cutoff, R):
        # at these points 2 cutoff + 8 nodes put one within 3e-2 of x = R,
        # which gave a spurious deep eigenvalue and a ConvergenceError
        atom = PRESET.atom(1)
        res = oscillator_basis_diag(
            atom, R, mode="full", cutoff=cutoff, overlap_tol=1e-1
        )
        ref = 6.0 / R**5 - 4.0 / R**6 + 90.0 / R**7
        assert res.correction > 0
        assert res.correction == pytest.approx(ref, rel=0.15, abs=0.0)

    def test_overlap_gate_default_threshold(self):
        # the strict 1e-8 midpoint-density default only admits R/a >~ 12
        atom = PRESET.atom(1)
        with pytest.raises(OverlapError):
            oscillator_basis_diag(atom, 8.0, mode="full", cutoff=8)
        res = oscillator_basis_diag(atom, 13.0, mode="full", cutoff=8)
        assert res.correction > 0

    def test_convergence_gate(self):
        atom = PRESET.atom(1)
        with pytest.raises(ConvergenceError):
            oscillator_basis_diag(
                atom, 2.5, mode="truncated", cutoff=4, overlap_tol=1.0
            )

    def test_requires_drude_1d(self):
        with pytest.raises(AtomKindError):
            oscillator_basis_diag(RingAtom(1), 8.0, overlap_tol=1.0)
        with pytest.raises(ValueError):
            oscillator_basis_diag(PRESET.atom(2), 8.0, overlap_tol=1.0)

    def test_correction_decays_with_separation(self):
        atom = PRESET.atom(1)
        values = [
            oscillator_basis_diag(
                atom, rt, mode="full", cutoff=10, overlap_tol=1.0
            ).correction
            for rt in (10.0, 14.0, 20.0)
        ]
        assert values[0] > values[1] > values[2] > 0


class TestCouplingAssembly:
    @pytest.mark.parametrize("cutoff", [6, 12])
    def test_matches_four_index_contraction(self, cutoff):
        atom = PRESET.atom(1)
        R, nodes = 9.3, 2 * cutoff + 8
        got = _coupling_matrix(atom, R, "full", 3, cutoff, nodes)
        xi, w = np.polynomial.hermite.hermgauss(nodes)
        x = math.sqrt(1.0 / (atom.mass * atom.omega)) * xi
        grid = kernels.four_site_grid_1d(R, x, x)
        n = cutoff + 1
        h = _hermite_columns(n, xi)
        q = np.einsum("ip,kp->ikp", h, h * w)
        want = np.einsum("ikp,pq,jlq->ijkl", q, grid, q).reshape(n * n, n * n)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestConsistencyTriangle:
    def test_oracle_normal_modes_and_sum_over_states(self):
        from vdwdim.multipole import expand_interaction
        from vdwdim.perturbation import second_order_sum

        atom = PRESET.atom(1)
        R = 6.0
        series = expand_interaction(1, 3)
        diag = oscillator_basis_diag(
            atom, R, mode="truncated", max_power=3, cutoff=12, overlap_tol=1.0
        ).correction
        modes = exact_correction(1, PRESET.omega, 1.0, PRESET.mass, R)
        summed = second_order_sum(series, atom, atom, R, cutoff=1)
        assert diag == pytest.approx(modes, rel=1e-8, abs=0.0)
        # sum over states reproduces the leading R^-6 piece of the same model
        leading = -(3 + 1) * PRESET.k**2 * PRESET.a**4 / (
            2 * PRESET.hbar_omega * R**6
        )
        assert summed == pytest.approx(leading, rel=1e-12, abs=0.0)
        # normal modes = leading * (1 + 5 x^2/4 + 21 x^4/8 + ...) for d = 1
        x = PRESET.k / (PRESET.mass * PRESET.omega**2 * R**3)
        assert abs((modes - summed) / summed - 5 * x**2 / 4) <= 3 * x**4


class TestConvergenceLadder:
    def test_truncated_ladder_contracts(self):
        atom = PRESET.atom(1)
        rep = convergence_report(
            atom, 2.5, mode="truncated", cutoffs=(4, 6, 8), overlap_tol=1.0
        )
        drops = rep.successive_differences()
        assert all(d >= -1e-13 for d in drops)  # variational monotonicity
        assert drops[0] >= 10.0 * drops[1]

    def test_full_mode_ladder_at_eight(self):
        atom = PRESET.atom(1)
        rep = convergence_report(
            atom, 8.0, mode="full", cutoffs=(6, 10, 14), overlap_tol=1.0
        )
        drops = rep.successive_differences()
        assert all(d >= -1e-13 for d in drops)
        assert drops[-1] < 1e-7

    @pytest.mark.parametrize("cutoff, R", [(8, 2.5), (12, 6.0)])
    def test_rungs_read_from_one_hamiltonian(self, cutoff, R):
        # a truncated-mode ladder topped at c uses the 2 c + 8 nodes that
        # oscillator_basis_diag(cutoff=c) uses, and its c - 2 rung is that
        # call's sub-basis: both read the same H, so they agree exactly
        atom = PRESET.atom(1)
        rep = convergence_report(
            atom, R, mode="truncated", cutoffs=(cutoff - 2, cutoff),
            overlap_tol=1.0,
        )
        res = oscillator_basis_diag(
            atom, R, mode="truncated", cutoff=cutoff, overlap_tol=1.0
        )
        assert rep.ground_energies[-1] == res.ground_energy
        assert rep.corrections[-1] == res.correction
        assert rep.successive_differences() == (res.convergence_error,)


class TestDirectFirstOrder:
    def test_matches_dawson_closed_form(self):
        atom = PRESET.atom(1)
        got = direct_first_order(atom, atom, 12.0, overlap_tol=1.0)
        assert got == pytest.approx(dawson_first_order(12.0), rel=1e-9, abs=0.0)
        got10 = direct_first_order(atom, atom, 10.0, overlap_tol=1.0)
        assert got10 == pytest.approx(dawson_first_order(10.0), rel=1e-5, abs=0.0)

    def test_d1_against_asymptotics(self):
        atom = PRESET.atom(1)
        R = 12.0
        got = direct_first_order(atom, atom, R, overlap_tol=1.0)
        assert got == pytest.approx(6.0 / R**5 + 90.0 / R**7, rel=0.02, abs=0.0)

    def test_d2_against_asymptotics(self):
        atom = PRESET.atom(2)
        R = 12.0
        got = direct_first_order(atom, atom, R, overlap_tol=1.0)
        want = (9.0 / 4.0) / R**5 + (225.0 / 8.0) / R**7
        assert got == pytest.approx(want, rel=0.02, abs=0.0)

    def test_d3_vanishes(self):
        atom = PRESET.atom(3)
        got = direct_first_order(atom, atom, 10.0, overlap_tol=1.0)
        assert abs(got) <= 1e-8

    def test_requires_drude(self):
        with pytest.raises(AtomKindError):
            direct_first_order(RingAtom(1), RingAtom(1), 10.0, overlap_tol=1.0)
