"""Brute-force oracles against the analytic results they are meant to check."""

import decimal
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import dawsn, i0e

from vdwdim import kernels, oracle
from vdwdim.atoms import AtomKindError, DrudeAtom, RingAtom, _ProductStates
from vdwdim.drude_exact import exact_correction
from vdwdim.multipole import expand_interaction
from vdwdim.oracle import (
    ConvergenceError,
    OverlapError,
    _corrections,
    _coupling_matrix,
    _gauss_hermite,
    _hamiltonian,
    _hermite_columns,
    _ladder_coupling,
    _node_count,
    _offset_tables,
    _oscillator_length,
    _sectors,
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


def disc_first_order(R, a_a, a_b):
    """<H_I> for a 2D Drude pair: 1/R + Phi_sigma - Phi_a - Phi_b.

    Phi_s(R) = sqrt(pi/2) / s * e^{-R^2/4s^2} I0(R^2/4s^2) is the mean of
    1/|R x - u| over an isotropic 2D Gaussian u of per-axis variance s^2;
    the electron-electron term has sigma^2 = a_A^2 + a_B^2.
    """

    def phi(s):
        return math.sqrt(math.pi / 2.0) / s * i0e(R * R / (4.0 * s * s))

    sigma = math.hypot(a_a, a_b)
    return 1.0 / R + phi(sigma) - phi(a_a) - phi(a_b)


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

    def test_full_kernel_steps_off_a_node_pair_at_distance_r(self):
        # 40 nodes (cutoff 16) clear the nucleus but hold a pair 9.4e-9 R
        # short of R, on the 1/|R - x_A + x_B| singularity
        atom = PRESET.atom(1)
        R = 16.715294931291087
        ell = _oscillator_length(atom)
        xi = _gauss_hermite(40)[0]
        assert _clear_of_nucleus(xi, R / ell)
        assert _singular_gap(ell * xi, R) < 1e-8 * R
        assert _node_count(atom, R, 16) == 41
        res = oscillator_basis_diag(atom, R, mode="full", cutoff=16, overlap_tol=1e-1)
        ref = 6.0 / R**5 - 4.0 / R**6 + 90.0 / R**7
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
        R = 9.3
        nodes = _node_count(atom, R, cutoff)
        got = _coupling_matrix(atom, R, cutoff)
        xi, w = np.polynomial.hermite.hermgauss(nodes)
        x = math.sqrt(1.0 / (atom.mass * atom.omega)) * xi
        grid = kernels.four_site_grid_1d(R, x, x)
        n = cutoff + 1
        h = _hermite_columns(n, xi)
        q = np.einsum("ip,kp->ikp", h, h * w)
        # the contraction's own layout: <ij|H_I|kl> at [(i, k), (j, l)]
        want = np.einsum("ikp,pq,jlq->ikjl", q, grid, q).reshape(n * n, n * n)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("cutoff", [10, 14, 20])
    def test_full_coupling_equals_abs_form_assembly(self, cutoff, monkeypatch):
        # on the x-axis sqrt(fl(t * t)) == |t|, so the shared four-site
        # kernel gives the |.| form of the grid, and the coupling, bit for bit
        atom = PRESET.atom(1)
        R = 14.0
        got = _coupling_matrix(atom, R, cutoff)

        def abs_form(R, xa, xb):
            A = xa[:, None]
            B = xb[None, :]
            return (
                1.0 / R
                + 1.0 / np.abs(R - A + B)
                - 1.0 / np.abs(R - A)
                - 1.0 / np.abs(R + B)
            )

        monkeypatch.setattr(kernels, "four_site_grid_1d", abs_form)
        want = _coupling_matrix(atom, R, cutoff)
        assert np.array_equal(got, want)

    def test_node_count_is_the_first_clear_grid(self):
        # no caller hands the coupling a grid: over the oracle workload's
        # full-mode range, _node_count's grid clears the nucleus and keeps
        # every node and node difference 1e-8 R off R, and no smaller count
        # from 2 cutoff + 8 does both
        atom = PRESET.atom(1)
        ell = _oscillator_length(atom)

        def clear(nodes, R):
            xi = _gauss_hermite(nodes)[0]
            return _clear_of_nucleus(xi, R / ell) and not (
                _singular_gap(ell * xi, R) < 1e-8 * R
            )

        stepped = set()
        for cutoff in range(10, 21):
            for ratio in [8.0 + 0.02 * k for k in range(601)] + [16.715294931291087]:
                R = ratio * atom.a
                nodes = _node_count(atom, R, cutoff)
                assert clear(nodes, R)
                assert not any(clear(n, R) for n in range(2 * cutoff + 8, nodes))
                stepped.add(nodes - 2 * cutoff - 8)
        assert {0, 1, 2} <= stepped

    @pytest.mark.parametrize("cutoff", [8, 12, 20])
    @pytest.mark.parametrize("max_power", [3, 8, 12])
    def test_truncated_mode_converts_its_series_once(
        self, max_power, cutoff, monkeypatch
    ):
        # the cached form of the expansion contracts the ladder elements,
        # with no form rebuilt from the flat table, and the coupling is the
        # quadrature one, q G q^T of the series grid on 2 cutoff + 8 nodes,
        # which integrate every h_i h_k x^e exactly
        from vdwdim.multipole import expand_interaction

        atom = PRESET.atom(1)
        R, n, nodes = 11.0, cutoff + 1, 2 * cutoff + 8
        form = kernels.series_form(expand_interaction(1, max_power))
        xi, w = np.polynomial.hermite.hermgauss(nodes)
        x = math.sqrt(1.0 / (atom.mass * atom.omega)) * xi
        grid = kernels.series_grid_1d(*form.arrays, R, x, x)
        h = _hermite_columns(n, xi)
        q = np.einsum("ip,kp->ikp", h, h * w).reshape(n * n, nodes)
        want = q @ grid @ q.T

        def no_rebuild(*table):
            raise AssertionError("form rebuilt from the flat table")

        monkeypatch.setattr(kernels.SeriesForm, "from_arrays", no_rebuild)
        got, even = _ladder_coupling(_ProductStates(atom, atom, cutoff), R, max_power)
        assert kernels.series_form(expand_interaction(1, max_power)) is form
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert even is (max_power == 3)

    @pytest.mark.parametrize("max_power", [3, 5, 8])
    def test_ground_column_is_the_sum_over_states_amplitude(self, max_power):
        # second order and the truncated mode read one table: the |00>
        # column of H_I holds the sum over states' amplitudes <ij|H_I|00>
        atom, R, cutoff = DrudeAtom(1, omega=0.7, mass=1.3), 9.0, 12
        n = cutoff + 1
        form = kernels.series_form(expand_interaction(1, max_power))
        levels = np.arange(n)[:, None]
        f_a, f_b = (
            atom.ladder_elements(rows[:, :1], levels, levels[:1])[..., 0]
            for rows in (form.rows_a, form.rows_b)
        )
        want = form.contract(f_a, form.block_matrices(form.inverse_powers(R)), f_b)
        pairs = _ProductStates(atom, atom, cutoff)
        got = _ladder_coupling(pairs, R, max_power)[0].reshape(n, n, n, n)[:, 0, :, 0]
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_truncated_mode_uses_no_quadrature(self, monkeypatch):
        # the truncated coupling is ladder algebra: no node, Hermite column
        # or tabulated grid is built on its way
        def forbidden(*args, **kwargs):
            raise AssertionError("truncated mode reached the quadrature")

        for name in (
            "_gauss_hermite", "_hermite_columns", "_node_count",
            "_coupling_matrix",
        ):
            monkeypatch.setattr(oracle, name, forbidden)
        for name in ("series_grid_1d", "four_site_grid_1d"):
            monkeypatch.setattr(kernels, name, forbidden)
        atom = PRESET.atom(1)
        res = oscillator_basis_diag(
            atom, 13.0, mode="truncated", cutoff=12, overlap_tol=1.0
        )
        rep = convergence_report(
            atom, 13.0, mode="truncated", cutoffs=(10, 12), overlap_tol=1.0
        )
        assert rep.corrections[-1] == res.correction

    @pytest.mark.parametrize("mode", ["full", "truncated"])
    def test_one_product_state_set_per_hamiltonian(self, mode, monkeypatch):
        # the coupling, the diagonal's levels and the symmetry classes read
        # one _ProductStates, whose classes are asked for once, without
        # total parity: max_power 5 and the full kernel both break it
        built, asked = [], []

        class Counted(_ProductStates):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

            def classes(self, even):
                asked.append(even)
                return super().classes(even)

        atom = PRESET.atom(1)
        want, _ = _hamiltonian(atom, 11.0, mode, 5, 8)
        monkeypatch.setattr(oracle, "_ProductStates", Counted)
        got, classes = _hamiltonian(atom, 11.0, mode, 5, 8)
        assert built == [(atom, atom, 8)]
        assert asked == [False]
        assert np.array_equal(got, want)
        assert [key for key, *_ in classes] == [()]

    def test_full_mode_past_the_square_overflow(self):
        # R^2 overflows past about 1.34e154; the kernel returned 1/R with
        # warnings and the correction read 1e-160, where 6 R^-5 is 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = oscillator_basis_diag(
                DrudeAtom(1, 0.5), 1e160, cutoff=4, overlap_tol=1e-1
            )
        assert res.correction == 0.0


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

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one basis cutoff"):
            convergence_report(PRESET.atom(1), 8.0, cutoffs=(), overlap_tol=1.0)

    def test_full_mode_ladder_keeps_nodes_off_nucleus(self):
        # 2 * 17 + 8 = 42 nodes put one next to x = R at R/a = 8; the ladder
        # steps up to 43 as oscillator_basis_diag does, instead of returning
        # the spurious deep eigenvalues near -11.7 and -72.9
        atom = PRESET.atom(1)
        rep = convergence_report(
            atom, 8.0, mode="full", cutoffs=(15, 17), overlap_tol=1.0
        )
        res = oscillator_basis_diag(atom, 8.0, cutoff=17, overlap_tol=1.0)
        ell = _oscillator_length(atom)
        assert not _clear_of_nucleus(_gauss_hermite(42)[0], 8.0 / ell)
        assert _node_count(atom, 8.0, 17) == 43
        assert rep.corrections[-1] == res.correction
        assert rep.successive_differences() == (res.convergence_error,)
        assert all(0.0 < c < 1e-3 for c in rep.corrections)

    @pytest.mark.parametrize("cutoff, R", [(8, 2.5), (12, 6.0)])
    def test_rungs_read_from_one_hamiltonian(self, cutoff, R):
        # a truncated-mode ladder topped at c reads the H that
        # oscillator_basis_diag(cutoff=c) reads, and its c - 2 rung is that
        # call's sub-basis, so they agree exactly
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


def _clear_of_nucleus(xi, nucleus):
    """True if ``nucleus`` lies beyond the outer nodes or mid-gap between two.

    Mid-gap is the middle half of the gap between the nodes around it.
    """
    j = int(np.searchsorted(xi, nucleus))
    if j in (0, xi.size):
        return True
    quarter = (xi[j] - xi[j - 1]) / 4.0
    return xi[j - 1] + quarter <= nucleus <= xi[j] - quarter


def _singular_gap(x, R):
    """Distance from R of the nearest node or difference of two nodes."""
    return min(np.abs(R - x[:, None] + x[None, :]).min(), np.abs(R - x).min())


def _exchange(n):
    """P|ij> = (-1)^(i+j) |ji> on the flattened product basis, as (perm, sign)."""
    i, j = np.divmod(np.arange(n * n), n)
    return j * n + i, (-1.0) ** (i + j)


def _pair_order(m):
    """Between the coupling's layout [(i, k), (j, l)] and pair order [(i, j), (k, l)].

    One swap of the two middle axes of the (n, n, n, n) view, its own inverse.
    """
    n = math.isqrt(m.shape[0])
    return m.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _pair_ordered(atom, R, mode, max_power, cutoff):
    """``_hamiltonian`` with H in pair order, |ij> at i (cutoff + 1) + j."""
    ham, classes = _hamiltonian(atom, R, mode, max_power, cutoff)
    return _pair_order(ham), classes


def _dipole_even(mode, max_power):
    """True where H commutes with total parity: the dipole series alone."""
    return mode == "truncated" and max_power == 3


def _classes(cutoff, even):
    """The d = 1 symmetry classes of the basis i, j <= cutoff."""
    atom = PRESET.atom(1)
    return _ProductStates(atom, atom, cutoff).classes(even)


def _sector_gathers(ham, even):
    """The sector blocks of pair-ordered H, sector by sector, rows then columns.

    The characters are the exchange P = +1, -1 and, when ``even``, the
    parity of i + j, even class first: (block, reach) pairs in the order of
    ``oracle._sectors``.
    """
    n = math.isqrt(ham.shape[0])
    blocks = []
    for parity in (0, 1) if even else (None,):
        for p, diagonal in ((1.0, 0), (-1.0, -1)):
            j, i = np.tril_indices(n, diagonal)
            if parity is not None:
                keep = (i + j) % 2 == parity
                i, j = i[keep], j[keep]
            sign = p * (-1.0) ** (i + j)
            v = np.where(i == j, 0.5, math.sqrt(0.5))
            pair, swap = i * n + j, j * n + i
            w = sign * v
            rows = ham[pair] * v[:, None]
            rows += ham[swap] * w[:, None]
            block = rows[:, pair] * v
            block += rows[:, swap] * w
            blocks.append((block, j))
    return blocks


def _sector_sizes(cutoff, even):
    """State counts of the sectors of the basis i, j <= cutoff, as ordered there."""
    pairs = [(i, j) for j in range(cutoff + 1) for i in range(j + 1)]
    sizes = []
    for parity in (0, 1) if even else (None,):
        kept = [(i, j) for i, j in pairs if parity in (None, (i + j) % 2)]
        sizes += [len(kept), sum(i < j for i, j in kept)]
    return sizes


def _spy_linalg(monkeypatch):
    """Lists that record the size of every ``eigvalsh`` and ``cholesky`` input."""
    sizes, factored = [], []
    real_eigvalsh, real_cholesky = np.linalg.eigvalsh, np.linalg.cholesky

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_eigvalsh(a, *args, **kwargs)

    def cholesky_spy(a, *args, **kwargs):
        factored.append(a.shape[0])
        return real_cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
    return sizes, factored


class TestExchangeSymmetry:
    SEPARATIONS = (2.5, 8.0, 13.0, 20.0, 28.0)

    @pytest.mark.parametrize("mode", ["full", "truncated"])
    @pytest.mark.parametrize("cutoff", [4, 12, 20])
    def test_hamiltonian_commutes_with_exchange(self, mode, cutoff):
        # worst measured: 5.2e-11 against max |H| = 67 (7.8e-13) at
        # cutoff 20, R/a = 8, full mode, where a node sits next to x = R
        atom = PRESET.atom(1)
        perm, sign = _exchange(cutoff + 1)
        for R in self.SEPARATIONS:
            ham, _ = _pair_ordered(atom, R, mode, 3, cutoff)
            swapped = sign[:, None] * ham[np.ix_(perm, perm)] * sign
            assert np.abs(ham - swapped).max() <= 1e-11 * np.abs(ham).max()

    @pytest.mark.parametrize("cutoff", [4, 12, 20])
    def test_dipole_coupling_has_exact_zeros_across_parity(self, cutoff):
        # <i|x^e|k> vanishes unless i + k + e is even, and the dipole
        # series' monomials have e_A + e_B = 2: every entry between an even
        # and an odd i + j is 0.0, so the split drops nothing
        atom = PRESET.atom(1)
        n = cutoff + 1
        i, j = np.divmod(np.arange(n * n), n)
        cross = (i + j)[:, None] % 2 != (i + j)[None, :] % 2
        for R in self.SEPARATIONS:
            ham, classes = _pair_ordered(atom, R, "truncated", 3, cutoff)
            assert [key for key, *_ in classes] == [(1,), (-1,)]
            assert (ham[cross] == 0.0).all()
            assert (ham[~cross] != 0.0).any()

    @pytest.mark.parametrize("max_power", range(4, 13))
    def test_odd_degree_series_keep_the_two_exchange_sectors(self, max_power):
        # from max_power 4 on the series has monomials of odd e_A + e_B,
        # which break total parity: only exchange splits H, as in full mode
        atom, cutoff = PRESET.atom(1), 8
        for mode in ("truncated", "full"):
            ham, classes = _hamiltonian(atom, 13.0, mode, max_power, cutoff)
            assert [key for key, *_ in classes] == [()]
            blocks = [block.shape[0] for block, _ in _sectors(ham, classes)]
            assert blocks == _sector_sizes(cutoff, False) == [45, 36]
        ham, classes = _hamiltonian(atom, 13.0, "truncated", 3, cutoff)
        assert [key for key, *_ in classes] == [(1,), (-1,)]
        blocks = [block.shape[0] for block, _ in _sectors(ham, classes)]
        assert blocks == _sector_sizes(cutoff, True) == [25, 16, 20, 20]

    @pytest.mark.parametrize("R", SEPARATIONS)
    @pytest.mark.parametrize("mode", ["full", "truncated"])
    def test_split_matches_whole_block(self, mode, R):
        atom = PRESET.atom(1)
        for cutoff in range(4, 21):
            ham, classes = _hamiltonian(atom, R, mode, 3, cutoff)
            split = _corrections(_sectors(ham, classes), (cutoff,))[0] + atom.hbar_omega
            spectrum = np.linalg.eigvalsh(_pair_order(ham))
            whole = spectrum[0] + atom.hbar_omega
            bound = 1e-15 * abs(whole)
            if mode == "full" and R < 8.0:
                # the clouds overlap: coincidence nodes give a spectrum from
                # about -5 to 229, and eigvalsh is accurate to a few eps ||H||
                # (worst measured 1.9e-15 ||H||)
                bound = 1e-14 * np.abs(spectrum).max()
            assert abs(split - whole) <= bound

    @pytest.mark.parametrize("R", (8.0, 13.0, 20.0))
    @pytest.mark.parametrize("mode", ["full", "truncated"])
    def test_blocks_equal_two_gather_projection(self, mode, R):
        # the blocks are read in place from the coupling's layout, the rows
        # of |ij> and |ji> gathered once per class of _ProductStates; they
        # equal, bit for bit, the blocks gathered sector by sector from
        # pair-ordered H with the d = 1 characters written out
        atom = PRESET.atom(1)
        for cutoff in (4, 10, 16, 20):
            ham, classes = _hamiltonian(atom, R, mode, 3, cutoff)
            got = _sectors(ham, classes)
            want = _sector_gathers(_pair_order(ham), _dipole_even(mode, 3))
            assert len(got) == (4 if mode == "truncated" else 2)
            for (block, reach), (ref, ref_reach) in zip(got, want, strict=True):
                assert block.shape == ref.shape and (block == ref).all()
                assert np.array_equal(reach, ref_reach)

    @pytest.mark.parametrize("R", [8.5, 13.0, 19.0])
    def test_full_mode_keeps_the_exchange_only_bits(self, R):
        # full mode splits by exchange alone, and each result is that of
        # eigvalsh on the P = +1 block of pair-ordered H with one Cholesky
        # certificate of the P = -1 block: corrections and convergence
        # errors keep their bits
        atom, even = PRESET.atom(1), False
        for cutoff in (10, 14, 20):
            res = oscillator_basis_diag(atom, R, cutoff=cutoff, overlap_tol=1e-1)
            ham, _ = _pair_ordered(atom, R, "full", 3, cutoff)
            (plus, _), (minus, _) = _sector_gathers(ham, even)
            fine, coarse = (
                float(np.linalg.eigvalsh(plus[:s, :s])[0])
                for s in (_sector_sizes(c, even)[0] for c in (cutoff, cutoff - 2))
            )
            assert oracle._sector_above(minus, max(fine, coarse))
            assert res.correction == fine
            assert res.convergence_error == coarse - fine
        rep = convergence_report(atom, R, cutoffs=(6, 10, 14), overlap_tol=1e-1)
        ham, _ = _pair_ordered(atom, R, "full", 3, 14)
        (plus, _), _ = _sector_gathers(ham, even)
        assert rep.corrections == tuple(
            float(np.linalg.eigvalsh(plus[:s, :s])[0])
            for s in (_sector_sizes(c, even)[0] for c in (6, 10, 14))
        )

    def test_ground_state_taken_from_either_sector(self):
        # |01> and |10> coupled by -2: (|01> + |10>) / sqrt(2), which is
        # P = -1 since (-1)^(0+1) = -1, and odd, sits at hbar omega - 2
        # below |00>
        n = 4
        i, j = np.divmod(np.arange(n * n), n)
        ham = np.diag(0.5 * (i + j))
        ham[1, n] = ham[n, 1] = -2.0
        sectors = _sectors(_pair_order(ham), _classes(n - 1, True))
        (plus, _), *_, (odd_minus, _) = sectors
        assert np.linalg.eigvalsh(plus)[0] == 0.0
        lowest = np.linalg.eigvalsh(odd_minus)[0]
        assert lowest == pytest.approx(-1.5, abs=1e-15)
        assert _corrections(sectors, (n - 1,))[0] == lowest

    @pytest.mark.parametrize("mode", ["full", "truncated"])
    def test_eigensolves_see_only_the_sector_blocks(self, mode, monkeypatch):
        atom = PRESET.atom(1)
        even = mode == "truncated"  # the dipole series keeps total parity
        # warm the Gauss-Hermite cache: hermgauss runs eigvalsh of its own
        oscillator_basis_diag(atom, 13.0, mode=mode, cutoff=12, overlap_tol=1.0)
        convergence_report(
            atom, 13.0, mode=mode, cutoffs=(6, 10, 14), overlap_tol=1.0
        )
        sizes, factored = _spy_linalg(monkeypatch)
        oscillator_basis_diag(atom, 13.0, mode=mode, cutoff=12, overlap_tol=1.0)
        convergence_report(
            atom, 13.0, mode=mode, cutoffs=(6, 10, 14), overlap_tol=1.0
        )
        # the ground sector's block of every rung, and one factorization of
        # each other sector per solve, at its largest cutoff
        rungs = (12, 10) + (6, 10, 14)
        assert sizes == [_sector_sizes(c, even)[0] for c in rungs]
        assert factored == _sector_sizes(12, even)[1:] + _sector_sizes(14, even)[1:]
        assert len(factored) == (6 if even else 2)
        if not even:
            assert sizes == [(c + 1) * (c + 2) // 2 for c in rungs]
        # no input is the product basis of its cutoff, (c + 1)^2 states
        tops = (12,) * (len(factored) // 2) + (14,) * (len(factored) // 2)
        for seen, cutoffs in ((sizes, rungs), (factored, tops)):
            assert all(s <= (c + 1) * (c + 2) // 2 for s, c in zip(seen, cutoffs))

    def test_dipole_op_at_cutoff_20_solves_121_and_100_states(self, monkeypatch):
        # against 231 and 190 for the whole P = +1 blocks
        atom = PRESET.atom(1)
        oscillator_basis_diag(
            atom, 13.0, mode="truncated", cutoff=20, overlap_tol=1.0
        )
        sizes, factored = _spy_linalg(monkeypatch)
        oscillator_basis_diag(
            atom, 13.0, mode="truncated", cutoff=20, overlap_tol=1.0
        )
        assert sizes == [121, 100]
        assert factored == [100, 110, 110]

    @pytest.mark.parametrize("even", [False, True])
    def test_ground_state_in_minus_sector_through_the_solver(self, even, monkeypatch):
        # as in test_ground_state_taken_from_either_sector, |01> and |10>
        # coupled by -2 put a P = -1 odd state at hbar omega - 2; a weak
        # exchange-symmetric coupling of |01>, |10> to |0c>, |c0> (i + j
        # odd too) lowers it only in the basis with cutoff c, so the
        # convergence error is the drop of that state; H reaches the solver
        # in the coupling's layout, split by exchange alone or by parity too
        atom = PRESET.atom(1)
        cutoff, n = 5, 6
        i, j = np.divmod(np.arange(n * n), n)
        ham = np.diag(atom.hbar_omega * (i + j))
        ham[1, n] = ham[n, 1] = -2.0
        g = 1e-4
        ham[1, cutoff] = ham[cutoff, 1] = g
        ham[n, cutoff * n] = ham[cutoff * n, n] = (-1.0) ** (1 + cutoff) * g
        layout, classes = _pair_order(ham), _classes(cutoff, even)
        monkeypatch.setattr(oracle, "_hamiltonian", lambda *args: (layout.copy(), classes))
        res = oscillator_basis_diag(atom, 13.0, cutoff=cutoff, overlap_tol=1.0)
        keep = (i <= cutoff - 2) & (j <= cutoff - 2)
        fine = np.linalg.eigvalsh(ham)[0]
        coarse = np.linalg.eigvalsh(ham[np.ix_(keep, keep)])[0]
        minus, _ = _sector_gathers(ham, even)[-1]  # P = -1, odd if split
        assert fine < coarse == pytest.approx(-1.5, abs=1e-15)
        assert res.correction == pytest.approx(fine, rel=1e-15, abs=0.0)
        assert res.correction == np.linalg.eigvalsh(minus)[0]
        assert res.convergence_error == pytest.approx(
            coarse - fine, rel=1e-6, abs=0.0
        )
        assert res.convergence_error > 0.0

    def test_sector_without_states_at_a_rung(self):
        # |02> and |20> coupled by 3 put the P = -1 even state
        # (|02> - |20>) / sqrt(2) at 1 - 3 = -2, below every other state of
        # the basis with cutoff 3; that sector has no state with i, j <= 1,
        # so the cutoff-1 rung keeps the ground sector's |00>
        n = 4
        i, j = np.divmod(np.arange(n * n), n)
        ham = np.diag(0.5 * (i + j))
        ham[2, 2 * n] = ham[2 * n, 2] = 3.0
        sectors = _sectors(_pair_order(ham), _classes(n - 1, True))
        (plus, _), (minus, reach) = sectors[:2]
        assert reach.tolist() == [2, 3]
        lowest = np.linalg.eigvalsh(minus)[0]
        assert lowest == pytest.approx(-2.0, abs=1e-15)
        assert _corrections(sectors, (3, 1)) == (lowest, 0.0)

    @pytest.mark.parametrize("gap, solved", [(0.0, True), (0.5, True), (4.0, False)])
    def test_sectors_within_tau_fall_back_to_eigvalsh(self, gap, solved, monkeypatch):
        # cutoffs 3 and 5: P = +1 blocks of 10 and 21 states, P = -1 of 6
        # and 15.  Every P = +1 block has lowest eigenvalue mu = -1, and the
        # P = -1 block sits gap * tau above it, where tau is the Cholesky
        # backward-error bound of _sector_above (4 (n + 1) u 2 n |mu| to
        # first order)
        mu, n = -1.0, 15
        tau = 4 * (n + 1) * 2.0**-53 * 2 * n * abs(mu)
        j, i = np.tril_indices(6)
        plus = (np.diag(np.linspace(mu, 3.0, 21)), j)
        minus = (np.diag(np.full(n, mu + gap * tau)), j[i < j])
        sizes, _ = _spy_linalg(monkeypatch)
        assert oracle._corrections((plus, minus), (3, 5)) == (mu, mu)
        assert sizes == [10, 21] + ([6, 15] if solved else [])

    def test_minus_sector_between_the_rungs(self, monkeypatch):
        # the odd P = -1 state (|01> + |10>) / sqrt(2) (about -1) lies below
        # the ground sector's value at cutoff 3 (|00>, 0) and above that at
        # cutoff 5 (|44>, -2): it is the ground state of the smaller basis
        # only, so the certificate must be taken against the highest value
        # in play; against cutoff 5's alone it would pass
        n = 6
        i, j = np.divmod(np.arange(n * n), n)
        ham = np.diag(10.0 + i + j)
        ham[0, 0], ham[4 * n + 4, 4 * n + 4] = 0.0, -2.0
        ham[1, 1] = ham[n, n] = 0.0
        ham[1, n] = ham[n, 1] = -1.0
        layout, classes = _pair_order(ham), _classes(n - 1, True)
        monkeypatch.setattr(oracle, "_hamiltonian", lambda *args: (layout.copy(), classes))
        rep = convergence_report(
            PRESET.atom(1), 13.0, cutoffs=(3, 5), overlap_tol=1.0
        )
        minus, reach = _sector_gathers(ham, True)[3]
        assert oracle._sector_above(minus, -2.0)
        small = np.count_nonzero(reach <= 3)
        lowest = np.linalg.eigvalsh(minus[:small, :small])[0]
        assert lowest == pytest.approx(-1.0, abs=1e-15)
        assert rep.corrections == (lowest, -2.0)

    @pytest.mark.parametrize("mode", ["full", "truncated"])
    @pytest.mark.parametrize("R", [2.5, 8.0, 13.0, 20.0])
    def test_report_rungs_are_the_per_rung_minimum(self, mode, R):
        atom = PRESET.atom(1)
        cutoffs = (4, 7, 10, 13)
        rep = convergence_report(
            atom, R, mode=mode, cutoffs=cutoffs, overlap_tol=1.0
        )
        ham, _ = _pair_ordered(atom, R, mode, 3, 13)
        even = _dipole_even(mode, 3)
        sectors = _sector_gathers(ham, even)
        want = tuple(
            min(
                float(np.linalg.eigvalsh(block[:s, :s])[0])
                for (block, _), s in zip(sectors, _sector_sizes(c, even))
            )
            for c in cutoffs
        )
        assert rep.corrections == want


class TestSymmetryClasses:
    """``_ProductStates.classes`` split the truncated Hamiltonian in every d."""

    # ground-class states (exchange and reflections, then with total parity),
    # counted by the group projection
    GROUND = {
        (1, 20): (231, 121), (2, 8): (535, 285), (2, 10): (1131, 591),
        (3, 5): (456, 260), (3, 6): (990, 550),
    }

    @pytest.mark.parametrize("dim, cutoff", list(GROUND))
    def test_ground_class_sizes(self, dim, cutoff):
        atom = PRESET.atom(dim)
        pairs = _ProductStates(atom, atom, cutoff)
        sizes = []
        for even in (False, True):
            key, a, *_ = pairs.classes(even)[0]
            assert key == (1,) * (dim - 1 + even)
            sizes.append(a.size)
        assert tuple(sizes) == self.GROUND[dim, cutoff]

    @pytest.mark.parametrize("even", [False, True])
    def test_d1_classes_give_the_sector_sizes(self, even):
        for cutoff in range(3, 21):
            sizes = []
            for _, a, b, _, _ in _classes(cutoff, even):
                sizes += [a.size, int(np.count_nonzero(a != b))]
            assert sizes == _sector_sizes(cutoff, even)

    @pytest.mark.parametrize("max_power", [3, 5, 8])
    @pytest.mark.parametrize("dim, cutoff", [(2, 4), (2, 8), (3, 3), (3, 5)])
    def test_classes_split_the_truncated_hamiltonian(self, dim, cutoff, max_power):
        # with the characters computed here from the states: no entry of H
        # couples two classes, the exchange commutes with H to rounding, and
        # every class holds the pairs of its characters, ordered by reach
        atom, even = PRESET.atom(dim), max_power == 3
        layout, classes = _hamiltonian(atom, 13.0, "truncated", max_power, cutoff)
        ham = _pair_order(layout)
        del layout
        states = _ProductStates(atom, atom, cutoff).states
        quanta, n = states.sum(axis=1), len(states)
        label = np.full(n * n, -1)
        for k, (key, a, b, sign, reach) in enumerate(classes):
            chars = 1 - 2 * ((states[a] + states[b]) % 2)
            if even:
                chars = np.column_stack((chars, 1 - 2 * ((quanta[a] + quanta[b]) % 2)))
            assert (chars[:, 1:] == key).all() and len(key) == dim - 1 + even
            assert np.array_equal(sign, chars[:, 0]) and (a <= b).all()
            assert np.array_equal(reach, np.maximum(quanta[a], quanta[b]))
            assert (np.diff(reach) >= 0).all()
            assert (label[a * n + b] == -1).all()
            label[a * n + b] = label[b * n + a] = k
        assert (label >= 0).all()
        assert classes[0][1][0] == classes[0][2][0] == 0  # |00> leads class 0
        i, j = np.divmod(np.arange(n * n), n)
        perm, sign = j * n + i, (-1.0) ** (states[i, 0] + states[j, 0])
        worst, scale = 0.0, np.abs(ham).max()
        for lo in range(0, n * n, 512):  # row blocks keep the copies small
            rows = slice(lo, lo + 512)
            cross = label[rows, None] != label[None, :]
            assert (ham[rows][cross] == 0.0).all()
            swapped = sign[rows, None] * ham[perm[rows]][:, perm] * sign
            worst = max(worst, np.abs(ham[rows] - swapped).max())
        assert worst <= 1e-15 * scale

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("dim, cutoff", [(1, 12), (2, 8), (3, 5)])
    def test_smaller_cutoffs_lead_every_class(self, dim, cutoff, even):
        # the pairs with reach <= c are those of the basis with cutoff c, in
        # its own order and classes: each rung is a leading block
        atom = PRESET.atom(dim)

        def named(pairs, top):
            out = {}
            for key, a, b, _, reach in pairs.classes(even):
                keep = reach <= top
                got = list(zip(
                    map(tuple, pairs.states[a[keep]].tolist()),
                    map(tuple, pairs.states[b[keep]].tolist()),
                ))
                if got:
                    out[key] = got
            return out

        big = _ProductStates(atom, atom, cutoff)
        for small in range(cutoff):
            want = named(_ProductStates(atom, atom, small), small)
            assert named(big, small) == want

    @pytest.mark.parametrize("dim, cutoff", [(2, 4), (3, 3)])
    @pytest.mark.parametrize("max_power", [3, 5])
    def test_sector_spectra_are_the_whole_spectrum(self, dim, cutoff, max_power):
        # the sector blocks are an orthogonal split of H: their eigenvalues,
        # pooled, are those of the whole matrix
        atom = PRESET.atom(dim)
        ham, classes = _hamiltonian(atom, 13.0, "truncated", max_power, cutoff)
        whole = np.linalg.eigvalsh(_pair_order(ham))
        blocks = _sectors(ham, classes)
        assert sum(block.shape[0] for block, _ in blocks) == ham.shape[0]
        pooled = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b, _ in blocks]))
        assert np.abs(pooled - whole).max() <= 1e-13 * np.abs(whole).max()


class TestShiftedDiagonal:
    @pytest.mark.parametrize("R", [8.0, 10.0, 13.0, 16.0, 20.0, 24.0, 28.0])
    def test_truncated_matches_normal_modes_to_rounding(self, R):
        # the correction is the lowest eigenvalue itself; read off as
        # e0 - hbar omega it would carry e0's rounding, ~1e-16 absolute,
        # which is 2e-9 of the correction at R/a = 28
        atom = PRESET.atom(1)
        want = exact_correction(1, PRESET.omega, 1.0, PRESET.mass, R)
        for cutoff in range(12, 21):
            res = oscillator_basis_diag(
                atom, R, mode="truncated", cutoff=cutoff, overlap_tol=1.0
            )
            assert res.correction == pytest.approx(want, rel=1e-12, abs=0.0)
            assert res.ground_energy == res.correction + atom.hbar_omega

    @pytest.mark.parametrize("R", [6.0, 8.0, 10.0, 14.0, 20.0, 28.0])
    def test_truncated_rounds_only_in_the_eigensolve(self, R):
        # the ladder elements are exact, so the correction carries only the
        # eigensolve's rounding: worst measured 2.2e-16 relative, against
        # 3.4e-15 with elements from Gauss-Hermite quadrature
        atom = PRESET.atom(1)
        want = exact_correction(1, PRESET.omega, 1.0, PRESET.mass, R)
        for cutoff in range(12, 21):
            res = oscillator_basis_diag(
                atom, R, mode="truncated", cutoff=cutoff, overlap_tol=1.0
            )
            assert res.correction == pytest.approx(want, rel=1e-15, abs=0.0)


class TestOracleInputs:
    CALLS = {
        "diag": lambda atom, **kw: oscillator_basis_diag(atom, 12.0, **kw),
        "ladder": lambda atom, **kw: convergence_report(atom, 12.0, **kw),
        "direct": lambda atom, **kw: direct_first_order(atom, atom, 12.0, **kw),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize(
        "tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8]
    )
    def test_rejects_bad_overlap_tol(self, call, tol):
        # NaN compares false, which would switch the midpoint gate off
        with pytest.raises(ValueError, match="overlap_tol") as err:
            self.CALLS[call](PRESET.atom(1), overlap_tol=tol)
        assert err.type is ValueError

    @pytest.mark.parametrize("R", [-1.0, 0.0, math.nan, math.inf])
    def test_separation_checked_before_overlap(self, R):
        # R = -1 or 0 once raised OverlapError "... increase R"
        atom = PRESET.atom(1)
        calls = [
            lambda: oscillator_basis_diag(atom, R),
            lambda: convergence_report(atom, R),
            lambda: direct_first_order(atom, atom, R),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="separation") as err:
                call()
            assert err.type is ValueError

    @pytest.mark.parametrize("cutoff", [10.5, 12.0, True, "12", None])
    def test_rejects_non_int_cutoff(self, cutoff):
        # 10.5 would reach hermite's "deg must be an integer" TypeError
        atom = PRESET.atom(1)
        with pytest.raises(ValueError, match="cutoff"):
            oscillator_basis_diag(atom, 12.0, cutoff=cutoff, overlap_tol=1.0)
        with pytest.raises(ValueError, match="cutoff"):
            convergence_report(
                atom, 12.0, cutoffs=(6, cutoff, 14), overlap_tol=1.0
            )


    @pytest.mark.parametrize("mode", ["bogus", None])
    def test_rejects_unknown_mode(self, mode):
        # checked with the pair, before the overlap gate: at R = 2 the
        # default threshold would raise OverlapError
        atom = PRESET.atom(1)
        for call in (oscillator_basis_diag, convergence_report):
            for R, kw in ((12.0, {"overlap_tol": 1.0}), (2.0, {})):
                with pytest.raises(
                    ValueError, match="mode must be 'full' or 'truncated'"
                ) as err:
                    call(atom, R, mode=mode, **kw)
                assert err.type is ValueError

    def test_numpy_integer_cutoff_becomes_plain_int(self):
        atom = PRESET.atom(1)
        got = oscillator_basis_diag(atom, 10.0, cutoff=np.int64(12), overlap_tol=1.0)
        assert type(got.cutoff) is int
        assert got == oscillator_basis_diag(atom, 10.0, cutoff=12, overlap_tol=1.0)
        ladder = convergence_report(
            atom, 10.0, cutoffs=(np.int32(6), np.int64(10)), overlap_tol=1.0
        )
        assert all(type(c) is int for c in ladder.cutoffs)
        assert ladder == convergence_report(
            atom, 10.0, cutoffs=(6, 10), overlap_tol=1.0
        )


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

    @pytest.mark.parametrize("omega_a,omega_b", [(0.5, 0.5), (0.5, 0.75), (0.75, 0.5)])
    def test_d2_matches_bessel_closed_form(self, omega_a, omega_b):
        atom_a = DrudeAtom(2, omega=omega_a)
        atom_b = DrudeAtom(2, omega=omega_b)
        R = 12.0  # R/a = 12 for the omega = 0.5 atom, a = 1
        got = direct_first_order(atom_a, atom_b, R, overlap_tol=1.0)
        want = disc_first_order(R, atom_a.a, atom_b.a)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_requires_drude(self):
        with pytest.raises(AtomKindError):
            direct_first_order(RingAtom(1), RingAtom(1), 10.0, overlap_tol=1.0)


def _decimal_tensor_sum(atom_a, atom_b, R, nodes, digits=40):
    """The full tensor sum in ``digits``-digit decimal, on the float64 nodes.

    Nodes ell xi and weights w / sqrt(pi) are the oracle's float64 values,
    taken exactly; every later operation is decimal, and the kernel is
    summed as 1/R W_A W_B + sum_ab w_a w_b / |R x - a + b|
    - W_B sum_a w_a / |R x - a| - W_A sum_b w_b / |R x + b|.
    """
    xi, w = _gauss_hermite(nodes)
    w = w / math.sqrt(math.pi)
    ctx = decimal.Context(prec=digits)
    dec = decimal.Decimal

    def cloud(atom):
        x = _oscillator_length(atom) * xi
        pts, wts = [], []
        for idx in itertools.product(range(nodes), repeat=atom.dim):
            pts.append([dec(float(x[i])) for i in idx] + [dec(0)] * (3 - atom.dim))
            wts.append(ctx.multiply(dec(1), math.prod(dec(float(w[i])) for i in idx)))
        return pts, wts

    with decimal.localcontext(ctx):
        pa, wa = cloud(atom_a)
        pb, wb = cloud(atom_b)
        R = dec(R)

        def inv(x, y, z):
            return 1 / (x * x + y * y + z * z).sqrt()

        total_a, total_b = sum(wa), sum(wb)
        s = total_a * total_b / R
        for p, u in zip(pa, wa):
            s -= total_b * u * inv(R - p[0], p[1], p[2])
            for q, v in zip(pb, wb):
                s += u * v * inv(R - p[0] + q[0], p[1] - q[1], p[2] - q[2])
        for q, v in zip(pb, wb):
            s -= total_a * v * inv(R + q[0], q[1], q[2])
    return s


class TestDirectRounding:
    """The regrouped sum rounds less than the element-wise one it replaces."""

    @pytest.mark.parametrize("R", [8.0, 12.0, 20.0])
    @pytest.mark.parametrize("omega_b", [0.5, 0.75])
    @pytest.mark.parametrize("dim,nodes", [(2, 7), (3, 5)])
    def test_matches_forty_digit_tensor_sum(self, dim, nodes, omega_b, R, monkeypatch):
        # R / a = R for the omega = 0.5 atom, a = 1
        atom_a, atom_b = DrudeAtom(dim, 0.5), DrudeAtom(dim, omega_b)
        monkeypatch.setitem(oracle._NODES_PER_AXIS, dim, nodes)
        got = direct_first_order(atom_a, atom_b, R, overlap_tol=1.0)
        want = _decimal_tensor_sum(atom_a, atom_b, R, nodes)
        assert abs(decimal.Decimal(got) - want) <= decimal.Decimal("4e-18")

    def test_d2_far_field_matches_asymptotics(self):
        # the element-wise sum is 1.7e-5 off here, all of it rounding
        atom = PRESET.atom(2)
        R = 1000.0
        got = direct_first_order(atom, atom, R)
        want = (9.0 / 4.0) / R**5 + (225.0 / 8.0) / R**7
        assert got == pytest.approx(want, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_huge_separation_underflows_quietly(self, dim):
        # d = 1 sums the four-site kernel, which returned 1/R = 1e-300 here,
        # with warnings, while R^2 overflowed
        atom = PRESET.atom(dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = direct_first_order(atom, atom, 1e300)
        assert abs(got) < 1e-300


def _tensor_cloud(atom, xi, w):
    """Tensor grid of ground-density quadrature points, zero-padded to 3D."""
    ell = _oscillator_length(atom)
    axes = [ell * xi] * atom.dim
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.zeros((grids[0].size, 3))
    for c, g in enumerate(grids):
        pts[:, c] = g.ravel()
    weight = np.ones(grids[0].size)
    wgrids = np.meshgrid(*([w] * atom.dim), indexing="ij")
    for g in wgrids:
        weight *= g.ravel()
    return pts, weight


def _full_grid_sum(atom_a, atom_b, R, nodes):
    """The unfolded tensor sum: both atoms on their whole grids."""
    xi, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    return kernels.pair_expectation(
        R, *_tensor_cloud(atom_a, xi, w), *_tensor_cloud(atom_b, xi, w)
    )


class TestOffsetGrouping:
    PAIRS = {
        "equal": (0.5, 0.5),
        "unequal": (0.5, 0.75),
        "unequal-swapped": (0.75, 0.5),
    }

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("nodes", [6, 7])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_grouped_sum_equals_full_grid_sum(self, dim, nodes, pair, monkeypatch):
        # an odd count puts a node at 0; both put points on the y = z diagonal
        omega_a, omega_b = self.PAIRS[pair]
        atom_a = DrudeAtom(dim, omega=omega_a)
        atom_b = DrudeAtom(dim, omega=omega_b)
        monkeypatch.setitem(oracle._NODES_PER_AXIS, dim, nodes)
        for R in (10.0, 12.0):
            got = direct_first_order(atom_a, atom_b, R, overlap_tol=1.0)
            want = _full_grid_sum(atom_a, atom_b, R, nodes)
            assert abs(got - want) <= 1e-16

    @pytest.mark.parametrize("side", ["pair", "a", "b"])
    @pytest.mark.parametrize("nodes", [6, 7, 18, 48])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_offset_tables_keep_the_total(self, dim, nodes, side):
        xi, w = _gauss_hermite(nodes)
        x_a = _oscillator_length(DrudeAtom(dim, omega=0.5)) * xi
        x_b = _oscillator_length(DrudeAtom(dim, omega=0.75)) * xi
        nucleus = (np.zeros(1), np.ones(1))
        args = {
            "pair": (x_a, w, x_b, w),
            "a": (x_a, w) + nucleus,
            "b": nucleus + (x_b, w),
        }[side]
        t_x, w_x, q, w_q = _offset_tables(*args, dim)
        total = args[1].sum() * args[3].sum()
        assert w_x.sum() == pytest.approx(total, rel=1e-14, abs=0.0)
        assert w_q.sum() == pytest.approx(total ** (dim - 1), rel=1e-14, abs=0.0)
        assert np.all(np.diff(t_x) > 0.0)
        assert np.all(np.diff(q) > 0.0) and q[0] >= 0.0
        assert w_x.shape == t_x.shape and w_q.shape == q.shape

    @pytest.mark.parametrize("nodes", [4, 5])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_offset_tables_list_every_offset(self, dim, nodes):
        # the weight of each distinct (t_x, q), pair by pair, as the tables give it
        xi, w = _gauss_hermite(nodes)
        x_a = _oscillator_length(DrudeAtom(dim, omega=0.5)) * xi
        x_b = _oscillator_length(DrudeAtom(dim, omega=0.75)) * xi
        t_x, w_x, q, w_q = _offset_tables(x_a, w, x_b, w, dim)
        want = {}
        axes = [range(nodes)] * dim
        for a in itertools.product(*axes):
            for b in itertools.product(*axes):
                t = [x_a[i] - x_b[j] for i, j in zip(a, b)]
                key = (t[0], sum(c * c for c in t[1:]))
                weight = math.prod(w[i] * w[j] for i, j in zip(a, b))
                want[key] = want.get(key, 0.0) + weight
        got = {
            (tx, qq): wx * wq
            for tx, wx in zip(t_x.tolist(), w_x.tolist())
            for qq, wq in zip(q.tolist(), w_q.tolist())
        }
        assert set(got) == set(want)
        for key, weight in want.items():
            assert got[key] == pytest.approx(weight, rel=1e-13, abs=0.0)
        assert sum(got.values()) == pytest.approx(
            sum(want.values()), rel=1e-14, abs=0.0
        )

    def test_row_counts(self, monkeypatch):
        # d = 1 sums the kernel element-wise; d = 2, 3 sum h over offset tables
        calls = []
        real_pair = kernels.pair_expectation
        real_offset = kernels.offset_expectation

        def pair_spy(R, pts_a, w_a, pts_b, w_b):
            calls.append(("pair", pts_a.shape[0], pts_b.shape[0]))
            return real_pair(R, pts_a, w_a, pts_b, w_b)

        def offset_spy(R, t_x, w_x, q, w_q):
            calls.append(("offset", t_x.size, q.size))
            return real_offset(R, t_x, w_x, q, w_q)

        monkeypatch.setattr(kernels, "pair_expectation", pair_spy)
        monkeypatch.setattr(kernels, "offset_expectation", offset_spy)
        for dim in (1, 2, 3):
            atom = PRESET.atom(dim)
            direct_first_order(atom, atom, 12.0, overlap_tol=1.0)
        assert calls == [
            ("pair", 80, 80),
            ("offset", 1153, 577),
            ("offset", 48, 24),
            ("offset", 48, 24),
            ("offset", 163, 3403),
            ("offset", 18, 45),
            ("offset", 18, 45),
        ]

    @pytest.mark.parametrize("nodes", [6, 7, 18, 48, 80])
    def test_gauss_hermite_symmetric_bit_for_bit(self, nodes):
        xi, w = _gauss_hermite(nodes)
        assert np.array_equal(xi, -xi[::-1])
        assert np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("nodes", [7, 18, 28])
    def test_gauss_hermite_cached_read_only(self, nodes):
        xi, w = _gauss_hermite(nodes)
        assert _gauss_hermite(nodes) is _gauss_hermite(nodes)
        want_xi, want_w = np.polynomial.hermite.hermgauss(nodes)
        assert np.array_equal(xi, want_xi) and np.array_equal(w, want_w)
        assert not xi.flags.writeable and not w.flags.writeable


class TestBenchmarkOracleOps:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_round_passes_its_checks(self, seed, perfbench):
        # the benchmark's oracle workload checks every op against a route
        # that avoids the oracle (normal modes, closed forms, asymptotics);
        # an op it would count as a mismatch or a crash must fail here first
        perfbench("common")
        inproc = perfbench("inproc")
        workload = inproc.Oracle()
        ops = next(workload.rounds(seed))
        assert {op["kind"] for op in ops} == {
            "full", "truncated", "direct-d1", "direct-d2", "direct-d3"
        }
        for op in ops:
            _, outcome, detail = inproc.run_op(workload, op)
            assert (outcome, detail) == ("pass", None), op
