"""Brute-force oracles against the analytic results they are meant to check."""

import math

import numpy as np
import pytest
from scipy.special import dawsn, i0e

from vdwdim import kernels, oracle
from vdwdim.atoms import AtomKindError, DrudeAtom, RingAtom
from vdwdim.drude_exact import exact_correction
from vdwdim.oracle import (
    ConvergenceError,
    OverlapError,
    _corrections,
    _coupling_matrix,
    _exchange_blocks,
    _fold_transverse,
    _gauss_hermite,
    _hamiltonian,
    _hermite_columns,
    _nodes_off_nucleus,
    _oscillator_length,
    _tensor_cloud,
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

    @pytest.mark.parametrize("cutoff", [10, 14, 20])
    def test_full_coupling_equals_abs_form_assembly(self, cutoff, monkeypatch):
        # on the x-axis sqrt(fl(t * t)) == |t|, so the shared four-site
        # kernel gives the |.| form of the grid, and the coupling, bit for bit
        atom = PRESET.atom(1)
        R = 14.0
        nodes = _nodes_off_nucleus(R / _oscillator_length(atom), 2 * cutoff + 8)
        got = _coupling_matrix(atom, R, "full", 3, cutoff, nodes)

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
        want = _coupling_matrix(atom, R, "full", 3, cutoff, nodes)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("max_power", [3, 8])
    def test_truncated_mode_converts_its_series_once(self, max_power, monkeypatch):
        # the cached form of the expansion goes straight to the grid; the
        # coupling equals that of a form rebuilt from the flat table, bit
        # for bit
        from vdwdim.multipole import expand_interaction

        atom = PRESET.atom(1)
        R, cutoff = 11.0, 8
        nodes = 2 * cutoff + 8
        form = kernels.series_form(expand_interaction(1, max_power))
        core = kernels.series_form_grid_1d
        monkeypatch.setattr(
            kernels, "series_form_grid_1d",
            lambda f, R, xa, xb: core(
                kernels.SeriesForm.from_arrays(*f.arrays), R, xa, xb
            ),
        )
        want = _coupling_matrix(atom, R, "truncated", max_power, cutoff, nodes)
        monkeypatch.undo()

        def no_rebuild(*table):
            raise AssertionError("form rebuilt from the flat table")

        monkeypatch.setattr(kernels.SeriesForm, "from_arrays", no_rebuild)
        got = _coupling_matrix(atom, R, "truncated", max_power, cutoff, nodes)
        assert kernels.series_form(expand_interaction(1, max_power)) is form
        assert np.array_equal(got, want)


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
        assert _diag_nodes(atom, 8.0, "full", 17) == 43
        assert rep.corrections[-1] == res.correction
        assert rep.successive_differences() == (res.convergence_error,)
        assert all(0.0 < c < 1e-3 for c in rep.corrections)

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


def _diag_nodes(atom, R, mode, cutoff):
    """The node count ``oscillator_basis_diag`` uses for this call."""
    nodes = 2 * cutoff + 8
    if mode == "full":
        nodes = _nodes_off_nucleus(R / _oscillator_length(atom), nodes)
    return nodes


def _exchange(n):
    """P|ij> = (-1)^(i+j) |ji> on the flattened product basis, as (perm, sign)."""
    i, j = np.divmod(np.arange(n * n), n)
    return j * n + i, (-1.0) ** (i + j)


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
            ham = _hamiltonian(
                atom, R, mode, 3, cutoff, _diag_nodes(atom, R, mode, cutoff)
            )
            swapped = sign[:, None] * ham[np.ix_(perm, perm)] * sign
            assert np.abs(ham - swapped).max() <= 1e-11 * np.abs(ham).max()

    @pytest.mark.parametrize("R", SEPARATIONS)
    @pytest.mark.parametrize("mode", ["full", "truncated"])
    def test_split_matches_whole_block(self, mode, R):
        atom = PRESET.atom(1)
        for cutoff in range(4, 21):
            ham = _hamiltonian(
                atom, R, mode, 3, cutoff, _diag_nodes(atom, R, mode, cutoff)
            )
            blocks = _exchange_blocks(ham)
            split = _corrections(blocks, (cutoff,))[0] + atom.hbar_omega
            spectrum = np.linalg.eigvalsh(ham)
            whole = spectrum[0] + atom.hbar_omega
            bound = 1e-15 * abs(whole)
            if mode == "full" and R < 8.0:
                # the clouds overlap: coincidence nodes give a spectrum from
                # about -5 to 229, and eigvalsh is accurate to a few eps ||H||
                # (worst measured 1.9e-15 ||H||)
                bound = 1e-14 * np.abs(spectrum).max()
            assert abs(split - whole) <= bound

    def test_ground_state_taken_from_either_sector(self):
        # |01> and |10> coupled by -2: (|01> + |10>) / sqrt(2), which is
        # P = -1 since (-1)^(0+1) = -1, sits at hbar omega - 2 below |00>
        n = 4
        i, j = np.divmod(np.arange(n * n), n)
        ham = np.diag(0.5 * (i + j))
        ham[1, n] = ham[n, 1] = -2.0
        plus, minus = _exchange_blocks(ham)
        assert np.linalg.eigvalsh(plus)[0] == 0.0
        assert np.linalg.eigvalsh(minus)[0] == pytest.approx(-1.5, abs=1e-15)
        lowest = np.linalg.eigvalsh(minus)[0]
        assert _corrections((plus, minus), (n - 1,))[0] == lowest

    @pytest.mark.parametrize("mode", ["full", "truncated"])
    def test_eigensolves_see_only_the_sector_blocks(self, mode, monkeypatch):
        atom = PRESET.atom(1)
        # warm the Gauss-Hermite cache: hermgauss runs eigvalsh of its own
        oscillator_basis_diag(atom, 13.0, mode=mode, cutoff=12, overlap_tol=1.0)
        convergence_report(
            atom, 13.0, mode=mode, cutoffs=(6, 10, 14), overlap_tol=1.0
        )
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
        oscillator_basis_diag(atom, 13.0, mode=mode, cutoff=12, overlap_tol=1.0)
        convergence_report(
            atom, 13.0, mode=mode, cutoffs=(6, 10, 14), overlap_tol=1.0
        )
        # the P = +1 block of every rung, and one factorization of the
        # P = -1 block per solve, at its largest cutoff
        rungs = (12, 10) + (6, 10, 14)
        assert sizes == [(c + 1) * (c + 2) // 2 for c in rungs]
        assert factored == [12 * 13 // 2, 14 * 15 // 2]
        assert not {(c + 1) ** 2 for c in rungs} & set(sizes + factored)

    def test_ground_state_in_minus_sector_through_the_solver(self, monkeypatch):
        # as in test_ground_state_taken_from_either_sector, |01> and |10>
        # coupled by -2 put a P = -1 state at hbar omega - 2; a weak
        # exchange-symmetric coupling of |01>, |10> to |0c>, |c0> lowers it
        # only in the basis with cutoff c, so the convergence error is the
        # drop of the P = -1 eigenvalue
        atom = PRESET.atom(1)
        cutoff, n = 5, 6
        i, j = np.divmod(np.arange(n * n), n)
        ham = np.diag(atom.hbar_omega * (i + j))
        ham[1, n] = ham[n, 1] = -2.0
        g = 1e-4
        ham[1, cutoff] = ham[cutoff, 1] = g
        ham[n, cutoff * n] = ham[cutoff * n, n] = (-1.0) ** (1 + cutoff) * g
        monkeypatch.setattr(oracle, "_hamiltonian", lambda *args: ham.copy())
        res = oscillator_basis_diag(atom, 13.0, cutoff=cutoff, overlap_tol=1.0)
        keep = (i <= cutoff - 2) & (j <= cutoff - 2)
        fine = np.linalg.eigvalsh(ham)[0]
        coarse = np.linalg.eigvalsh(ham[np.ix_(keep, keep)])[0]
        _, minus = _exchange_blocks(ham)
        assert fine < coarse == pytest.approx(-1.5, abs=1e-15)
        assert res.correction == pytest.approx(fine, rel=1e-15, abs=0.0)
        assert res.correction == np.linalg.eigvalsh(minus)[0]
        assert res.convergence_error == pytest.approx(
            coarse - fine, rel=1e-6, abs=0.0
        )
        assert res.convergence_error > 0.0

    @pytest.mark.parametrize("gap, solved", [(0.0, True), (0.5, True), (4.0, False)])
    def test_sectors_within_tau_fall_back_to_eigvalsh(self, gap, solved, monkeypatch):
        # cutoffs 3 and 5: P = +1 blocks of 10 and 21 states, P = -1 of 6
        # and 15.  Every P = +1 block has lowest eigenvalue mu = -1, and the
        # P = -1 block sits gap * tau above it, where tau is the Cholesky
        # backward-error bound of _sector_above (4 (n + 1) u 2 n |mu| to
        # first order)
        mu, n = -1.0, 15
        tau = 4 * (n + 1) * 2.0**-53 * 2 * n * abs(mu)
        plus = np.diag(np.linspace(mu, 3.0, 21))
        minus = np.diag(np.full(n, mu + gap * tau))
        sizes = []
        real = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        assert oracle._corrections((plus, minus), (3, 5)) == (mu, mu)
        assert sizes == [10, 21] + ([6, 15] if solved else [])

    def test_minus_sector_between_the_rungs(self):
        # the P = -1 block (-1) lies below the P = +1 value of cutoff 3 (0)
        # and above that of cutoff 5 (-2): it is the ground state of the
        # smaller basis only, so the certificate must be taken against the
        # highest P = +1 value in play
        plus = np.diag(np.r_[np.arange(10.0), -2.0, np.arange(10.0)])
        minus = np.diag(np.full(15, -1.0))
        assert oracle._corrections((plus, minus), (3, 5)) == (-1.0, -2.0)

    @pytest.mark.parametrize("mode", ["full", "truncated"])
    @pytest.mark.parametrize("R", [2.5, 8.0, 13.0, 20.0])
    def test_report_rungs_are_the_per_rung_minimum(self, mode, R):
        atom = PRESET.atom(1)
        cutoffs = (4, 7, 10, 13)
        rep = convergence_report(
            atom, R, mode=mode, cutoffs=cutoffs, overlap_tol=1.0
        )
        plus, minus = _exchange_blocks(
            _hamiltonian(atom, R, mode, 3, 13, _diag_nodes(atom, R, mode, 13))
        )
        want = tuple(
            min(
                float(np.linalg.eigvalsh(plus[:p, :p])[0]),
                float(np.linalg.eigvalsh(minus[:q, :q])[0]),
            )
            for p, q in (((c + 1) * (c + 2) // 2, c * (c + 1) // 2) for c in cutoffs)
        )
        assert rep.corrections == want


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


def _full_grid_sum(atom_a, atom_b, R, nodes):
    """The unfolded tensor sum: both atoms on their whole grids."""
    xi, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    return kernels.pair_expectation(
        R, *_tensor_cloud(atom_a, xi, w), *_tensor_cloud(atom_b, xi, w)
    )


class TestTransverseFold:
    PAIRS = {
        "equal": (0.5, 0.5),
        "unequal": (0.5, 0.75),
        "unequal-swapped": (0.75, 0.5),
    }

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("nodes", [6, 7])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_folded_sum_equals_full_grid_sum(self, dim, nodes, pair, monkeypatch):
        # an odd count puts a node at 0; both put points on the y = z diagonal
        omega_a, omega_b = self.PAIRS[pair]
        atom_a = DrudeAtom(dim, omega=omega_a)
        atom_b = DrudeAtom(dim, omega=omega_b)
        monkeypatch.setitem(oracle._NODES_PER_AXIS, dim, nodes)
        for R in (10.0, 12.0):
            got = direct_first_order(atom_a, atom_b, R, overlap_tol=1.0)
            want = _full_grid_sum(atom_a, atom_b, R, nodes)
            assert abs(got - want) <= 1e-16

    @pytest.mark.parametrize("nodes", [6, 7, 18, 48])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_folded_weights_keep_the_total(self, dim, nodes):
        xi, w = _gauss_hermite(nodes)
        pts, weight = _tensor_cloud(DrudeAtom(dim, omega=0.5), xi, w)
        folded_pts, folded = _fold_transverse(pts, weight, dim)
        assert folded.sum() == pytest.approx(weight.sum(), rel=1e-14, abs=0.0)
        assert folded.size < weight.size or dim == 1
        assert np.all(folded_pts[:, 1:dim] >= 0.0)
        assert np.all(folded_pts[:, 1] >= folded_pts[:, 2])

    def test_row_counts(self, monkeypatch):
        # atom A is folded, atom B keeps its full grid
        rows = []
        real = kernels.pair_expectation

        def spy(R, pts_a, w_a, pts_b, w_b):
            rows.append((pts_a.shape[0], pts_b.shape[0]))
            return real(R, pts_a, w_a, pts_b, w_b)

        monkeypatch.setattr(kernels, "pair_expectation", spy)
        for dim in (1, 2, 3):
            atom = PRESET.atom(dim)
            direct_first_order(atom, atom, 12.0, overlap_tol=1.0)
        assert rows == [(80, 80), (1152, 2304), (810, 5832)]

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
