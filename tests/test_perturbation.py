"""Perturbative corrections: route agreements, selection rules, curves."""

import functools
import math

import numpy as np
import pytest

from vdwdim import kernels
from vdwdim.drude_exact import (
    InstabilityError,
    SeparationRangeError,
    exact_correction,
    shifted_frequencies,
)
from vdwdim.atoms import (
    DrudeAtom,
    Hydrogen1DAtom,
    NumericRadialAtom,
    RingAtom,
    _ProductStates,
)
from vdwdim.multipole import (
    InteractionSeries,
    evaluate_series,
    exact_interaction,
    expand_interaction,
    truncation_residual,
)
from vdwdim.perturbation import (
    DrudePreset,
    _sum_over_states,
    dominance_crossover,
    first_order_closed_form,
    first_order_expectation,
    first_order_via_potential,
    parity_cross_term,
    second_order_drude_closed_form,
    second_order_sum,
    total_energy_curve,
)


def _gaussian_radial_atom(dim, sigma=1.0):
    r = np.linspace(1e-9, 9.0 * sigma, 4000)
    rho = (2 * math.pi * sigma**2) ** (-dim / 2.0) * np.exp(
        -(r**2) / (2 * sigma**2)
    )
    return NumericRadialAtom(dim, r, rho)


def _per_monomial_first_order(series, atom_a, atom_b, R):
    """Sum of coeff <mono_A><mono_B> per power, one monomial at a time.

    Returns the per-power values and the summed term magnitudes, the scale of
    their rounding error.  Moments are memoized only to keep numeric atoms
    fast.
    """
    moment_a = functools.cache(atom_a.moment)
    moment_b = functools.cache(atom_b.moment)
    value, scale = {}, {}
    for power, monos in series.terms.items():
        total = size = 0.0
        for mono in monos:
            term = float(mono.coeff) * moment_a(mono.exp_a) * moment_b(mono.exp_b)
            total += term
            size += abs(term)
        value[power] = total / R**power
        scale[power] = size / R**power
    return value, scale


def _axis_ground_elements(atom, max_power, cutoff):
    """<n|x^e|0> of one axis of ``atom``, e <= max_power and n <= cutoff."""
    axis = DrudeAtom(1, atom.omega, atom.mass)
    levels = np.arange(cutoff + 1)[:, None]
    exps = np.arange(max_power + 1)[:, None]
    return axis.ladder_elements(exps, levels, levels[:1])[..., 0]


def _per_monomial_amplitudes(series, atom_a, atom_b, cutoff):
    """<n_a n_b|T_p|0 0> as a sum of one outer product per monomial."""
    states = _ProductStates(atom_a, atom_b, cutoff).states
    cols_a, cols_b = (
        _axis_ground_elements(atom, series.max_power, cutoff)
        for atom in (atom_a, atom_b)
    )
    amps = {}
    for power, monos in series.terms.items():
        total = np.zeros((len(states), len(states)))
        for mono in monos:
            fa = np.ones(len(states))
            fb = np.ones(len(states))
            for c in range(series.dim):
                fa = fa * cols_a[mono.exp_a[c]][states[:, c]]
                fb = fb * cols_b[mono.exp_b[c]][states[:, c]]
            total += float(mono.coeff) * np.outer(fa, fb)
        amps[power] = total
    return states, amps


def _first_order_atom(kind, dim):
    if kind == "drude":
        return DrudeAtom.bohr_matched(dim)
    if kind == "ring":
        return RingAtom(dim, radius=1.0)
    return _gaussian_radial_atom(dim)


def _skipped_power_series():
    """The d = 2 order-5 monomials filed under 1/R^9; powers 4 to 8 absent."""
    base = expand_interaction(2, 5)
    return InteractionSeries(2, 9, {3: base.terms[3], 9: base.terms[5]})


class TestFirstOrderExpectation:
    def test_low_orders_vanish_identically(self):
        for d in (1, 2, 3):
            atom = DrudeAtom.bohr_matched(d)
            per = first_order_expectation(
                expand_interaction(d, 7), atom, atom, 9.0
            )
            assert per[3] == 0.0
            assert per[4] == 0.0
            assert per[6] == 0.0

    def test_drude_1d_leading_coefficient(self):
        atom = DrudeAtom.bohr_matched(1)
        R = 10.0
        per = first_order_expectation(expand_interaction(1, 5), atom, atom, R)
        assert per[5] == pytest.approx(6.0 / R**5, rel=1e-12, abs=0.0)

    def test_drude_2d_leading_coefficient(self):
        atom = DrudeAtom.bohr_matched(2)
        R = 10.0
        per = first_order_expectation(expand_interaction(2, 5), atom, atom, R)
        assert per[5] == pytest.approx(2.25 / R**5, rel=1e-12, abs=0.0)

    def test_drude_3d_vanishes_through_order_nine(self):
        atom = DrudeAtom.bohr_matched(3)
        per = first_order_expectation(expand_interaction(3, 9), atom, atom, 10.0)
        assert all(v == 0.0 for v in per.values())

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_route_agreement_drude(self, dim):
        atom = DrudeAtom.bohr_matched(dim)
        R = 7.0
        per = first_order_expectation(
            expand_interaction(dim, 7), atom, atom, R
        )
        r5, r7 = first_order_closed_form(dim, atom.a, 3.0, 1.0, R)
        assert per[5] == pytest.approx(r5, rel=1e-12, abs=1e-300)
        assert per[7] == pytest.approx(r7, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_route_agreement_ring(self, dim):
        ring = RingAtom(dim, radius=1.0)
        R = 9.0
        per = first_order_expectation(
            expand_interaction(dim, 7), ring, ring, R
        )
        a = ring.characteristic_length()
        alpha = 1.0 if dim == 1 else ring.alpha()
        r5, r7 = first_order_closed_form(dim, a, alpha, 1.0, R)
        scale5 = a**4 / R**5
        scale7 = a**6 / R**7
        assert abs(per[5] - r5) <= 1e-12 * scale5
        assert abs(per[7] - r7) <= 1e-12 * scale7

    def test_route_agreement_numeric_radial(self):
        atom = _gaussian_radial_atom(2)
        R = 8.0
        per = first_order_expectation(expand_interaction(2, 7), atom, atom, R)
        a = atom.characteristic_length()
        r5, r7 = first_order_closed_form(2, a, atom.alpha(), 1.0, R)
        assert per[5] == pytest.approx(r5, rel=1e-8, abs=0.0)
        assert per[7] == pytest.approx(r7, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("kind", ["drude", "ring", "numeric"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_monomial_sum(self, dim, kind):
        atom = _first_order_atom(kind, dim)
        series = expand_interaction(dim, 12)
        R = 9.0
        got = first_order_expectation(series, atom, atom, R)
        want, scale = _per_monomial_first_order(series, atom, atom, R)
        assert list(got) == list(want)
        for power in want:
            if dim < 3:
                assert got[power] == pytest.approx(want[power], rel=1e-13, abs=0.0)
            else:
                # every d = 3 entry is zero in exact arithmetic, so both sides
                # are rounding noise of the summed terms
                assert abs(got[power] - want[power]) <= 1e-13 * scale[power]

    @pytest.mark.parametrize("kind", ["drude", "ring", "numeric"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_per_monomial_sum_at_every_order(self, dim, kind):
        # each power is summed monomial by monomial in table order, so the
        # values are the reference's bits, zeros of d = 3 included
        atom = _first_order_atom(kind, dim)
        for order in range(3, 13):
            series = expand_interaction(dim, order)
            got = first_order_expectation(series, atom, atom, 9.0)
            want, _ = _per_monomial_first_order(series, atom, atom, 9.0)
            assert got == want, order

    @pytest.mark.parametrize("kind", ["drude", "ring", "numeric"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_atom_takes_each_moment_once(self, dim, kind, monkeypatch):
        # the same atom on both sides reads its moments once; a second,
        # equal atom object reads them again and gives the same bits
        atom, twin = _first_order_atom(kind, dim), _first_order_atom(kind, dim)
        series = expand_interaction(dim, 9)
        calls = []
        for obj in (atom, twin):
            real = obj._moment
            monkeypatch.setattr(
                obj, "_moment", lambda e, real=real: calls.append(e) or real(e)
            )
        got = first_order_expectation(series, atom, atom, 9.0)
        once = len(calls)
        want = first_order_expectation(series, atom, twin, 9.0)
        assert once == len(kernels.series_form(series).rows_a)
        assert len(calls) == 3 * once
        assert got == want

    def test_power_read_from_monomial_table(self):
        series = _skipped_power_series()
        atom_a = DrudeAtom.bohr_matched(2)
        atom_b = RingAtom(2, radius=1.3)
        R = 6.0
        got = first_order_expectation(series, atom_a, atom_b, R)
        want, _ = _per_monomial_first_order(series, atom_a, atom_b, R)
        assert list(got) == [3, 9]
        assert got[3] == 0.0
        assert got[9] == pytest.approx(want[9], rel=1e-13, abs=0.0)
        assert got[9] != 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            first_order_expectation(
                expand_interaction(2, 5),
                DrudeAtom.bohr_matched(1),
                DrudeAtom.bohr_matched(1),
                5.0,
            )


class TestFirstOrderClosedForm:
    def test_reduced_unit_values(self):
        r5, r7 = first_order_closed_form(1, 1.0, 3.0, 1.0, 10.0)
        assert r5 == pytest.approx(6.0e-5, rel=1e-15, abs=0.0)
        assert r7 == pytest.approx(9.0e-6, rel=1e-15, abs=0.0)

    def test_three_dimensions_vanish(self):
        assert first_order_closed_form(3, 1.0, 3.0, 1.0, 5.0) == (0.0, 0.0)

    def test_collapsed_atom_vanishes(self):
        atom = Hydrogen1DAtom()
        r5, r7 = first_order_closed_form(1, atom.a, 3.0, 1.0, 5.0)
        assert (r5, r7) == (0.0, 0.0)


class TestPotentialRoute:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_drude(self, dim):
        atom = DrudeAtom.bohr_matched(dim)
        R = 11.0
        v5, v7 = first_order_via_potential(atom, atom, R)
        r5, r7 = first_order_closed_form(dim, atom.a, 3.0, 1.0, R)
        assert v5 == pytest.approx(r5, rel=1e-12, abs=1e-300)
        assert v7 == pytest.approx(r7, rel=1e-12, abs=1e-300)

    def test_numeric_radial_quadrature_limited(self):
        atom = _gaussian_radial_atom(1)
        R = 9.0
        v5, v7 = first_order_via_potential(atom, atom, R)
        per = first_order_expectation(expand_interaction(1, 7), atom, atom, R)
        assert v5 == pytest.approx(per[5], rel=1e-8, abs=0.0)
        assert v7 == pytest.approx(per[7], rel=1e-8, abs=0.0)


class TestSecondOrder:
    def test_closed_form_reduced_values(self):
        assert second_order_drude_closed_form(
            3, 1.0, 1.0, 0.5, 10.0
        ) == pytest.approx(-6.0e-6, rel=1e-15, abs=0.0)
        assert second_order_drude_closed_form(
            1, 1.0, 1.0, 0.5, 10.0
        ) == pytest.approx(-4.0e-6, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sum_matches_closed_form(self, dim):
        atom = DrudeAtom.bohr_matched(dim)
        series = expand_interaction(dim, 3)
        R = 8.0
        got = second_order_sum(series, atom, atom, R, cutoff=1)
        want = second_order_drude_closed_form(
            dim, atom.a, 1.0, atom.hbar_omega, R
        )
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dipole_selection_saturates_at_cutoff_one(self, dim):
        atom = DrudeAtom.bohr_matched(dim)
        series = expand_interaction(dim, 3)
        v1 = second_order_sum(series, atom, atom, 6.0, cutoff=1)
        v5 = second_order_sum(series, atom, atom, 6.0, cutoff=5)
        assert v1 == pytest.approx(v5, rel=1e-14, abs=0.0)

    def test_requires_drude(self):
        from vdwdim.atoms import AtomKindError

        series = expand_interaction(2, 3)
        with pytest.raises(AtomKindError):
            second_order_sum(series, RingAtom(2), RingAtom(2), 8.0)


SUM_OVER_STATES = {
    "second": lambda series, atom, **kw: second_order_sum(
        series, atom, atom, 8.0, **kw
    ),
    "cross": lambda series, atom, **kw: parity_cross_term(
        series, atom, atom, **kw
    ),
}


@pytest.mark.parametrize("call", SUM_OVER_STATES)
@pytest.mark.parametrize("cutoff", [2.0, 1.5, math.nan, True, "2"])
def test_sum_over_states_rejects_non_integer_cutoff(call, cutoff):
    series, atom = expand_interaction(1, 4), DrudeAtom.bohr_matched(1)
    with pytest.raises(ValueError, match="cutoff must be an integer"):
        SUM_OVER_STATES[call](series, atom, cutoff=cutoff)


@pytest.mark.parametrize("call", ["first", *SUM_OVER_STATES])
def test_atoms_must_match_series_dimension(call):
    # a d = 1 series with d = 2 atoms once gave -7.5e-6 and -0.0
    calls = {
        "first": lambda series, atom: first_order_expectation(
            series, atom, atom, 8.0
        ),
        **SUM_OVER_STATES,
    }
    series, atom = expand_interaction(1, 4), DrudeAtom.bohr_matched(2)
    with pytest.raises(ValueError, match="dimension"):
        calls[call](series, atom)


def _unit_amplitudes(series, atom_a, atom_b, cutoff):
    """<n_a n_b|T_p|0 0> per power: the contraction of a unit weighting on p."""
    form = kernels.series_form(series)
    states = _ProductStates(atom_a, atom_b, cutoff).states
    f_a, f_b = (
        atom.ladder_elements(rows[:, : series.dim], states, states[:1])[..., 0]
        for atom, rows in ((atom_a, form.rows_a), (atom_b, form.rows_b))
    )
    amps = {}
    for p in series.terms:
        unit = [float(q == p) for q in form.distinct_powers]
        amps[p] = form.contract(f_a, form.block_matrices(unit), f_b)
    return states, amps


def _energies(states, atom_a, atom_b):
    """E_n - E_0 per product state; 1.0 for the ground pair, which is skipped."""
    quanta = states.sum(axis=1).astype(float)
    energies = np.add.outer(atom_a.hbar_omega * quanta, atom_b.hbar_omega * quanta)
    energies[0, 0] = 1.0
    return energies


class TestSeriesAmplitudes:
    @staticmethod
    def _assert_matches(got, want):
        states, amps = got
        ref_states, ref_amps = want
        np.testing.assert_array_equal(states, ref_states)
        assert list(amps) == list(ref_amps)
        for power, ref in ref_amps.items():
            # mathematically-zero entries carry rounding noise on both sides,
            # so the gap is measured against the largest amplitude
            gap = np.max(np.abs(amps[power] - ref))
            assert gap <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_monomial_outer_products(self, dim):
        atom_a = DrudeAtom.bohr_matched(dim)
        atom_b = DrudeAtom(dim, omega=0.7, mass=1.3)
        series = expand_interaction(dim, 6)
        self._assert_matches(
            _unit_amplitudes(series, atom_a, atom_b, 4),
            _per_monomial_amplitudes(series, atom_a, atom_b, 4),
        )

    def test_power_read_from_monomial_table(self):
        series = _skipped_power_series()
        atom_a = DrudeAtom.bohr_matched(2)
        atom_b = DrudeAtom(2, omega=0.7, mass=1.3)
        got = _unit_amplitudes(series, atom_a, atom_b, 4)
        assert list(got[1]) == [3, 9]
        self._assert_matches(
            got, _per_monomial_amplitudes(series, atom_a, atom_b, 4)
        )

    @pytest.mark.parametrize("power", [3, 4, 5, 6])
    def test_unit_weighting_sums_per_monomial_amplitudes(self, power):
        # one unit weighting serves both sides of the sum over states
        atom_a = DrudeAtom.bohr_matched(3)
        atom_b = DrudeAtom(3, omega=0.7, mass=1.3)
        series = expand_interaction(3, 6)
        form = kernels.series_form(series)
        unit = [float(q == power) for q in form.distinct_powers]
        got = _sum_over_states(form, atom_a, atom_b, 4, unit)
        states, amps = _per_monomial_amplitudes(series, atom_a, atom_b, 4)
        terms = amps[power] ** 2 / _energies(states, atom_a, atom_b)
        terms[0, 0] = 0.0
        assert got == pytest.approx(-np.sum(terms), rel=1e-12, abs=0.0)


class TestSumOverStates:
    @staticmethod
    def _count_contractions(monkeypatch):
        calls = []
        real = kernels.SeriesForm.contract

        def spy(form, va, c_blocks, vb):
            calls.append(len(c_blocks))
            return real(form, va, c_blocks, vb)

        monkeypatch.setattr(kernels.SeriesForm, "contract", spy)
        return calls

    def test_second_order_contracts_once(self, monkeypatch):
        calls = self._count_contractions(monkeypatch)
        atom = DrudeAtom.bohr_matched(3)
        second_order_sum(expand_interaction(3, 8), atom, atom, 8.0, cutoff=2)
        assert len(calls) == 1

    @pytest.mark.parametrize("powers, count", [((3, 4), 2), ((3, 5), 2), ((5, 5), 1)])
    def test_cross_term_contracts_its_two_powers(self, monkeypatch, powers, count):
        calls = self._count_contractions(monkeypatch)
        atom = DrudeAtom.bohr_matched(2)
        series = expand_interaction(2, 10)
        parity_cross_term(series, atom, atom, cutoff=3, powers=powers)
        assert len(calls) == count

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_exact_zeros_keep_their_sign(self, dim):
        # each contraction starts from its first block's product; the
        # opposite-parity cross term and an empty series stay exactly -0.0
        atom = DrudeAtom.bohr_matched(dim)
        empty = InteractionSeries.from_dict({"dim": dim, "max_power": 3, "terms": []})
        values = [
            parity_cross_term(expand_interaction(dim, 6), atom, atom, cutoff=c)
            for c in (2, 5)
        ] + [second_order_sum(empty, atom, atom, 5.0, cutoff=2)]
        assert [v.hex() for v in values] == ["-0x0.0p+0"] * 3

    def test_contraction_without_blocks_is_zero(self):
        form = kernels.series_form(
            InteractionSeries.from_dict({"dim": 2, "max_power": 3, "terms": []})
        )
        out = form.contract(np.ones((0, 3)), [], np.ones((0, 2)))
        assert out.shape == (3, 2) and out.tobytes() == bytes(48)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_second_order_matches_per_power_sum(self, dim):
        # C(R) contracted once against the amplitudes of each power weighted
        # by R^-p and summed: the same sum, with other rounding
        atom_a = DrudeAtom.bohr_matched(dim)
        atom_b = DrudeAtom(dim, omega=0.7, mass=1.3)
        for max_power in range(3, 9):
            series = expand_interaction(dim, max_power)
            for cutoff in (1, 2, 3):
                states, amps = _unit_amplitudes(series, atom_a, atom_b, cutoff)
                energies = _energies(states, atom_a, atom_b)
                for R in (6.0, 8.0, 11.3):
                    coupling = sum(R ** -float(p) * amp for p, amp in amps.items())
                    coupling[0, 0] = 0.0
                    want = float(-np.sum(coupling**2 / energies))
                    got = second_order_sum(series, atom_a, atom_b, R, cutoff=cutoff)
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


class TestParityExclusion:
    def test_cross_term_vanishes_1d(self):
        atom = DrudeAtom.bohr_matched(1)
        series = expand_interaction(1, 4)
        for cutoff in (2, 4, 6, 8):
            assert abs(
                parity_cross_term(series, atom, atom, cutoff=cutoff)
            ) <= 1e-14

    def test_cross_term_vanishes_2d(self):
        atom = DrudeAtom.bohr_matched(2)
        series = expand_interaction(2, 4)
        assert abs(parity_cross_term(series, atom, atom, cutoff=4)) <= 1e-14

    @pytest.mark.parametrize("cutoff", [0, -1])
    def test_rejects_cutoff_below_one(self, cutoff):
        atom = DrudeAtom.bohr_matched(1)
        series = expand_interaction(1, 5)
        with pytest.raises(ValueError, match="cutoff"):
            parity_cross_term(series, atom, atom, cutoff=cutoff)

    def test_diagnostic_mode_reproduces_second_order(self):
        atom = DrudeAtom.bohr_matched(1)
        series34 = expand_interaction(1, 4)
        series3 = expand_interaction(1, 3)
        diag = parity_cross_term(series34, atom, atom, cutoff=6, powers=(3, 3))
        want = second_order_sum(series3, atom, atom, 1.0, cutoff=6)
        assert diag == pytest.approx(want, rel=1e-13, abs=0.0)
        assert diag != 0.0


def _per_monomial_operator(series, atom_a, atom_b, cutoff, R):
    """<s_a s_b|C(R)|k_a k_b> over all states, one monomial at a time, pair order."""
    states = _ProductStates(atom_a, atom_b, cutoff).states
    size = len(states)
    levels = np.arange(cutoff + 1)[:, None]
    exps = np.arange(series.max_power + 1)[:, None]
    tables = [
        DrudeAtom(1, atom.omega, atom.mass).ladder_elements(exps, levels, levels)
        for atom in (atom_a, atom_b)
    ]
    total = np.zeros((size, size, size, size))
    for power, monos in series.terms.items():
        for mono in monos:
            fa, fb = np.ones((size, size)), np.ones((size, size))
            for c in range(series.dim):
                fa = fa * tables[0][mono.exp_a[c]][np.ix_(states[:, c], states[:, c])]
                fb = fb * tables[1][mono.exp_b[c]][np.ix_(states[:, c], states[:, c])]
            total += float(mono.coeff) * R ** -float(power) * np.einsum(
                "ac,bd->abcd", fa, fb
            )
    return total.reshape(size * size, size * size)


def _pair_order(m, s):
    """M[(s_a, k_a), (s_b, k_b)] of S states at [(s_a, s_b), (k_a, k_b)]."""
    return m.reshape(s, s, s, s).transpose(0, 2, 1, 3).reshape(s * s, s * s)


class TestProductStateOperator:
    """``_ProductStates`` with every pair state as ket, in d = 2 and 3.

    The coupling comes in the contraction's layout and is compared in pair
    order, |s_a s_b> at s_a S + s_b.
    """

    R = 8.0

    def _operator(self, dim, atom_b=None):
        atom = DrudeAtom.bohr_matched(dim)
        pairs = _ProductStates(atom, atom if atom_b is None else atom_b, 3)
        form = kernels.series_form(expand_interaction(dim, 6))
        weights = form.inverse_powers(self.R)
        op = pairs.coupling(form, [weights], pairs.states)[0]
        return pairs, form, weights, _pair_order(op, len(pairs.states))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hermitian(self, dim):
        pairs, _, _, op = self._operator(dim)
        assert op.shape == (len(pairs.states) ** 2,) * 2
        assert np.abs(op - op.T).max() <= 1e-15 * np.abs(op).max()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ground_column_is_the_sum_over_states_amplitude(self, dim):
        # _sum_over_states reads the operator with the ground state as its
        # only ket; the full operator's |00> column holds the same amplitudes
        pairs, form, weights, op = self._operator(dim)
        ground = pairs.coupling(form, [weights], pairs.states[:1])[0]
        assert ground.shape == (len(pairs.states),) * 2
        gap = np.abs(op[:, 0] - ground.ravel()).max()
        assert gap <= 1e-15 * np.abs(ground).max()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_monomial_products(self, dim):
        atom_b = DrudeAtom(dim, omega=0.7, mass=1.3)
        pairs, _, _, op = self._operator(dim, atom_b)
        want = _per_monomial_operator(
            expand_interaction(dim, 6), pairs.atoms[0], atom_b, 3, self.R
        )
        assert np.abs(op - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_levels_in_pair_order(self, dim):
        atom_a, atom_b = DrudeAtom.bohr_matched(dim), DrudeAtom(dim, 0.7, 1.3)
        pairs = _ProductStates(atom_a, atom_b, 3)
        quanta = pairs.states.sum(axis=1).tolist()
        want = [0.5 * qa + 0.7 * qb for qa in quanta for qb in quanta]
        assert pairs.levels.tolist() == want


class TestDefaultReach:
    """With no cutoff a sum over states runs to its series' exact reach."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("max_power", [5, 8, 12])
    def test_second_order_reaches_n_minus_two(self, dim, max_power):
        # x^e |0> has at most |e| quanta, and an order-N expansion's rows
        # reach degree N - 2: the default is that cutoff, one less moves the
        # sum, and more states add only exact zeros, which move the rounding
        # of the final sum by at most 2 ulp (measured)
        series, atom = expand_interaction(dim, max_power), DrudeAtom.bohr_matched(dim)
        for atom_b in (atom, DrudeAtom(dim, omega=0.7, mass=1.3)):
            def at(cutoff=None):
                return second_order_sum(series, atom, atom_b, 8.0, cutoff=cutoff)

            got = at()
            assert got.hex() == at(max_power - 2).hex()
            assert got != at(max_power - 3)
            assert got == pytest.approx(at(max_power + 6), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("max_power", [5, 8, 12])
    def test_cross_term_is_saturated(self, dim, max_power):
        series, atom = expand_interaction(dim, max_power), DrudeAtom.bohr_matched(dim)
        top = (max_power, max_power)
        got = parity_cross_term(series, atom, atom, powers=top)
        want = parity_cross_term(series, atom, atom, cutoff=max_power + 6, powers=top)
        assert abs(got - want) <= np.spacing(abs(want))
        reach = parity_cross_term(series, atom, atom, cutoff=max_power - 2, powers=top)
        assert got.hex() == reach.hex()

    def test_reach_is_that_of_the_touched_powers(self):
        # the dipole terms of an order-12 series reach one quantum per atom
        series, atom = expand_interaction(3, 12), DrudeAtom.bohr_matched(3)
        got = parity_cross_term(series, atom, atom, powers=(3, 3))
        assert got.hex() == parity_cross_term(
            series, atom, atom, cutoff=1, powers=(3, 3)
        ).hex()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_exact_zeros_keep_their_sign(self, dim):
        atom = DrudeAtom.bohr_matched(dim)
        empty = InteractionSeries.from_dict({"dim": dim, "max_power": 3, "terms": []})
        values = [
            parity_cross_term(expand_interaction(dim, 6), atom, atom),
            second_order_sum(empty, atom, atom, 5.0),
        ]
        assert [v.hex() for v in values] == ["-0x0.0p+0"] * 2


class TestEnergyCurve:
    def test_reduced_values_d1_at_five(self):
        row = total_energy_curve(1, [5.0])[0]
        assert row.first_order_r5 == pytest.approx(6.0 / 3125.0, rel=1e-12, abs=0.0)
        assert row.second_order_r6 == pytest.approx(-4.0 / 15625.0, rel=1e-12, abs=0.0)
        assert row.first_order_r7 == pytest.approx(90.0 / 78125.0, rel=1e-12, abs=0.0)

    def test_d3_pure_attraction(self):
        for row in total_energy_curve(3, [3.0, 5.0, 10.0]):
            assert row.first_order_r5 == 0.0
            assert row.first_order_r7 == 0.0
            assert row.total_truncated == pytest.approx(
                -6.0 / row.r_tilde**6, rel=1e-12, abs=0.0
            )

    def test_d2_r5_dominates_at_five(self):
        row = total_energy_curve(2, [5.0])[0]
        assert row.first_order_r5 == pytest.approx(7.2e-4, rel=1e-12, abs=0.0)
        assert abs(row.second_order_r6) == pytest.approx(3.2e-4, rel=1e-12, abs=0.0)
        assert row.first_order_r5 > abs(row.second_order_r6)

    def test_validity_flag(self):
        rows = total_energy_curve(1, [1.5, 2.0, 2.5])
        assert not rows[0].exact_valid and rows[0].exact is None
        assert not rows[1].exact_valid
        assert rows[2].exact_valid and rows[2].exact < 0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_separation(self, bad):
        with pytest.raises(ValueError):
            total_energy_curve(1, [5.0, bad])

    def test_one_stability_decision_at_the_radius(self):
        # custom presets at validity_radius() and one ulp either side: the
        # curve never raises, and a row lacks exact exactly where the
        # normal-mode route calls the pair unstable
        rng = np.random.default_rng(1401)
        lows, highs = np.log([0.05, 0.3, 0.1]), np.log([5.0, 3.0, 20.0])
        for _ in range(300):
            hw, a, k = (float(v) for v in np.exp(rng.uniform(lows, highs)))
            preset = DrudePreset.custom(hbar_omega=hw, a=a, k=k)
            rv = preset.validity_radius()
            grid = [np.nextafter(rv, 0.0), rv, np.nextafter(rv, np.inf)]
            dim = int(rng.integers(1, 4))
            for row in total_energy_curve(dim, grid, preset):
                R = row.r_tilde * preset.a
                modes = shifted_frequencies(dim, preset.omega, k, preset.mass, R)
                try:
                    exact_correction(dim, preset.omega, k, preset.mass, R)
                    stable = True
                except InstabilityError:
                    stable = False
                assert row.exact_valid is stable
                assert (row.exact is not None) is stable
                assert modes.valid is stable

    @pytest.mark.parametrize("hw, a", [(1e-150, 1e160), (1e150, 1e-160)])
    def test_rows_where_the_mass_leaves_float_range(self, hw, a):
        # a^2 overflows (underflows), so the preset's mass is 0.0 (inf) and
        # the rows take the normal-mode route at a = k = 1, where the same
        # pair has hbar omega = hw * a
        preset = DrudePreset.custom(hbar_omega=hw, a=a)
        same = DrudePreset.custom(hbar_omega=hw * a)
        grid = [3.0, 12.0, 5e3]
        for dim in (1, 2, 3):
            rows = total_energy_curve(dim, grid, preset)
            assert rows == total_energy_curve(dim, grid, same)
            assert [row.exact_valid for row in rows] == [a > 1, a > 1, True]

    def test_sign_law(self):
        for dim in (1, 2):
            for row in total_energy_curve(dim, np.linspace(3, 20, 12)):
                assert row.first_order_r5 > 0
                assert row.first_order_r7 > 0
                assert row.second_order_r6 < 0
                assert row.total_truncated > 0
        for row in total_energy_curve(3, np.linspace(3, 20, 12)):
            assert row.second_order_r6 < 0


class TestDominanceCrossover:
    def test_within_expected_window(self):
        assert 3.0 <= dominance_crossover(1) <= 6.0
        assert 3.0 <= dominance_crossover(2) <= 6.0

    def test_frozen_values(self):
        # roots of 6 R^2 - 4 R - 90 and 2.25 R^2 - 5 R - 28.125
        assert dominance_crossover(1) == pytest.approx(
            (4 + math.sqrt(16 + 4 * 6 * 90)) / 12.0, rel=1e-10, abs=0.0
        )
        assert dominance_crossover(2) == pytest.approx(
            (5 + math.sqrt(25 + 4 * 2.25 * 28.125)) / 4.5, rel=1e-10, abs=0.0
        )

    def test_rejected_for_d3(self):
        with pytest.raises(ValueError):
            dominance_crossover(3)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_custom_preset_gap_changes_sign(self, dim):
        preset = DrudePreset.custom(hbar_omega=0.8, a=2.0, k=3.0)
        rt = dominance_crossover(dim, preset)

        def gap(r_tilde):
            R = r_tilde * preset.a
            r5, r7 = first_order_closed_form(dim, preset.a, 3.0, preset.k, R)
            r6 = second_order_drude_closed_form(
                dim, preset.a, preset.k, preset.hbar_omega, R
            )
            return r5 - abs(r6) - r7

        assert gap(rt * (1 - 1e-9)) < 0 < gap(rt * (1 + 1e-9))

    def test_rejected_without_coupling(self):
        with pytest.raises(ValueError):
            dominance_crossover(1, DrudePreset.custom(hbar_omega=0.5, k=0.0))


class TestPreset:
    def test_bohr_matching(self):
        preset = DrudePreset.bohr()
        atom = preset.atom(1)
        assert atom.a == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert atom.hbar_omega == pytest.approx(
            preset.k / (2 * preset.a), rel=1e-15, abs=0.0
        )
        assert preset.validity_radius() == pytest.approx(2.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hbar_omega": 1.0, "a": 0.0},
            {"hbar_omega": 1.0, "a": -1.0},
            {"hbar_omega": 1.0, "a": math.inf},
            {"hbar_omega": 0.0},
            {"hbar_omega": math.nan},
            {"hbar_omega": math.inf},
            {"hbar_omega": 1.0, "k": -1.0},
            {"hbar_omega": 1.0, "k": math.nan},
            {"hbar_omega": 1.0, "k": math.inf},
        ],
    )
    def test_custom_rejects_bad_units(self, kwargs):
        with pytest.raises(ValueError):
            DrudePreset.custom(**kwargs)

    def test_curve_needs_coupling(self):
        preset = DrudePreset.custom(hbar_omega=1.0, k=0.0)
        with pytest.raises(ValueError):
            total_energy_curve(1, [5.0], preset)

    def test_uncoupled_validity_radius(self):
        assert DrudePreset.custom(hbar_omega=1.0, k=0.0).validity_radius() == 0.0

    @pytest.mark.parametrize("a, mass", [(1e200, 0.0), (1e-200, math.inf)])
    def test_mass_out_of_float_range(self, a, mass):
        preset = DrudePreset.custom(hbar_omega=1.0, a=a)
        assert preset.mass == mass
        assert preset.validity_radius() == pytest.approx(
            (4.0 / a) ** (1.0 / 3.0), rel=1e-15, abs=0.0
        )

    def test_custom_override(self):
        preset = DrudePreset.custom(hbar_omega=0.8, a=2.0, k=3.0)
        atom = preset.atom(2)
        assert atom.a == pytest.approx(2.0, rel=1e-14, abs=0.0)
        assert atom.hbar_omega == pytest.approx(0.8, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("bad_r", [0.0, -9.0, math.nan, math.inf])
def test_entry_points_reject_bad_separation(bad_r):
    series = expand_interaction(1, 5)
    atom = DrudeAtom.bohr_matched(1)
    calls = [
        lambda: evaluate_series(series, bad_r, [0.1], [0.2]),
        lambda: exact_interaction(bad_r, [0.1], [0.2]),
        lambda: first_order_expectation(series, atom, atom, bad_r),
        lambda: first_order_via_potential(atom, atom, bad_r),
        lambda: second_order_sum(series, atom, atom, bad_r),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="separation"):
            call()


def _routes_in_r(R):
    """The routes in powers of R: one configuration, first and second order."""
    series = expand_interaction(1, 7)
    atom = DrudeAtom.bohr_matched(1)
    return [
        lambda: evaluate_series(series, R, [0.1], [0.2]),
        lambda: first_order_expectation(series, atom, atom, R),
        lambda: first_order_via_potential(atom, atom, R),
        lambda: second_order_sum(series, atom, atom, R),
        lambda: truncation_residual(series, [R], 10, 1.0),
    ]


def test_routes_name_r_where_terms_leave_float_range():
    # R^n underflows to 0.0 or R^-n overflows: these raised
    # ZeroDivisionError, OverflowError or a numpy RuntimeWarning
    for call in _routes_in_r(1e-100):
        with pytest.raises(SeparationRangeError, match="not finite at R = 1e-100"):
            call()


def test_routes_far_out_are_finite():
    # an R^n that overflows counts as inf, so its term is 0.0 or -0.0; the
    # first order, both routes, and the second order raised OverflowError
    evaluate, first, potential, second, residual = (
        call() for call in _routes_in_r(1e100)
    )
    assert math.isfinite(evaluate) and math.isfinite(second)
    assert first == {3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0, 7: 0.0}
    assert potential == (0.0, 0.0)
    assert np.isfinite(residual.max_residual).all()


class TestBenchmarkSeriesOps:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_round_passes_its_checks(self, seed, perfbench):
        # the benchmark's series workload checks every op against closed
        # forms and the Legendre remainder bound; an op it would count as a
        # mismatch or a crash must fail here first
        perfbench("common")
        inproc = perfbench("inproc")
        workload = inproc.Series()
        ops = next(workload.rounds(seed))
        assert len(ops) == 24
        for op in ops:
            _, outcome, detail = inproc.run_op(workload, op)
            assert (outcome, detail) == ("pass", None), op
