"""Argument checks at every public entry point: dimensions and counts.

Each entry point takes its ``dim`` or count through the shared checks of
``drude_exact``, so all reject the same inputs with a ValueError naming the
argument and take a numpy integer as a plain int.
"""

from fractions import Fraction

import numpy as np
import pytest

from vdwdim.atoms import DrudeAtom, NumericRadialAtom, RingAtom, drude_spectrum
from vdwdim.drude_exact import (
    DrudePreset,
    dominance_crossover,
    exact_correction,
    first_order_closed_form,
    second_order_drude_closed_form,
    series_residual,
    shifted_frequencies,
    total_energy_curve,
)
from vdwdim.kernels import truncation_residual
from vdwdim.multipole import (
    MAX_EXPANSION_POWER,
    ExpansionCapError,
    InteractionSeries,
    Monomial,
    expand_interaction,
)
from vdwdim.oracle import OverlapError, convergence_report, oscillator_basis_diag
from vdwdim.perturbation import (
    first_order_expectation,
    parity_cross_term,
    second_order_sum,
)

NOT_INTEGERS = [True, 2.0, "2", None]


def _numeric_atom(dim):
    r = np.linspace(0.0, 8.0, 200)
    return NumericRadialAtom(dim, r, np.exp(-(r**2) / 2.0))


def _kinds(value):
    """``value`` with every leaf replaced by its type, for comparing types."""
    if isinstance(value, (tuple, list)):
        return [_kinds(v) for v in value]
    return type(value)


# each entry maps a dim to what the call returns that depends on it
DIM_ENTRY_POINTS = {
    "expand_interaction": lambda d: expand_interaction(d, 5).dim,
    "InteractionSeries.from_dict": lambda d: InteractionSeries.from_dict(
        {"dim": d, "max_power": 3, "terms": []}
    ).dim,
    "DrudeAtom": lambda d: DrudeAtom(d, omega=0.5).dim,
    "RingAtom": lambda d: RingAtom(d).dim,
    "NumericRadialAtom": lambda d: _numeric_atom(d).dim,
    "shifted_frequencies": lambda d: sorted(
        shifted_frequencies(d, 0.5, 1.0, 1.0, 5.0).multiplicities.items()
    ),
    "exact_correction": lambda d: exact_correction(d, 0.5, 1.0, 1.0, 5.0),
    "first_order_closed_form": lambda d: first_order_closed_form(
        d, 1.0, 3.0, 1.0, 5.0
    ),
    "second_order_drude_closed_form": lambda d: second_order_drude_closed_form(
        d, 1.0, 1.0, 0.5, 5.0
    ),
    "total_energy_curve": lambda d: [
        (row.dim, row.total_truncated, row.exact)
        for row in total_energy_curve(d, [5.0, 8.0])
    ],
    "dominance_crossover": dominance_crossover,
    "series_residual": lambda d: series_residual(
        d, DrudePreset.bohr(), [10.0, 20.0]
    ).residual.tolist(),
}


@pytest.mark.parametrize("entry", DIM_ENTRY_POINTS)
class TestDimension:
    @pytest.mark.parametrize("dim", NOT_INTEGERS, ids=repr)
    def test_rejects_non_integer(self, entry, dim):
        # second_order_drude_closed_form(True, ...) once returned the d = 1
        # value and total_energy_curve(2.0, ...) rows with the float dim 2.0
        with pytest.raises(ValueError, match="^dim must be an integer") as err:
            DIM_ENTRY_POINTS[entry](dim)
        assert err.type is ValueError

    @pytest.mark.parametrize("dim", [0, 4])
    def test_rejects_out_of_range(self, entry, dim):
        with pytest.raises(ValueError, match="^dim must be 1, 2, or 3") as err:
            DIM_ENTRY_POINTS[entry](dim)
        assert err.type is ValueError

    def test_numpy_integer_is_a_plain_int(self, entry):
        got = DIM_ENTRY_POINTS[entry](np.int64(2))
        want = DIM_ENTRY_POINTS[entry](2)
        assert got == want and _kinds(got) == _kinds(want)


def test_crossover_needs_a_repulsive_dimension():
    with pytest.raises(ValueError, match="only for d = 1, 2"):
        dominance_crossover(3)


def _series(dim=1, max_power=3):
    return expand_interaction(dim, max_power)


def _oracle(cutoff, mode="truncated", max_power=3, R=20.0, overlap_tol=1.0):
    result = oscillator_basis_diag(
        DrudeAtom(1, 0.5), R, mode=mode, max_power=max_power, cutoff=cutoff,
        overlap_tol=overlap_tol,
    )
    return result.cutoff, result.correction


def _ladder(cutoff, mode="truncated", max_power=3, R=20.0, overlap_tol=1.0):
    report = convergence_report(
        DrudeAtom(1, 0.5), R, mode=mode, max_power=max_power,
        cutoffs=(cutoff, 5), overlap_tol=overlap_tol,
    )
    return list(report.cutoffs), list(report.corrections)


def _residual(count):
    report = truncation_residual(_series(2, 5), [5.0, 8.0], count, 1.0)
    return report.sample_count, report.max_residual.tolist()


# name -> (argument name, its minimum, call of a value, what it returns)
COUNTS = {
    "drude_spectrum": ("cutoff", 0, lambda c: [
        (lv.energy, list(lv.quanta))
        for lv in drude_spectrum(DrudeAtom(2, 0.5), c)
    ]),
    "oscillator_basis_diag": ("cutoff", 3, _oracle),
    "convergence_report": ("cutoff", 3, _ladder),
    "second_order_sum": ("cutoff", 1, lambda c: second_order_sum(
        _series(2), DrudeAtom(2, 0.5), DrudeAtom(2, 0.5), 6.0, cutoff=c
    )),
    "parity_cross_term": ("cutoff", 1, lambda c: parity_cross_term(
        _series(2, 4), DrudeAtom(2, 0.5), DrudeAtom(2, 0.5), cutoff=c
    )),
    "truncation_residual": ("sample_count", 0, _residual),
    # the oracle once read max_power only in truncated mode, after the
    # overlap gate, so full mode took max_power="x"
    "oscillator_basis_diag(max_power)": ("max_power", 3, lambda n: _oracle(
        4, max_power=n
    )),
    "oscillator_basis_diag(full, max_power)": ("max_power", 3, lambda n: _oracle(
        3, mode="full", max_power=n, R=13.0
    )),
    "convergence_report(max_power)": ("max_power", 3, lambda n: _ladder(
        4, max_power=n
    )),
    "convergence_report(full, max_power)": ("max_power", 3, lambda n: _ladder(
        3, mode="full", max_power=n, R=13.0
    )),
    "expand_interaction": ("max_power", 3, lambda n: [
        (p, len(monos)) for p, monos in expand_interaction(2, n).terms.items()
    ]),
}


@pytest.mark.parametrize("entry", COUNTS)
class TestCount:
    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_rejects_non_integer(self, entry, value):
        name, _, call = COUNTS[entry]
        if value is None and entry in ("second_order_sum", "parity_cross_term"):
            # None is their default cutoff: the series' exact reach, where
            # the sum is saturated
            assert call(None) == call(6)
            return
        with pytest.raises(ValueError, match=f"^{name} must be an integer") as err:
            call(value)
        assert err.type is ValueError

    def test_rejects_below_minimum(self, entry):
        name, minimum, call = COUNTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be at least {minimum}"):
            call(minimum - 1)

    def test_minimum_and_numpy_integer(self, entry):
        _, minimum, call = COUNTS[entry]
        want = call(minimum)
        got = call(np.int64(minimum))
        assert got == want and _kinds(got) == _kinds(want)


def test_series_with_negative_exponent_is_rejected():
    # first order hands a form's rows to the atoms unchecked, so the form
    # itself rejects a row no moment is defined for
    series = InteractionSeries(1, 3, {3: (Monomial(Fraction(1), (-1,), (1,)),)})
    atom = DrudeAtom(1, 0.5)
    with pytest.raises(ValueError, match="exponents must be non-negative"):
        first_order_expectation(series, atom, atom, 5.0)


def _read_back(**changes):
    """``from_dict`` of two d = 2 terms, ``changes`` applied to term 1.

    A change of expA or expB sets its first entry.
    """
    terms = [
        {"power": 3, "coeff_num": -2, "coeff_den": 1, "expA": [1, 0], "expB": [1, 0]},
        {"power": 5, "coeff_num": 9, "coeff_den": 4, "expA": [0, 2], "expB": [0, 2]},
    ]
    for key, value in changes.items():
        if key in ("expA", "expB"):
            terms[1][key] = [value, 2]
        else:
            terms[1][key] = value
    return InteractionSeries.from_dict({"dim": 2, "max_power": 5, "terms": terms})


TERM_FIELDS = ("power", "coeff_num", "coeff_den", "expA", "expB")
# each bounded field of a serialized term -> its minimum
TERM_MINIMUMS = {"power": 3, "coeff_den": 1, "expA": 0, "expB": 0}


@pytest.mark.parametrize("field", TERM_MINIMUMS)
def test_serialized_term_below_minimum_is_rejected(field):
    # a coeff_den of 0 once raised a bare ZeroDivisionError
    minimum = TERM_MINIMUMS[field]
    want = f"^term 1: {field} must be at least {minimum}"
    with pytest.raises(ValueError, match=want) as err:
        _read_back(**{field: minimum - 1})
    assert err.type is ValueError


@pytest.mark.parametrize("field", TERM_FIELDS)
class TestSerializedTerm:
    @pytest.mark.parametrize("value", NOT_INTEGERS + [1.5, 2.9], ids=repr)
    def test_rejects_non_integer(self, field, value):
        # from_dict once truncated 1.5 to 1 and took "2" as 2
        want = f"^term 1: {field} must be an integer"
        with pytest.raises(ValueError, match=want) as err:
            _read_back(**{field: value})
        assert err.type is ValueError

    def test_numpy_integer_is_a_plain_int(self, field):
        value = {"power": 5, "coeff_num": 9, "coeff_den": 4, "expA": 0, "expB": 0}
        got = _read_back(**{field: np.int64(value[field])})
        want = _read_back()
        assert got == want
        for monos in got.terms.values():
            for m in monos:
                assert type(m.coeff.numerator) is int
                assert _kinds([*m.exp_a, *m.exp_b]) == [int] * 4


def test_serialized_series_reads_every_count_through_the_checks():
    want = InteractionSeries(2, 5, {
        3: (Monomial(Fraction(-2), (1, 0), (1, 0)),),
        5: (Monomial(Fraction(9, 4), (0, 2), (0, 2)),),
    })
    assert _read_back() == want
    # max_power has no minimum: ``expand --order 2`` writes the empty series
    empty = InteractionSeries.from_dict({"dim": 1, "max_power": 2, "terms": []})
    assert (empty.max_power, empty.terms) == (2, {})
    for value in NOT_INTEGERS:
        with pytest.raises(ValueError, match="^max_power must be an integer"):
            InteractionSeries.from_dict({"dim": 1, "max_power": value, "terms": []})


ORACLE_ENTRY_POINTS = {"oscillator_basis_diag": _oracle, "convergence_report": _ladder}


@pytest.mark.parametrize("mode", ["full", "truncated"])
@pytest.mark.parametrize("entry", ORACLE_ENTRY_POINTS)
class TestOracleMaxPower:
    def test_rejects_above_cap(self, entry, mode):
        top = MAX_EXPANSION_POWER
        with pytest.raises(
            ExpansionCapError, match=f"^max_power {top + 1} exceeds cap {top}$"
        ):
            ORACLE_ENTRY_POINTS[entry](4, mode=mode, max_power=top + 1)

    @pytest.mark.parametrize(
        "max_power, error",
        [(2, "must be at least 3"), (99, "exceeds cap"), ("x", "must be an integer")],
    )
    def test_checked_before_overlap(self, entry, mode, max_power, error):
        # at R = 2 the clouds overlap, which once hid a bad max_power
        call = ORACLE_ENTRY_POINTS[entry]
        with pytest.raises(OverlapError):
            call(4, mode=mode, R=2.0, overlap_tol=1e-8)
        with pytest.raises(ValueError, match=f"^max_power .*{error}") as err:
            call(4, mode=mode, max_power=max_power, R=2.0, overlap_tol=1e-8)
        assert not isinstance(err.value, OverlapError)
