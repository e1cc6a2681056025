"""The vectorized kernels against scalar references built on the exact kernel."""

import importlib.util
import json
import sys
import threading
import warnings
from decimal import Decimal, localcontext
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vdwdim import kernels, multipole
from vdwdim.kernels import backend_name
from vdwdim.multipole import SingularConfigurationError, evaluate_series, exact_interaction

RNG = np.random.default_rng(123)
R = 9.0
PTS_A = RNG.uniform(-0.5, 0.5, (500, 3))
PTS_B = RNG.uniform(-0.5, 0.5, (500, 3))


def test_four_site_batch_matches_exact():
    got = kernels.four_site_batch(R, PTS_A, PTS_B)
    want = [exact_interaction(R, a, b) for a, b in zip(PTS_A, PTS_B)]
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-16)


def test_four_site_grid_1d_matches_exact():
    x = np.linspace(-3, 3, 37)
    y = np.linspace(-2.5, 2.5, 21)
    got = kernels.four_site_grid_1d(R, x, y)
    want = [[exact_interaction(R, [xp], [yq]) for yq in y] for xp in x]
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-16)


def test_pair_expectation_matches_double_sum():
    # one more row than a block holds, so a block boundary is crossed; the
    # rows cycle through 13 points, so the scalar double sum needs only one
    # kernel call per distinct pair
    pts_b = PTS_B[:2]
    which = np.arange(kernels._BLOCK // len(pts_b) + 1) % 13
    pts_a = PTS_A[which]
    w_a = RNG.random(pts_a.shape[0])
    w_b = RNG.random(pts_b.shape[0])
    want = sum(
        wa * wb * exact_interaction(R, a, b)
        for a, wa in zip(PTS_A[:13], np.bincount(which, weights=w_a))
        for b, wb in zip(pts_b, w_b)
    )
    got = kernels.pair_expectation(R, pts_a, w_a, pts_b, w_b)
    assert got == pytest.approx(want, rel=1e-11, abs=0.0)


def _on_x_axis(x):
    pts = np.zeros((x.size, 3))
    pts[:, 0] = x
    return pts


def test_grid_1d_is_the_batch_kernel_on_axis():
    x = np.linspace(-3, 3, 37)
    y = np.linspace(-2.5, 2.5, 21)
    pts_a = np.repeat(_on_x_axis(x), y.size, axis=0)
    pts_b = np.tile(_on_x_axis(y), (x.size, 1))
    want = kernels.four_site_batch(R, pts_a, pts_b).reshape(x.size, y.size)
    got = kernels.four_site_grid_1d(R, x, y)
    assert np.array_equal(got, want)


def test_pair_expectation_is_one_contraction_of_the_batch_kernel():
    # 40 x 50 entries fit in one block
    pts_a, pts_b = PTS_A[:40], PTS_B[:50]
    rng = np.random.default_rng(7)
    w_a = rng.random(40)
    w_b = rng.random(50)
    k = kernels.four_site_batch(
        R, np.repeat(pts_a, 50, axis=0), np.tile(pts_b, (40, 1))
    ).reshape(40, 50)
    got = kernels.pair_expectation(R, pts_a, w_a, pts_b, w_b)
    assert got == float(w_a @ k @ w_b)


def test_series_batch_matches_scalar_series():
    series = multipole.expand_interaction(3, 7)
    got = kernels.series_batch(*multipole.series_arrays(series), R, PTS_A, PTS_B)
    want = [evaluate_series(series, R, a, b) for a, b in zip(PTS_A, PTS_B)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18)


def test_series_batch_order12_across_block_boundary():
    series = multipole.expand_interaction(3, 12)
    arrays = multipole.series_arrays(series)
    # a block holds _BLOCK entries of the (samples, distinct monomials) tables
    per_block = kernels._BLOCK // len(np.unique(arrays[2], axis=0))
    pts_a = RNG.uniform(-0.5, 0.5, (per_block + 8, 3))
    pts_b = RNG.uniform(-0.5, 0.5, (per_block + 8, 3))
    got = kernels.series_batch(*arrays, R, pts_a, pts_b)
    # the scalar loop costs ~10 ms per sample at this order: check a sparse
    # subset and both sides of the boundary
    picked = [*range(0, per_block, 25), per_block - 1, per_block, per_block + 7]
    want = [evaluate_series(series, R, pts_a[i], pts_b[i]) for i in picked]
    np.testing.assert_allclose(got[picked], want, rtol=1e-12, atol=1e-18)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_series_grid_1d_matches_scalar_series(dim):
    # the grid lies on the x-axis, where every y or z factor is zero
    series = multipole.expand_interaction(dim, 5)
    x = np.linspace(-3, 3, 31)
    got = kernels.series_grid_1d(*multipole.series_arrays(series), R, x, x)
    pad = [0.0] * (dim - 1)
    want = [
        [evaluate_series(series, R, [p, *pad], [q, *pad]) for q in x] for p in x
    ]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18)


def test_grid_1d_kernels_take_sequences():
    # the series grid once read x.shape of its displacements, so a list
    # raised AttributeError where four_site_grid_1d took it
    arrays = multipole.series_arrays(multipole.expand_interaction(2, 6))
    xa, xb = [-0.4, 0.1, 0.3], (0.2, -0.5)
    for kernel, args in ((kernels.series_grid_1d, arrays),
                         (kernels.four_site_grid_1d, ())):
        got = kernel(*args, R, xa, xb)
        assert np.array_equal(got, kernel(*args, R, np.array(xa), np.array(xb)))


def test_active_backend_reported():
    assert backend_name() == "numpy"


class TestOffsetExpectation:
    """sum_ij w_x[i] w_q[j] h(t_x[i], q[j]), h = 1/|R x - t| - 1/R, q = |t_perp|^2."""

    def test_matches_the_remainder_formed_directly(self):
        # with t / R of order 1/3 the direct difference loses little
        rng = np.random.default_rng(7)
        t_x, w_x = rng.uniform(-3.0, 3.0, 41), rng.uniform(0.0, 1.0, 41)
        q, w_q = rng.uniform(0.0, 9.0, 23), rng.uniform(0.0, 1.0, 23)
        h = 1.0 / np.sqrt((R - t_x[:, None]) ** 2 + q) - 1.0 / R
        got = kernels.offset_expectation(R, t_x, w_x, q, w_q)
        assert got == pytest.approx(w_x @ h @ w_q, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t_x", [1e-12, -3e-7, 0.25, -2.5, 8.0])
    @pytest.mark.parametrize("q", [0.0, 1e-20, 1e-6, 4.0])
    def test_single_offset_to_a_few_ulps(self, t_x, q):
        # the direct form 1/|R x - t| - 1/R keeps only |t| / R of its digits
        with localcontext() as ctx:
            ctx.prec = 40
            r, t, qq = Decimal(R), Decimal(t_x), Decimal(q)
            want = 1 / ((r - t) ** 2 + qq).sqrt() - 1 / r
        got = kernels.offset_expectation(
            R, np.array([t_x]), np.ones(1), np.array([q]), np.ones(1)
        )
        assert abs(Decimal(got) - want) <= abs(want) * Decimal("1e-15")

    def test_zero_offset_and_empty_tables_give_zero(self):
        zero, one = np.zeros(1), np.ones(1)
        assert kernels.offset_expectation(R, zero, one, zero, one) == 0.0
        empty = np.zeros(0)
        assert kernels.offset_expectation(R, empty, empty, zero, one) == 0.0

    @pytest.mark.parametrize(
        "huge", [1e300, np.float64(1e300)], ids=["float", "numpy"]
    )
    def test_huge_separation_has_no_overflow(self, huge):
        # R^2 overflows, with a warning for a numpy R; (q / R) / R underflows
        t_x, q = np.array([-2.0, 1.0]), np.array([0.0, 10.0])
        got = kernels.offset_expectation(huge, t_x, np.ones(2), q, np.ones(2))
        assert got == 0.0

    def test_blocked_sum_equals_one_block(self, monkeypatch):
        rng = np.random.default_rng(11)
        t_x, w_x = rng.uniform(-3.0, 3.0, 301), rng.uniform(0.0, 1.0, 301)
        q, w_q = rng.uniform(0.0, 9.0, 257), rng.uniform(0.0, 1.0, 257)
        whole = kernels.offset_expectation(R, t_x, w_x, q, w_q)
        monkeypatch.setattr(kernels, "_BLOCK", 1024)
        blocked = kernels.offset_expectation(R, t_x, w_x, q, w_q)
        assert blocked == pytest.approx(whole, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("bad_r", [0.0, -9.0, float("nan"), float("inf")])
def test_kernels_reject_bad_separation(bad_r):
    arrays = multipole.series_arrays(multipole.expand_interaction(1, 5))
    x = np.linspace(-1, 1, 5)
    w = np.ones(len(PTS_A))
    calls = [
        lambda: kernels.four_site_batch(bad_r, PTS_A, PTS_B),
        lambda: kernels.four_site_grid_1d(bad_r, x, x),
        lambda: kernels.pair_expectation(bad_r, PTS_A, w, PTS_B, w),
        lambda: kernels.offset_expectation(bad_r, x, x, x**2, x),
        lambda: kernels.series_batch(*arrays, bad_r, PTS_A, PTS_B),
        lambda: kernels.series_grid_1d(*arrays, bad_r, x, x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="separation"):
            call()


@pytest.mark.parametrize("kernel, points", [
    (kernels.series_batch, (PTS_A, PTS_B)),
    (kernels.series_grid_1d, (np.linspace(-1, 1, 5),) * 2),
])
def test_series_kernels_check_the_separation_before_the_table(kernel, points):
    # series_grid_1d once built the form first, so a bad table hid a bad R
    powers, coeffs, exp_a, exp_b = (a.copy() for a in multipole.series_arrays(
        multipole.expand_interaction(1, 5)
    ))
    exp_a[0, 0] = -1
    with pytest.raises(ValueError, match="^series exponents must be non-negative"):
        kernel(powers, coeffs, exp_a, exp_b, R, *points)
    with pytest.raises(ValueError, match="^separation R must"):
        kernel(powers, coeffs, exp_a, exp_b, -1.0, *points)


def _samples(dim, count, rng):
    pts = np.zeros((count, 3))
    pts[:, :dim] = rng.uniform(-0.5, 0.5, (count, dim))
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [3, 5, 8, 12])
def test_series_batch_parity_blocks_across_block_boundary(dim, order):
    series = multipole.expand_interaction(dim, order)
    form = kernels.series_form(series)
    # one block per transverse parity class; at order 3 no monomial has
    # both y and z odd
    assert len(form.blocks) == (2 ** (dim - 1) if order > 3 else dim)
    width = max(form.rows_a.shape[0], form.rows_b.shape[0])
    per_block = kernels._BLOCK // width
    rng = np.random.default_rng(10 * dim + order)
    pts_a = _samples(dim, per_block + 8, rng)
    pts_b = _samples(dim, per_block + 8, rng)
    got = kernels.series_batch(*form.arrays, R, pts_a, pts_b)
    picked = [*range(0, per_block, per_block // 12 + 1), per_block - 1,
              per_block, per_block + 7]
    want = [
        evaluate_series(series, R, pts_a[i, :dim], pts_b[i, :dim])
        for i in picked
    ]
    np.testing.assert_allclose(got[picked], want, rtol=1e-12, atol=1e-18)


def _parity_class(rows):
    return rows[:, 1] % 2 + 2 * (rows[:, 2] % 2)


def _monomial_table(series):
    """(powers, coeffs, exp_a, exp_b) read straight off the series' monomials.

    One row per monomial in the order of the terms dict, exponents
    zero-padded to three axes, with no use of the float form.
    """
    monos = [(p, m) for p, ms in series.terms.items() for m in ms]
    pad = (0,) * (3 - series.dim)
    return (
        np.array([p for p, _ in monos], dtype=np.int64),
        np.array([float(m.coeff) for _, m in monos]),
        np.array([m.exp_a + pad for _, m in monos], dtype=np.int64).reshape(-1, 3),
        np.array([m.exp_b + pad for _, m in monos], dtype=np.int64).reshape(-1, 3),
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [3, 6, 12])
def test_rows_grouped_by_class_and_lexicographic_within(dim, order):
    series = multipole.expand_interaction(dim, order)
    form = kernels.series_form(series)
    _, _, exp_a, exp_b = _monomial_table(series)
    for rows, idx, exps in ((form.rows_a, form.idx_a, exp_a),
                            (form.rows_b, form.idx_b, exp_b)):
        assert np.array_equal(rows[idx], exps)
        cls = _parity_class(rows)
        assert (np.diff(cls) >= 0).all()
        keys = [(c, *row) for c, row in zip(cls.tolist(), rows.tolist())]
        assert keys == sorted(set(keys))
    for sa, sb, _ in form.blocks:
        # every block pairs one class of A with one class of B
        assert len(set(_parity_class(form.rows_a[sa]).tolist())) == 1
        assert len(set(_parity_class(form.rows_b[sb]).tolist())) == 1


def test_rows_of_an_unsorted_table_by_class():
    exps = np.array([[0, 1, 1], [2, 0, 0], [0, 1, 0], [1, 0, 0], [2, 0, 0],
                     [0, 0, 3], [1, 1, 0]])
    rows, idx, start = kernels._class_rows(exps)
    assert rows.tolist() == [[1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0],
                             [0, 0, 3], [0, 1, 1]]
    assert np.array_equal(rows[idx], exps)
    assert start.tolist() == [0, 2, 4, 5, 6]


def test_skipped_power_series_scaled_by_table_power():
    # the d = 2 order-5 monomials filed under 1/R^9: the power is read from
    # the table, not from the degree
    base = multipole.expand_interaction(2, 5)
    series = multipole.InteractionSeries(2, 9, {3: base.terms[3], 9: base.terms[5]})
    assert kernels.series_form(series) is not kernels.series_form(base)
    rng = np.random.default_rng(4)
    pts_a, pts_b = _samples(2, 60, rng), _samples(2, 60, rng)
    got = kernels.series_batch(*multipole.series_arrays(series), R, pts_a, pts_b)
    want = [evaluate_series(series, R, a[:2], b[:2]) for a, b in zip(pts_a, pts_b)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18)


def test_series_batch_takes_blocks_from_the_table():
    # y_A y_B z_A couples class (y, z odd) of A to class (y odd) of B, a block
    # no expansion monomial fills
    powers = np.array([3, 4, 5])
    coeffs = np.array([-2.0, 0.75, 1.5])
    exp_a = np.array([[1, 0, 0], [0, 1, 1], [2, 0, 0]])
    exp_b = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    form = kernels.SeriesForm.from_arrays(powers, coeffs, exp_a, exp_b)
    assert len(form.blocks) == 2
    got = kernels.series_batch(powers, coeffs, exp_a, exp_b, R, PTS_A, PTS_B)
    want = sum(
        c * np.prod(PTS_A**ea, axis=1) * np.prod(PTS_B**eb, axis=1) / R**p
        for p, c, ea, eb in zip(powers, coeffs, exp_a, exp_b)
    )
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-18)


class TestSeriesFormCache:
    def test_cached_arrays_reject_writes(self):
        form = kernels.series_form(multipole.expand_interaction(3, 6))
        for array in vars(form).values():
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
        powers, coeffs, _, _ = multipole.series_arrays(
            multipole.expand_interaction(3, 6)
        )
        with pytest.raises(ValueError, match="read-only"):
            coeffs *= 2.0

    def test_tampered_order_gets_its_own_form(self):
        series = multipole.expand_interaction(3, 5)
        first = series.terms[5][0]
        terms = dict(series.terms)
        terms[5] = (
            multipole.Monomial(first.coeff + Fraction(1, 7), first.exp_a, first.exp_b),
        ) + terms[5][1:]
        tampered = multipole.InteractionSeries(3, 5, terms)
        clean, bad = kernels.series_form(series), kernels.series_form(tampered)
        assert bad is not clean
        k = list(_monomial_table(series)[0]).index(5)
        assert bad.coeffs[k] == float(first.coeff + Fraction(1, 7))
        assert clean.coeffs[k] == float(first.coeff)
        assert kernels.series_form(multipole.expand_interaction(3, 5)) is clean

    def test_list_terms_mutated_in_place_are_never_stale(self):
        base = multipole.expand_interaction(1, 4)
        monos = list(base.terms[4])
        series = multipole.InteractionSeries(1, 4, {3: base.terms[3], 4: monos})
        before = multipole.series_arrays(series)[1].copy()
        monos[0] = multipole.Monomial(Fraction(5), monos[0].exp_a, monos[0].exp_b)
        after = multipole.series_arrays(series)[1]
        k = len(base.terms[3])
        assert before[k] == float(base.terms[4][0].coeff)
        assert after[k] == 5.0

    def test_writable_copy_changed_in_place_is_never_stale(self):
        arrays = multipole.series_arrays(multipole.expand_interaction(2, 6))
        copies = tuple(a.copy() for a in arrays)
        x = np.linspace(-1, 1, 5)
        cached = kernels.series_batch(*arrays, R, PTS_A, PTS_B)
        assert np.array_equal(kernels.series_batch(*copies, R, PTS_A, PTS_B), cached)
        copies[1][:] = 0.0
        assert not kernels.series_batch(*copies, R, PTS_A, PTS_B).any()
        assert not kernels.series_grid_1d(*copies, R, x, x).any()

    def test_other_series_never_enter_the_cache(self):
        base = multipole.expand_interaction(2, 6)
        t = base.terms
        mono = multipole.Monomial(Fraction(1), (1, 0), (1, 0))
        others = [
            # custom tuples
            multipole.InteractionSeries(2, 3, {3: (mono,)}),
            multipole.InteractionSeries(2, 4, {3: t[3], 4: (mono,) + t[4]}),
            # the expansion read back: equal orders, but not the kept tuples
            multipole.InteractionSeries.from_dict(base.to_dict()),
            # expansion orders filed under other powers, or with a gap
            multipole.InteractionSeries(2, 4, {3: t[4], 4: t[3]}),
            multipole.InteractionSeries(2, 5, {4: t[4], 5: t[5]}),
            multipole.InteractionSeries(2, 6, {3: t[3], 4: t[4], 6: t[6]}),
        ]
        kernels._expansion_form.cache_clear()
        forms = [kernels.series_form(s) for s in others]
        for series, form in zip(others, forms):
            again = kernels.series_form(series)
            assert again is not form
            assert _same_form(again, form)
        assert kernels._expansion_form.cache_info().currsize == 0
        assert _same_form(forms[2], kernels.series_form(base))
        assert kernels._expansion_form.cache_info().currsize == 1

    def test_holds_every_form_of_the_series_workload(self):
        # the benchmark's series ops: d = 1-3 at orders 5-12, each with its
        # dipole term as a series of its own
        def workload_series():
            for d in (1, 2, 3):
                for n in range(5, 13):
                    series = multipole.expand_interaction(d, n)
                    yield series
                    yield multipole.InteractionSeries(d, 3, {3: series.terms[3]})

        kernels._expansion_form.cache_clear()
        forms = [kernels.series_form(s) for s in workload_series()]
        assert len({id(f) for f in forms}) == 27
        again = [kernels.series_form(s) for s in workload_series()]
        assert all(a is b for a, b in zip(again, forms))
        assert kernels._expansion_form.cache_info().currsize == 27


def _same_form(f, g):
    """Every field of two series forms equal, arrays entry by entry."""
    return vars(f).keys() == vars(g).keys() and all(
        np.array_equal(v, vars(g)[k]) if isinstance(v, np.ndarray)
        else v == vars(g)[k]
        for k, v in vars(f).items()
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", range(3, 13))
def test_flat_table_rebuilds_the_cached_form(dim, order):
    # the form stores no flat table; the one it gathers is the table of the
    # series' monomials, in order and by dtype, and gives back the same form
    series = multipole.expand_interaction(dim, order)
    form = kernels.series_form(series)
    assert _same_form(kernels.SeriesForm.from_arrays(*form.arrays), form)
    got = multipole.series_arrays(series)
    want = _monomial_table(series)
    assert [a.dtype for a in got] == [np.int64, np.float64, np.int64, np.int64]
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_flat_table_of_a_raw_table_is_that_table():
    # unsorted powers, and rows of A that are not the rows of B
    table = (
        np.array([5, 3, 4, 3]),
        np.array([1.5, -2.0, 0.75, 0.5]),
        np.array([[2, 0, 0], [1, 0, 0], [0, 1, 1], [0, 0, 2]]),
        np.array([[0, 0, 2], [1, 0, 0], [0, 1, 0], [3, 0, 0]]),
    )
    got = kernels.SeriesForm.from_arrays(*table).arrays
    for g, w in zip(got, table, strict=True):
        assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [3, 7, 12])
def test_batch_kernels_equal_the_cached_form(dim, order, monkeypatch):
    # the kernels build the form of the table they get; on the arrays of an
    # expansion it gives the values of the cached form bit for bit
    series = multipole.expand_interaction(dim, order)
    arrays = multipole.series_arrays(series)
    rng = np.random.default_rng(dim * order)
    pts_a, pts_b = _samples(dim, 300, rng), _samples(dim, 300, rng)
    x = np.linspace(-1.5, 1.5, 23)
    batch = kernels.series_batch(*arrays, R, pts_a, pts_b)
    grid = kernels.series_grid_1d(*arrays, R, x, x)
    form = kernels.series_form(series)
    monkeypatch.setattr(
        kernels.SeriesForm, "from_arrays", staticmethod(lambda *table: form)
    )
    assert np.array_equal(kernels.series_batch(*arrays, R, pts_a, pts_b), batch)
    assert np.array_equal(kernels.series_grid_1d(*arrays, R, x, x), grid)


def _repeated_products(pts, rows):
    """(rows, samples) monomial values, each power by repeated multiplication.

    x^e is ((x * x) * x)..., and a row's value is 1 * x^e_x * y^e_y * z^e_z
    multiplied left to right, one sample at a time in Python floats.
    """
    out = np.empty((rows.shape[0], pts.shape[0]))
    for m, row in enumerate(rows.tolist()):
        for i, point in enumerate(pts.tolist()):
            value = 1.0
            for x, e in zip(point, row):
                power = 1.0
                for _ in range(e):
                    power *= x
                value *= power
            out[m, i] = value
    return out


def _nan_buffers(rows, n):
    """The (rows, n) output and scratch buffers of ``_monomial_values``."""
    return tuple(np.full((rows.shape[0], n), np.nan) for _ in range(2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_monomial_values_are_samples_last_repeated_products(dim):
    form = kernels.series_form(multipole.expand_interaction(dim, 8))
    rng = np.random.default_rng(dim)
    pts = _samples(dim, 37, rng) * 3.0
    for rows in (form.rows_a, form.rows_b):
        # d < 3 leaves the y and z columns without an exponent
        assert (rows[:, dim:] == 0).all()
        got = kernels._monomial_values(pts, rows, *_nan_buffers(rows, 37))
        assert got.shape == (rows.shape[0], 37)
        assert np.array_equal(got, _repeated_products(pts, rows))


def test_monomial_values_skip_an_axis_between_two():
    # y has no exponent while x and z do; a row of zeros is the value 1
    rows = np.array([[0, 0, 0], [3, 0, 1], [0, 0, 4], [2, 0, 0]])
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (23, 3))
    got = kernels._monomial_values(pts, rows, *_nan_buffers(rows, 23))
    assert np.array_equal(got, _repeated_products(pts, rows))
    assert (got[0] == 1.0).all()
    zeros = np.zeros((2, 3), dtype=np.int64)
    no_exponent = kernels._monomial_values(pts, zeros, *_nan_buffers(zeros, 23))
    assert no_exponent.shape == (2, 23) and (no_exponent == 1.0).all()


def test_monomial_values_of_each_row_block(monkeypatch):
    # a batch one block and 8 samples long: each block's tables are the
    # repeated products of its own samples
    series = multipole.expand_interaction(3, 6)
    form = kernels.series_form(series)
    width = max(form.rows_a.shape[0], form.rows_b.shape[0])
    per_block = kernels._BLOCK // width
    rng = np.random.default_rng(11)
    pts_a, pts_b = _samples(3, per_block + 8, rng), _samples(3, per_block + 8, rng)
    calls = []
    original = kernels._monomial_values

    def recorded(pts, rows, *buffers):
        # the next block reuses the workspace buffer, so keep a copy
        out = original(pts, rows, *buffers)
        calls.append((pts.copy(), rows, out.copy()))
        return out

    monkeypatch.setattr(kernels, "_monomial_values", recorded)
    kernels.series_batch(*form.arrays, R, pts_a, pts_b)
    assert [c[0].shape[0] for c in calls] == [per_block] * 2 + [8] * 2
    for pts, rows, out in calls:
        assert out.shape == (rows.shape[0], pts.shape[0])
        assert np.array_equal(out, _repeated_products(pts, rows))


def test_series_grid_1d_tabulates_each_atom_once(monkeypatch):
    arrays = multipole.series_arrays(multipole.expand_interaction(1, 9))
    xa, xb = np.linspace(-2.0, 2.0, 17), np.linspace(-1.0, 1.0, 11)
    calls = []
    original = kernels._monomial_values

    def counted(pts, rows, *buffers):
        calls.append(pts[:, 0].copy())
        return original(pts, rows, *buffers)

    monkeypatch.setattr(kernels, "_monomial_values", counted)
    grid = kernels.series_grid_1d(*arrays, R, xa, xb)
    assert grid.shape == (17, 11)
    assert len(calls) == 2
    assert np.array_equal(calls[0], xa) and np.array_equal(calls[1], xb)


@pytest.mark.parametrize("top", [1, 2, 5, 12])
def test_power_table_is_the_accumulated_products(top):
    x = np.random.default_rng(top).uniform(-3.0, 3.0, 2000)
    want = np.empty((top + 1, 2000))
    want[0] = 1.0
    want[1:] = x
    np.multiply.accumulate(want[1:], axis=0, out=want[1:])
    got = kernels._power_table(x, np.full((top + 1, 2000), np.nan))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_monomial_values_fill_the_given_buffers(dim):
    # NaN-filled buffers, as a workspace left dirty by its last user: every
    # entry of the output is written
    form = kernels.series_form(multipole.expand_interaction(dim, 10))
    pts = _samples(dim, 150, np.random.default_rng(30 + dim)) * 3.0
    for rows in (form.rows_a, form.rows_b, np.zeros((3, 3), dtype=np.int64)):
        out, scratch = _nan_buffers(rows, 150)
        got = kernels._monomial_values(pts, rows, out, scratch)
        assert got is out
        assert np.array_equal(got, _repeated_products(pts, rows))


def test_warm_truncation_residual_allocates_under_a_mebibyte():
    # the tables of every block live in the workspace; the parent's fresh
    # tables peaked at 2.6 MiB here
    series = multipole.expand_interaction(3, 12)
    multipole.truncation_residual(series, [9.0, 12.0, 15.0], 2000, 1.0)
    tracemalloc.start()
    try:
        multipole.truncation_residual(series, [9.0, 12.0, 15.0], 2000, 1.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _in_thread(fn, *args):
    """fn(*args) run in a new thread, which must finish within 60 s."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn(*args)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def test_workspace_is_per_thread():
    series = multipole.expand_interaction(3, 8)
    multipole.truncation_residual(series, [9.0], 500, 1.0)
    mine = dict(vars(kernels._WORKSPACE))
    assert set(mine) == {"va", "vb", "gather", "table", "gemm"}

    def theirs():
        multipole.truncation_residual(series, [9.0], 500, 1.0)
        return {slot: kernels._work(slot, 1, kernels._BLOCK) for slot in mine}

    other = _in_thread(theirs)
    for a in mine.values():
        assert not any(np.shares_memory(a, b) for b in other.values())
    assert all(vars(kernels._WORKSPACE)[slot] is buf for slot, buf in mine.items())


def _report_bytes(report):
    return b"".join(
        np.asarray(v, dtype=float).tobytes()
        for v in (report.max_residual, report.rms_residual, report.fitted_exponent)
    )


def test_concurrent_truncation_residuals_equal_sequential():
    # three threads on a two-core machine, with a short switch interval so
    # they interleave inside the blocked loop
    cases = [(3, 12, 2000), (2, 9, 1500), (1, 11, 2500)]

    def run(dim, order, count):
        series = multipole.expand_interaction(dim, order)
        report = multipole.truncation_residual(
            series, [8.0, 10.0, 13.0], count, 1.0, seed=order
        )
        return _report_bytes(report)

    want = [run(*case) for case in cases]
    got = [None] * len(cases)

    def worker(i):
        for _ in range(3):
            value = run(*cases[i])
            got[i] = value if got[i] in (None, value) else b"differs"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def _padded_four_site(R, a, b):
    """The four-site kernel on zero-padded (..., 3) points, term by term."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    k = 1.0 / np.sqrt((R - ax + bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)
    k += 1.0 / R
    k -= 1.0 / np.sqrt((R - ax) ** 2 + ay**2 + az**2)
    k -= 1.0 / np.sqrt((R + bx) ** 2 + by**2 + bz**2)
    return k


def _padded_pair_expectation(R, pts_a, w_a, pts_b, w_b):
    acc = 0.0
    for blk in kernels._row_blocks(pts_a.shape[0], pts_b.shape[0]):
        k = _padded_four_site(R, pts_a[blk, None], pts_b[None])
        acc += float(w_a[blk] @ k @ w_b)
    return acc


def _tensor_grid(axes):
    """C-order tensor grid of the given axes, zero-padded to (m, 3)."""
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.zeros((grids[0].size, 3))
    for c, g in enumerate(grids):
        pts[:, c] = g.ravel()
    return pts


class TestComponentForm:
    AXES = {
        1: [np.linspace(-2.0, 2.0, 41)],
        2: [np.linspace(-2.0, 2.0, 13), np.linspace(-1.5, 1.5, 11)],
        3: [np.linspace(-2.0, 2.0, 9), np.linspace(-1.5, 1.0, 7),
            np.linspace(-1.0, 1.2, 8)],
    }

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_batch_bit_identical_to_padded_form(self, dim):
        rng = np.random.default_rng(dim)
        pts_a, pts_b = _samples(dim, 700, rng), _samples(dim, 700, rng)
        got = kernels.four_site_batch(R, pts_a, pts_b)
        assert np.array_equal(got, _padded_four_site(R, pts_a, pts_b))

    def test_grid_1d_bit_identical_to_padded_form(self):
        x = np.linspace(-3, 3, 37)
        y = np.linspace(-2.5, 2.5, 21)
        want = _padded_four_site(R, _on_x_axis(x)[:, None], _on_x_axis(y)[None])
        assert np.array_equal(kernels.four_site_grid_1d(R, x, y), want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pair_expectation_bit_identical_to_padded_form(self, dim):
        # enough rows for several blocks, against a grid with unequal axes
        rng = np.random.default_rng(10 + dim)
        pts_b = _tensor_grid(self.AXES[dim])
        pts_a = _samples(dim, 3 * kernels._BLOCK // len(pts_b) + 5, rng)
        w_a, w_b = rng.random(len(pts_a)), rng.random(len(pts_b))
        got = kernels.pair_expectation(R, pts_a, w_a, pts_b, w_b)
        assert got == _padded_pair_expectation(R, pts_a, w_a, pts_b, w_b)

    def test_all_zero_points(self):
        zeros = np.zeros((5, 3))
        assert np.array_equal(kernels.four_site_batch(R, zeros, zeros), np.zeros(5))
        w = np.full(5, 0.2)
        assert kernels.pair_expectation(R, zeros, w, zeros, w) == 0.0
        empty = np.zeros((0, 3))
        assert kernels.four_site_batch(R, empty, empty).shape == (0,)
        assert kernels.pair_expectation(R, zeros, w, empty, np.zeros(0)) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tensor_grid_is_the_batch_contraction(self, dim):
        # one block: 30 rows against at most 504 grid points
        rng = np.random.default_rng(20 + dim)
        pts_b = _tensor_grid(self.AXES[dim])
        pts_a = _samples(dim, 30, rng)
        w_a, w_b = rng.random(30), rng.random(len(pts_b))
        k = kernels.four_site_batch(
            R, np.repeat(pts_a, len(pts_b), axis=0), np.tile(pts_b, (30, 1))
        ).reshape(30, len(pts_b))
        got = kernels.pair_expectation(R, pts_a, w_a, pts_b, w_b)
        assert got == float(w_a @ k @ w_b)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_permuted_grid_agrees(self, dim):
        # the same points in another order sum in another order
        rng = np.random.default_rng(30 + dim)
        pts_b = _tensor_grid(self.AXES[dim])
        perm = rng.permutation(len(pts_b))
        pts_a = _samples(dim, 200, rng)
        w_a, w_b = rng.random(200), rng.random(len(pts_b))
        grid = kernels.pair_expectation(R, pts_a, w_a, pts_b, w_b)
        permuted = kernels.pair_expectation(R, pts_a, w_a, pts_b[perm], w_b[perm])
        assert permuted == pytest.approx(grid, rel=1e-15, abs=0.0)


class TestHugeSeparation:
    # past R ~ 1.34e154 the squared distances overflowed to inf, the three
    # distance terms read 0 and the kernel returned 1/R with warnings (the
    # suite runs with warnings as errors)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("shift", [600, 1000])
    def test_kernel_scales_exactly(self, dim, shift):
        # K(lam R, lam a, lam b) = K(R, a, b) / lam, bit for bit at lam = 2^k
        rng = np.random.default_rng(40 + dim)
        pts_a, pts_b = _samples(dim, 500, rng), _samples(dim, 500, rng)
        got = kernels.four_site_batch(
            np.ldexp(R, shift), np.ldexp(pts_a, shift), np.ldexp(pts_b, shift)
        )
        want = np.ldexp(kernels.four_site_batch(R, pts_a, pts_b), -shift)
        assert np.array_equal(got, want)

    def test_unit_points_far_apart_read_zero(self):
        # about -2 a b / R^3 = 5e-601, zero in float64
        a, b = np.array([[0.5, 0.0, 0.0]]), np.array([[-0.5, 0.0, 0.0]])
        assert np.array_equal(kernels.four_site_batch(1e200, a, b), [0.0])
        x = np.linspace(-3, 3, 7)
        assert not kernels.four_site_grid_1d(1e160, x, x).any()
        w = np.full(7, 1.0 / 7)
        pts = _on_x_axis(x)
        assert kernels.pair_expectation(1e300, pts, w, pts, w) == 0.0

    @pytest.mark.parametrize("sep", [1e150, 2.0**500])
    def test_separations_up_to_the_threshold_keep_their_bits(self, sep):
        rng = np.random.default_rng(50)
        pts_a, pts_b = _samples(3, 300, rng), _samples(3, 300, rng)
        got = kernels.four_site_batch(sep, pts_a, pts_b)
        assert np.array_equal(got, _padded_four_site(sep, pts_a, pts_b))

    def test_scalar_reference_far_apart_reads_zero(self):
        # exact_interaction's np.linalg.norm squared the distances: at
        # R = 1e200 it returned 1/R = 1e-200 with overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_interaction(1e200, [0.5], [-0.5]) == 0.0
            assert exact_interaction(1e300, [0.5, 0.2], [-0.5, 1.0, 0.1]) == 0.0
            with pytest.raises(SingularConfigurationError, match="1e\\+188"):
                exact_interaction(1e200, [1e200], [0.0])

    def test_scalar_reference_point_far_beyond_r(self):
        # a point coordinate past 2^500 sets the scale when R does not: at
        # R = 10 a point at 1e200 once overflowed the squares with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_interaction(10.0, [1e200], [0.0]) == 0.0
            # 0.1 + 1/d - 0.1 - 1/d, rounded at the scale of 0.1
            assert abs(exact_interaction(10.0, [0.0, 0.0], [-1e300, 0.0])) <= 1e-299
            got = exact_interaction(10.0, [1e200, 0.0, 0.0], [0.0, 1.0, 0.0])
            assert got == pytest.approx(0.1 - 101.0**-0.5, rel=1e-12, abs=0.0)
            got = exact_interaction(10.0, [0.0, 1e300, 0.0], [0.0, 1e300, 0.0])
            assert got == pytest.approx(0.2, rel=1e-15, abs=0.0)
            with pytest.raises(SingularConfigurationError, match="1e-11"):
                exact_interaction(10.0, [10.0, 0.0, 0.0], [0.0, 1e300, 0.0])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("shift", [600, 1000])
    def test_scalar_reference_scales_exactly(self, dim, shift):
        # K(lam R, lam a, lam b) = K(R, a, b) / lam, bit for bit at lam = 2^k
        rng = np.random.default_rng(60 + dim)
        for a, b in zip(_samples(dim, 50, rng), _samples(dim, 50, rng)):
            got = exact_interaction(
                np.ldexp(R, shift), np.ldexp(a, shift), np.ldexp(b, shift)
            )
            assert got == np.ldexp(exact_interaction(R, a, b), -shift)

    @pytest.mark.parametrize("sep", [1.0, 1e150, 2.0**500])
    def test_scalar_reference_up_to_the_threshold_keeps_its_bits(self, sep):
        # the unscaled norm form, as it was before the scaling
        rng = np.random.default_rng(70)
        x = np.array([sep, 0.0, 0.0])
        for a, b in zip(_samples(3, 100, rng), _samples(3, 100, rng)):
            want = (
                1.0 / sep
                + 1.0 / np.linalg.norm(x - a + b)
                - 1.0 / np.linalg.norm(x - a)
                - 1.0 / np.linalg.norm(x + b)
            )
            got = exact_interaction(sep, a, b)
            assert type(got) is np.float64 and got == want


_ROOT = Path(__file__).resolve().parents[1]


def _kernel_cases():
    spec = importlib.util.spec_from_file_location(
        "kernel_cases", _ROOT / "perfbench" / "kernel_cases.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.cases())


class TestBenchmarkKernelCases:
    def test_every_case_runs_once(self):
        # the benchmark's per-layer kernel cases call the kernels by name
        # and signature; a change to either must fail here, not only there
        cases = _kernel_cases()
        declared = {
            entry["name"]
            for entry in json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]
            if entry["name"].startswith("bench_kernels.")
        }
        assert {f"bench_kernels.{name}_s" for name, _, _ in cases} == declared
        for name, fn, args in cases:
            assert np.all(np.isfinite(fn(*args))), name
