"""The vectorized kernels against scalar references built on the exact kernel."""

from fractions import Fraction

import numpy as np
import pytest

from vdwdim import kernels, multipole
from vdwdim.kernels import backend_name
from vdwdim.multipole import evaluate_series, exact_interaction

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


@pytest.mark.parametrize("bad_r", [0.0, -9.0, float("nan"), float("inf")])
def test_kernels_reject_bad_separation(bad_r):
    arrays = multipole.series_arrays(multipole.expand_interaction(1, 5))
    x = np.linspace(-1, 1, 5)
    w = np.ones(len(PTS_A))
    calls = [
        lambda: kernels.four_site_batch(bad_r, PTS_A, PTS_B),
        lambda: kernels.four_site_grid_1d(bad_r, x, x),
        lambda: kernels.pair_expectation(bad_r, PTS_A, w, PTS_B, w),
        lambda: kernels.series_batch(*arrays, bad_r, PTS_A, PTS_B),
        lambda: kernels.series_grid_1d(*arrays, bad_r, x, x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="separation"):
            call()


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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [3, 6, 12])
def test_rows_grouped_by_class_and_lexicographic_within(dim, order):
    form = kernels.series_form(multipole.expand_interaction(dim, order))
    for rows, idx, exps in ((form.rows_a, form.idx_a, form.exp_a),
                            (form.rows_b, form.idx_b, form.exp_b)):
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
        k = list(clean.powers).index(5)
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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_monomial_values_are_samples_last_repeated_products(dim):
    form = kernels.series_form(multipole.expand_interaction(dim, 8))
    rng = np.random.default_rng(dim)
    pts = _samples(dim, 37, rng) * 3.0
    for rows in (form.rows_a, form.rows_b):
        # d < 3 leaves the y and z columns without an exponent
        assert (rows[:, dim:] == 0).all()
        got = kernels._monomial_values(pts, rows)
        assert got.shape == (rows.shape[0], 37)
        assert np.array_equal(got, _repeated_products(pts, rows))


def test_monomial_values_skip_an_axis_between_two():
    # y has no exponent while x and z do; a row of zeros is the value 1
    rows = np.array([[0, 0, 0], [3, 0, 1], [0, 0, 4], [2, 0, 0]])
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (23, 3))
    got = kernels._monomial_values(pts, rows)
    assert np.array_equal(got, _repeated_products(pts, rows))
    assert (got[0] == 1.0).all()
    no_exponent = kernels._monomial_values(pts, np.zeros((2, 3), dtype=np.int64))
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

    def recorded(pts, rows):
        out = original(pts, rows)
        calls.append((pts.copy(), rows, out))
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

    def counted(pts, rows):
        calls.append(pts[:, 0].copy())
        return original(pts, rows)

    monkeypatch.setattr(kernels, "_monomial_values", counted)
    grid = kernels.series_grid_1d(*arrays, R, xa, xb)
    assert grid.shape == (17, 11)
    assert len(calls) == 2
    assert np.array_equal(calls[0], xa) and np.array_equal(calls[1], xb)


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
        assert np.ndim(kernels._grid_components(pts_b)[0]) == 3
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
        # a permuted grid is no tensor grid, so it keeps its columns and sums
        # in another order; at d = 1 any order of points is a grid
        rng = np.random.default_rng(30 + dim)
        pts_b = _tensor_grid(self.AXES[dim])
        perm = rng.permutation(len(pts_b))
        assert np.ndim(kernels._grid_components(pts_b[perm])[0]) == 1
        pts_a = _samples(dim, 200, rng)
        w_a, w_b = rng.random(200), rng.random(len(pts_b))
        grid = kernels.pair_expectation(R, pts_a, w_a, pts_b, w_b)
        permuted = kernels.pair_expectation(R, pts_a, w_a, pts_b[perm], w_b[perm])
        assert permuted == pytest.approx(grid, rel=1e-15, abs=0.0)
