"""The vectorized kernels against scalar references built on the exact kernel."""

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
