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
    # one more sample than a chunk, so the chunk boundary is crossed
    pts_a = RNG.uniform(-0.5, 0.5, (kernels._CHUNK + 1, 3))
    pts_b = PTS_B[:2]
    w_a = RNG.random(pts_a.shape[0])
    w_b = RNG.random(pts_b.shape[0])
    want = sum(
        wa * wb * exact_interaction(R, a, b)
        for a, wa in zip(pts_a, w_a)
        for b, wb in zip(pts_b, w_b)
    )
    got = kernels.pair_expectation(R, pts_a, w_a, pts_b, w_b)
    assert got == pytest.approx(want, rel=1e-11)


def test_series_batch_matches_scalar_series():
    series = multipole.expand_interaction(3, 7)
    got = kernels.series_batch(*multipole.series_arrays(series), R, PTS_A, PTS_B)
    want = [evaluate_series(series, R, a, b) for a, b in zip(PTS_A, PTS_B)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18)


def test_series_grid_1d_matches_scalar_series():
    series = multipole.expand_interaction(1, 5)
    x = np.linspace(-3, 3, 31)
    got = kernels.series_grid_1d(*multipole.series_arrays(series), R, x, x)
    want = [[evaluate_series(series, R, [p], [q]) for q in x] for p in x]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18)


def test_active_backend_reported():
    assert backend_name() == "numpy"
