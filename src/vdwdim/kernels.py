"""Hot numeric kernels, vectorized with numpy: one four-site kernel, three
contractions, plus the float side of the truncated series.

``_four_site`` evaluates the exact four-site Coulomb combination

    1/R + 1/|R x - a + b| - 1/|R x - a| - 1/|R x + b|

on electron positions that broadcast against each other.  Positions are
(..., 3) arrays, zero-padded when the physical dimension is lower; the
inter-atomic axis is x.  Each public kernel is one contraction of it:

* ``four_site_batch`` -- paired samples, the diagonal case;
* ``four_site_grid_1d`` -- the outer grid of two sets of displacements on
  the x-axis (``_on_axis``), the oracle's coupling G;
* ``pair_expectation`` -- w_a . K . w_b over row blocks of the matrix K
  between two point sets.

The series side evaluates a truncated interaction series as the bilinear
form Va . C(R) . Vb between monomial values of the two atoms, on paired
samples (``series_batch``) and on the on-axis grid (``series_grid_1d``).
Only C(R) = sum_p R^-p C_p depends on the separation, so one pass over the
samples (``_bilinear_values``) computes Va and Vb once per row block and
serves every C(R) of a list: ``series_batch`` is the one-separation case,
and ``truncation_residual`` shares the monomial values across all its
separations.
The float side of the exact-rational ``multipole`` algebra lives here too:
the scalar reference ``exact_interaction``, the flat monomial arrays
``series_arrays`` and ``truncation_residual``.  ``multipole`` still resolves
those names.
"""

import math
from dataclasses import dataclass

import numpy as np

from .multipole import SingularConfigurationError, _check_separation, _integer

# Matrix entries per block: every (rows, columns) temporary of a blocked
# kernel holds about this many float64 values (0.5 MB), so temporaries stay
# cache-sized and memory does not grow with the batch.
_BLOCK = 2**16


def backend_name() -> str:
    """Name of the array library the kernels run on."""
    return "numpy"


def _row_blocks(n_rows, width):
    """Slices of consecutive rows, each covering about _BLOCK entries."""
    step = max(1, _BLOCK // max(1, width))
    for i0 in range(0, n_rows, step):
        yield slice(i0, i0 + step)


def _on_axis(x):
    """1D displacements x placed at the 3D points (x, 0, 0), shape (n, 3)."""
    pts = np.zeros((x.shape[0], 3))
    pts[:, 0] = x
    return pts


def _four_site(R, a, b):
    """1/R + 1/|Rx - a + b| - 1/|Rx - a| - 1/|Rx + b| over broadcast points.

    ``a`` and ``b`` are (..., 3) arrays whose leading shapes broadcast; the
    result has the broadcast shape.  Each single-atom term is computed on
    its own atom's shape, so for a (rows, 1, 3) block against (1, m, 3) it
    costs O(rows + m).  The Coulomb prefactor is not applied.
    """
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    k = 1.0 / np.sqrt((R - ax + bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)
    k += 1.0 / R
    k -= 1.0 / np.sqrt((R - ax) ** 2 + ay**2 + az**2)
    k -= 1.0 / np.sqrt((R + bx) ** 2 + by**2 + bz**2)
    return k


def four_site_batch(R, pts_a, pts_b):
    """Four-site kernel for paired samples, the diagonal case.

    Sample i of the (n, 3) arrays ``pts_a`` and ``pts_b`` is one
    two-electron configuration.
    """
    _check_separation(R)
    return _four_site(R, pts_a, pts_b)


def four_site_grid_1d(R, xa, xb):
    """Four-site kernel on the outer grid of 1D displacements xa[p], xb[q]."""
    _check_separation(R)
    return _four_site(R, _on_axis(xa)[:, None], _on_axis(xb)[None])


def pair_expectation(R, pts_a, w_a, pts_b, w_b):
    """Double quadrature sum  sum_ij w_a[i] w_b[j] K(R, a_i, b_j).

    Blocked over the first factor so each (rows, n_b) block of K holds about
    _BLOCK kernel values.  K is summed element by element: the four terms
    nearly cancel, and summing them separately over the grid loses the
    result.
    """
    _check_separation(R)
    acc = 0.0
    for blk in _row_blocks(pts_a.shape[0], pts_b.shape[0]):
        k = _four_site(R, pts_a[blk, None], pts_b[None])
        acc += float(w_a[blk] @ k @ w_b)
    return acc


def _distinct_rows(exps):
    """Sorted distinct rows of an exponent array and each row's index.

    One integer per row, sum_c e_c base^(k-1-c), sorts as the row does.
    """
    base = int(exps.max(initial=0)) + 1
    codes = exps @ base ** np.arange(exps.shape[1] - 1, -1, -1)
    _, first, idx = np.unique(codes, return_index=True, return_inverse=True)
    return exps[first], idx


def _bilinear_form(powers, coeffs, exp_a, exp_b):
    """A truncated series as one matrix per inverse power between two bases.

    Returns the distinct exponent rows of atom A and of atom B and an
    iterator over (p, C_p), p increasing, that builds each C_p when reached:
    the unscaled order-p polynomial is Va(a) . C_p . Vb(b), with Va and Vb
    the monomials of those rows (``_monomial_values``).  Each monomial's
    power is read from ``powers``, not from its degree.
    """
    rows_a, idx_a = _distinct_rows(exp_a)
    rows_b, idx_b = _distinct_rows(exp_b)

    def per_power():
        for p in np.unique(powers):
            sel = powers == p
            c = np.zeros((rows_a.shape[0], rows_b.shape[0]))
            np.add.at(c, (idx_a[sel], idx_b[sel]), coeffs[sel])
            yield int(p), c

    return rows_a, rows_b, per_power()


def _series_matrices(powers, coeffs, exp_a, exp_b, r_values):
    """Distinct rows and C(R) = sum_p R^-p C_p, the whole series, at each R."""
    rows_a, rows_b, per_power = _bilinear_form(powers, coeffs, exp_a, exp_b)
    mats = [np.zeros((rows_a.shape[0], rows_b.shape[0])) for _ in r_values]
    for p, c_p in per_power:
        for R, c in zip(r_values, mats):
            c += R ** -float(p) * c_p
    return rows_a, rows_b, mats


def _monomial_values(pts, rows):
    """prod_c pts[:, c] ** rows[m, c] for every point and row, shape (n, m)."""
    out = np.ones((pts.shape[0], rows.shape[0]))
    for c in range(rows.shape[1]):
        top = rows[:, c].max(initial=0)
        if top:
            # cumulative power table: pts[:, c]**e for e = 0..top
            table = np.vander(pts[:, c], top + 1, increasing=True)
            out *= table[:, rows[:, c]]
    return out


def _bilinear_values(rows_a, rows_b, mats, pts_a, pts_b):
    """Va[i] . C_k . Vb[i] for every matrix C_k in ``mats``, shape (k, n).

    Evaluated in row blocks; each block's monomial values Va and Vb are
    computed once and shared by every C_k.
    """
    out = np.empty((len(mats), pts_a.shape[0]))
    width = max(rows_a.shape[0], rows_b.shape[0])
    for blk in _row_blocks(pts_a.shape[0], width):
        va = _monomial_values(pts_a[blk], rows_a)
        vb = _monomial_values(pts_b[blk], rows_b)
        for k, c in enumerate(mats):
            out[k, blk] = np.einsum("ij,ij->i", va @ c, vb)
    return out


def series_batch(powers, coeffs, exp_a, exp_b, R, pts_a, pts_b):
    """Evaluate a truncated interaction series on a batch of configurations.

    ``powers``/``coeffs`` are the flat monomial table (one row per monomial),
    ``exp_a``/``exp_b`` the (m, 3) exponent arrays.  Returns shape (n,).
    Sample i is the bilinear form Va[i] . C(R) . Vb[i], evaluated in row
    blocks: the one-separation case of ``_bilinear_values``, which
    ``truncation_residual`` calls with every separation at once.
    """
    _check_separation(R)
    rows_a, rows_b, mats = _series_matrices(powers, coeffs, exp_a, exp_b, (R,))
    return _bilinear_values(rows_a, rows_b, mats, pts_a, pts_b)[0]


def series_grid_1d(powers, coeffs, exp_a, exp_b, R, xa, xb):
    """Truncated series tabulated on the outer grid of 1D displacements.

    The grid is Va . C(R) . Vb^T over the rows of ``series_batch``, with the
    displacements placed on the x-axis by ``_on_axis``.
    """
    _check_separation(R)
    rows_a, rows_b, (c,) = _series_matrices(powers, coeffs, exp_a, exp_b, (R,))
    c_vb = c @ _monomial_values(_on_axis(xb), rows_b).T
    return _monomial_values(_on_axis(xa), rows_a) @ c_vb


def exact_interaction(R, r_a, r_b):
    """Four-site Coulomb coupling in units of k, evaluated without expansion.

    ``r_a`` and ``r_b`` are length-d sequences (d <= 3), zero-padded into 3D
    because the Coulomb field always lives in three dimensions.  Raises
    ``SingularConfigurationError`` when any denominator drops below 1e-12 R;
    the model assumes non-overlapping atoms anyway.
    """
    _check_separation(R)
    eps = 1e-12 * R
    a = _pad3(r_a)
    b = _pad3(r_b)
    d_ab = np.linalg.norm(np.array([R, 0.0, 0.0]) - a + b)
    d_a = np.linalg.norm(np.array([R, 0.0, 0.0]) - a)
    d_b = np.linalg.norm(np.array([R, 0.0, 0.0]) + b)
    if min(R, d_ab, d_a, d_b) < eps:
        raise SingularConfigurationError(
            f"kernel denominator below epsilon {eps:g}"
        )
    return 1.0 / R + 1.0 / d_ab - 1.0 / d_a - 1.0 / d_b


def series_arrays(series):
    """Flat float/int arrays of the series monomials for the batch kernels."""
    monos = [(p, m) for p in sorted(series.terms) for m in series.terms[p]]
    powers = np.array([p for p, _ in monos], dtype=np.int64)
    coeffs = np.array([float(m.coeff) for _, m in monos])
    exp_a = np.zeros((len(monos), 3), dtype=np.int64)
    exp_b = np.zeros((len(monos), 3), dtype=np.int64)
    exp_a[:, : series.dim] = np.reshape([m.exp_a for _, m in monos], (-1, series.dim))
    exp_b[:, : series.dim] = np.reshape([m.exp_b for _, m in monos], (-1, series.dim))
    return powers, coeffs, exp_a, exp_b


@dataclass(frozen=True)
class TruncationReport:
    """Per-radius truncation residuals of a series against the exact kernel."""

    r_values: np.ndarray
    max_residual: np.ndarray
    rms_residual: np.ndarray
    fitted_exponent: float
    sample_count: int
    radius: float


def truncation_residual(series, r_values, sample_count, radius, seed=0):
    """Compare the truncated series against the exact kernel on random clouds.

    Draws ``sample_count`` configurations uniformly in the d-ball of the given
    radius, compares the series with the exact kernel on them at every
    separation in ``r_values`` and reports max/RMS residuals together with
    the decay exponent fitted on log-log axes.  The series is evaluated in
    one pass over the samples: the monomial values of each row block are
    computed once and shared by every separation, and only C(R) is built
    per separation.  The residual of an order-N series decays at least as
    fast as R**-(N+1).  A radius of zero puts every sample at the nucleus; a
    negative or non-finite radius, a separation that is not finite and
    positive, or a ``sample_count`` that is not a non-negative integer (a
    bool is not one) raises ``ValueError`` before any sample is drawn.
    """
    sample_count = _integer("sample_count", sample_count)
    if sample_count < 0:
        raise ValueError(f"sample_count must be non-negative, got {sample_count}")
    if not (radius >= 0.0 and math.isfinite(radius)):
        raise ValueError(f"radius must be finite and non-negative, got {radius!r}")
    r_values = np.asarray(r_values, dtype=float)
    for R in r_values:
        _check_separation(R)
    rng = np.random.default_rng(seed)
    pts_a = _ball_samples(rng, series.dim, sample_count, radius)
    pts_b = _ball_samples(rng, series.dim, sample_count, radius)
    rows_a, rows_b, mats = _series_matrices(*series_arrays(series), r_values)
    approx = _bilinear_values(rows_a, rows_b, mats, pts_a, pts_b)

    max_res = np.empty_like(r_values)
    rms_res = np.empty_like(r_values)
    for i, R in enumerate(r_values):
        diff = np.abs(four_site_batch(R, pts_a, pts_b) - approx[i])
        max_res[i] = diff.max() if diff.size else 0.0
        rms_res[i] = np.sqrt(np.mean(diff**2)) if diff.size else 0.0

    if np.all(max_res > 0) and len(r_values) >= 2:
        slope = np.polyfit(np.log(r_values), np.log(max_res), 1)[0]
        exponent = -slope
    else:
        exponent = float("nan")
    return TruncationReport(
        r_values, max_res, rms_res, exponent, sample_count, radius
    )


def _pad3(r):
    out = np.zeros(3)
    r = np.asarray(r, dtype=float)
    out[: r.size] = r
    return out


def _ball_samples(rng, dim, count, radius):
    """Uniform samples in the d-ball of the given radius, zero-padded to 3D."""
    pts = np.zeros((count, 3))
    if radius > 0 and count > 0:
        g = rng.standard_normal((count, dim))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        u = rng.random((count, 1)) ** (1.0 / dim)
        pts[:, :dim] = radius * u * g / norms
    return pts
