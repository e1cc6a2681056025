"""Hot numeric kernels, vectorized with numpy.

Everything here works on plain float64 arrays: the four-site Coulomb
combination evaluated over batches of electron configurations, the same
kernel tabulated on 1D quadrature grids, tensor-product quadrature sums for
ground-state expectation values, and batch evaluation of a truncated
interaction series.  Electron positions are always passed as (n, 3) arrays,
zero-padded when the physical dimension is lower; the inter-atomic axis is x.

The float side of the exact-rational ``multipole`` algebra lives here too:
the scalar reference ``exact_interaction``, the flat monomial arrays
``series_arrays`` and ``truncation_residual``.  ``multipole`` still resolves
those names.
"""

import math
from dataclasses import dataclass

import numpy as np

from .multipole import SingularConfigurationError

# Matrix entries per block: every (rows, columns) temporary of a blocked
# kernel holds about this many float64 values (0.5 MB), so temporaries stay
# cache-sized and memory does not grow with the batch.
_BLOCK = 2**16


def backend_name() -> str:
    """Name of the array library the kernels run on."""
    return "numpy"


def _check_separation(R):
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"separation R must be finite and positive, got {R!r}")


def _row_blocks(n_rows, width):
    """Slices of consecutive rows, each covering about _BLOCK entries."""
    step = max(1, _BLOCK // max(1, width))
    for i0 in range(0, n_rows, step):
        yield slice(i0, i0 + step)


def four_site_batch(R, pts_a, pts_b):
    """1/R + 1/|Rx - ra + rb| - 1/|Rx - ra| - 1/|Rx + rb| for paired samples.

    ``pts_a`` and ``pts_b`` have shape (n, 3); sample i of each is one
    two-electron configuration.  The Coulomb prefactor is not applied.
    """
    _check_separation(R)
    ax, ay, az = pts_a[:, 0], pts_a[:, 1], pts_a[:, 2]
    bx, by, bz = pts_b[:, 0], pts_b[:, 1], pts_b[:, 2]
    d_ab = np.sqrt((R - ax + bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)
    d_a = np.sqrt((R - ax) ** 2 + ay**2 + az**2)
    d_b = np.sqrt((R + bx) ** 2 + by**2 + bz**2)
    return 1.0 / R + 1.0 / d_ab - 1.0 / d_a - 1.0 / d_b


def four_site_grid_1d(R, xa, xb):
    """Four-site kernel on the outer grid of 1D displacements xa[p], xb[q]."""
    _check_separation(R)
    A = xa[:, None]
    B = xb[None, :]
    return (
        1.0 / R
        + 1.0 / np.abs(R - A + B)
        - 1.0 / np.abs(R - A)
        - 1.0 / np.abs(R + B)
    )


def pair_expectation(R, pts_a, w_a, pts_b, w_b):
    """Double quadrature sum  sum_ij w_a[i] w_b[j] K(R, a_i, b_j).

    Blocked over the first factor so each (rows, n_b) intermediate holds
    about _BLOCK kernel values.  K is summed element by element: the four
    terms nearly cancel, and summing them separately over the grid loses
    the result.
    """
    _check_separation(R)
    inv_a = 1.0 / np.sqrt(
        (R - pts_a[:, 0]) ** 2 + pts_a[:, 1] ** 2 + pts_a[:, 2] ** 2
    )
    inv_b = 1.0 / np.sqrt(
        (R + pts_b[:, 0]) ** 2 + pts_b[:, 1] ** 2 + pts_b[:, 2] ** 2
    )
    acc = 0.0
    for blk in _row_blocks(pts_a.shape[0], pts_b.shape[0]):
        pa = pts_a[blk]
        dx = R - pa[:, 0:1] + pts_b[:, 0]
        dy = pa[:, 1:2] - pts_b[:, 1]
        dz = pa[:, 2:3] - pts_b[:, 2]
        k = 1.0 / np.sqrt(dx * dx + dy * dy + dz * dz)
        k += 1.0 / R
        k -= inv_a[blk, None]
        k -= inv_b
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


def _series_matrix(powers, coeffs, exp_a, exp_b, R):
    """Distinct rows and C(R) = sum_p R^-p C_p, the whole series at R."""
    rows_a, rows_b, per_power = _bilinear_form(powers, coeffs, exp_a, exp_b)
    c = np.zeros((rows_a.shape[0], rows_b.shape[0]))
    for p, c_p in per_power:
        c += R ** -float(p) * c_p
    return rows_a, rows_b, c


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


def series_batch(powers, coeffs, exp_a, exp_b, R, pts_a, pts_b):
    """Evaluate a truncated interaction series on a batch of configurations.

    ``powers``/``coeffs`` are the flat monomial table (one row per monomial),
    ``exp_a``/``exp_b`` the (m, 3) exponent arrays.  Returns shape (n,).
    Sample i is the bilinear form Va[i] . C(R) . Vb[i], evaluated in row
    blocks.
    """
    _check_separation(R)
    rows_a, rows_b, c = _series_matrix(powers, coeffs, exp_a, exp_b, R)
    out = np.empty(pts_a.shape[0])
    for blk in _row_blocks(pts_a.shape[0], max(c.shape)):
        va = _monomial_values(pts_a[blk], rows_a)
        vb = _monomial_values(pts_b[blk], rows_b)
        out[blk] = np.einsum("ij,ij->i", va @ c, vb)
    return out


def series_grid_1d(powers, coeffs, exp_a, exp_b, R, xa, xb):
    """Truncated series tabulated on the outer grid of 1D displacements.

    The grid is Va . C(R) . Vb^T over the rows of ``series_batch``, with each
    displacement x at the 3D point (x, 0, 0), evaluated in row blocks of
    ``xa``.
    """
    _check_separation(R)
    rows_a, rows_b, c = _series_matrix(powers, coeffs, exp_a, exp_b, R)
    x_hat = (1.0, 0.0, 0.0)
    c_vb = c @ _monomial_values(np.outer(xb, x_hat), rows_b).T
    out = np.empty((xa.shape[0], xb.shape[0]))
    for blk in _row_blocks(xa.shape[0], max(c_vb.shape)):
        out[blk] = _monomial_values(np.outer(xa[blk], x_hat), rows_a) @ c_vb
    return out


def exact_interaction(R, r_a, r_b):
    """Four-site Coulomb coupling in units of k, evaluated without expansion.

    ``r_a`` and ``r_b`` are length-d sequences (d <= 3), zero-padded into 3D
    because the Coulomb field always lives in three dimensions.  Raises
    ``SingularConfigurationError`` when any denominator drops below 1e-12 R;
    the model assumes non-overlapping atoms anyway.
    """
    if R <= 0:
        raise ValueError("separation must be positive")
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
    radius for every separation in ``r_values`` and reports max/RMS residuals
    together with the decay exponent fitted on log-log axes.  The residual of
    an order-N series decays at least as fast as R**-(N+1).
    """
    r_values = np.asarray(r_values, dtype=float)
    rng = np.random.default_rng(seed)
    pts_a = _ball_samples(rng, series.dim, sample_count, radius)
    pts_b = _ball_samples(rng, series.dim, sample_count, radius)
    powers, coeffs, exp_a, exp_b = series_arrays(series)

    max_res = np.empty_like(r_values)
    rms_res = np.empty_like(r_values)
    for i, R in enumerate(r_values):
        exact = four_site_batch(R, pts_a, pts_b)
        approx = series_batch(powers, coeffs, exp_a, exp_b, R, pts_a, pts_b)
        diff = np.abs(exact - approx)
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
