"""Hot numeric kernels, vectorized with numpy.

Everything here works on plain float64 arrays: the four-site Coulomb
combination evaluated over batches of electron configurations, the same
kernel tabulated on 1D quadrature grids, tensor-product quadrature sums for
ground-state expectation values, and batch evaluation of a truncated
interaction series.  Electron positions are always passed as (n, 3) arrays,
zero-padded when the physical dimension is lower; the inter-atomic axis is x.
"""

import numpy as np

_CHUNK = 4096


def backend_name() -> str:
    """Name of the array library the kernels run on."""
    return "numpy"


def four_site_batch(R, pts_a, pts_b):
    """1/R + 1/|Rx - ra + rb| - 1/|Rx - ra| - 1/|Rx + rb| for paired samples.

    ``pts_a`` and ``pts_b`` have shape (n, 3); sample i of each is one
    two-electron configuration.  The Coulomb prefactor is not applied.
    """
    ax, ay, az = pts_a[:, 0], pts_a[:, 1], pts_a[:, 2]
    bx, by, bz = pts_b[:, 0], pts_b[:, 1], pts_b[:, 2]
    d_ab = np.sqrt((R - ax + bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)
    d_a = np.sqrt((R - ax) ** 2 + ay**2 + az**2)
    d_b = np.sqrt((R + bx) ** 2 + by**2 + bz**2)
    return 1.0 / R + 1.0 / d_ab - 1.0 / d_a - 1.0 / d_b


def four_site_grid_1d(R, xa, xb):
    """Four-site kernel on the outer grid of 1D displacements xa[p], xb[q]."""
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

    Chunked over the first factor so the (n_a, n_b) intermediates stay small.
    """
    acc = 0.0
    for i0 in range(0, pts_a.shape[0], _CHUNK):
        pa = pts_a[i0 : i0 + _CHUNK]
        wa = w_a[i0 : i0 + _CHUNK]
        dx = R - pa[:, 0:1] + pts_b[None, :, 0].reshape(1, -1)
        dy = pa[:, 1:2] - pts_b[None, :, 1].reshape(1, -1)
        dz = pa[:, 2:3] - pts_b[None, :, 2].reshape(1, -1)
        k = 1.0 / np.sqrt(dx * dx + dy * dy + dz * dz)
        k += 1.0 / R
        da = np.sqrt((R - pa[:, 0]) ** 2 + pa[:, 1] ** 2 + pa[:, 2] ** 2)
        db = np.sqrt(
            (R + pts_b[:, 0]) ** 2 + pts_b[:, 1] ** 2 + pts_b[:, 2] ** 2
        )
        k -= 1.0 / da[:, None]
        k -= 1.0 / db[None, :]
        acc += float(wa @ k @ w_b)
    return acc


def series_batch(powers, coeffs, exp_a, exp_b, R, pts_a, pts_b):
    """Evaluate a truncated interaction series on a batch of configurations.

    ``powers``/``coeffs`` are the flat monomial table (one row per monomial),
    ``exp_a``/``exp_b`` the (m, 3) exponent arrays.  Returns shape (n,).
    """
    out = np.zeros(pts_a.shape[0])
    rpow = R ** (-powers.astype(np.float64))
    for m in range(coeffs.shape[0]):
        term = np.full(pts_a.shape[0], coeffs[m] * rpow[m])
        for c in range(3):
            if exp_a[m, c]:
                term *= pts_a[:, c] ** exp_a[m, c]
            if exp_b[m, c]:
                term *= pts_b[:, c] ** exp_b[m, c]
        out += term
    return out


def series_grid_1d(powers, coeffs, exp_a, exp_b, R, xa, xb):
    """Truncated series tabulated on the outer grid of 1D displacements."""
    out = np.zeros((xa.shape[0], xb.shape[0]))
    for m in range(coeffs.shape[0]):
        va = xa ** exp_a[m, 0]
        vb = xb ** exp_b[m, 0]
        out += (coeffs[m] * R ** (-float(powers[m]))) * np.outer(va, vb)
    return out
