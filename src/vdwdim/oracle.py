"""Brute-force ground-state computations that validate the perturbative results.

Two independent instruments, both built on the exact four-site kernel rather
than its expansion:

* ``oscillator_basis_diag`` assembles the full two-atom Hamiltonian of a 1D
  Drude pair in the product Hermite basis, with coupling matrix elements from
  tensorized Gauss-Hermite quadrature, and diagonalizes it.  Truncating the
  coupling at the dipole term reproduces the normal-mode answer; keeping the
  full kernel exposes the repulsive R^-5 physics directly.

* ``direct_first_order`` integrates the exact kernel against the product
  ground density on a 2d-dimensional tensor Gauss-Hermite grid.

Validity needs well-separated atoms; each entry point checks the electron
density at the midpoint between the nuclei against an overlap threshold.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .atoms import AtomKindError, DrudeAtom
from .multipole import expand_interaction, series_arrays


class OverlapError(ValueError):
    """Atoms too close: midpoint density above the overlap threshold."""


class ConvergenceError(RuntimeError):
    """Basis-cutoff ladder did not converge to the requested tolerance."""


@dataclass(frozen=True)
class OracleResult:
    ground_energy: float
    correction: float
    cutoff: int
    convergence_error: float
    mode: str


@dataclass(frozen=True)
class ConvergenceReport:
    cutoffs: tuple
    corrections: tuple
    ground_energies: tuple

    def successive_differences(self):
        g = self.ground_energies
        return tuple(g[i] - g[i + 1] for i in range(len(g) - 1))


def _check_overlap(atom, R, overlap_tol):
    mid = atom.radial_density(R / 2.0)
    if mid > overlap_tol:
        raise OverlapError(
            f"midpoint density {mid:.3e} exceeds overlap threshold "
            f"{overlap_tol:.1e}; increase R"
        )


def _oscillator_length(atom):
    """ell = sqrt(1 / (m omega)) (hbar = 1), the unit of the Gauss-Hermite nodes."""
    return math.sqrt(1.0 / (atom.mass * atom.omega))


def _hermite_columns(n_basis, xi):
    """Orthonormal Hermite functions (weight e^{-xi^2}) at the nodes."""
    h = np.empty((n_basis, xi.size))
    h[0] = math.pi**-0.25
    if n_basis > 1:
        h[1] = math.sqrt(2.0) * xi * h[0]
    for n in range(2, n_basis):
        h[n] = xi * math.sqrt(2.0 / n) * h[n - 1] - math.sqrt(
            (n - 1) / n
        ) * h[n - 2]
    return h


def _coupling_matrix(atom, R, mode, max_power, cutoff, nodes):
    """H_I (k = 1) in the flattened product Hermite basis, shape (n^2, n^2)."""
    xi, w = np.polynomial.hermite.hermgauss(nodes)
    ell = _oscillator_length(atom)
    x = ell * xi
    if mode == "full":
        gap = min(
            np.abs(R - x[:, None] + x[None, :]).min(), np.abs(R - x).min()
        )
        if gap < 1e-8 * R:
            raise ValueError(
                "quadrature node hit a kernel singularity; change the node count"
            )
        grid = kernels.four_site_grid_1d(R, x, x)
    elif mode == "truncated":
        series = expand_interaction(1, max_power)
        powers, coeffs, exp_a, exp_b = series_arrays(series)
        grid = kernels.series_grid_1d(powers, coeffs, exp_a, exp_b, R, x, x)
    else:
        raise ValueError("mode must be 'full' or 'truncated'")
    n = cutoff + 1
    h = _hermite_columns(n, xi)
    # q[(i, k), p] = h_i(x_p) h_k(x_p) w_p, so <ij|H_I|kl> = (q G q^T)[(i,k),(j,l)]
    q = (h[:, None, :] * (h * w)[None, :, :]).reshape(n * n, nodes)
    m4 = (q @ grid @ q.T).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    return m4.reshape(n * n, n * n)


def _hamiltonian(atom, R, mode, max_power, cutoff, nodes):
    """H_A + H_B + H_I on product states |ij>, i, j <= cutoff, at i n + j."""
    n = cutoff + 1
    levels = atom.hbar_omega * (
        np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0
    )
    return np.diag(levels.ravel()) + _coupling_matrix(
        atom, R, mode, max_power, cutoff, nodes
    )


def _ground_energy(ham, cutoff):
    """Lowest eigenvalue of the principal block of ``ham`` with i, j <= cutoff."""
    n = math.isqrt(ham.shape[0])
    m = cutoff + 1
    block = ham.reshape(n, n, n, n)[:m, :m, :m, :m].reshape(m * m, m * m)
    return float(np.linalg.eigvalsh(block)[0])


def _nodes_off_nucleus(xi_nucleus, nodes):
    """Smallest node count from ``nodes`` up that keeps clear of the nucleus.

    The full kernel's -1/|R - x_A| term is singular at the other nucleus,
    xi = R / ell.  A node within a small fraction of the node spacing of it
    gives the coupling a large negative entry and the spectrum a spurious
    deep eigenvalue.  Accept a grid when the nucleus lies beyond the
    outermost node or in the middle half of the gap between the two nodes
    around it.
    """
    while True:
        xi = np.polynomial.hermite.hermgauss(nodes)[0]
        j = int(np.searchsorted(xi, xi_nucleus))
        if j in (0, xi.size):
            return nodes
        quarter = (xi[j] - xi[j - 1]) / 4.0
        if xi[j - 1] + quarter <= xi_nucleus <= xi[j] - quarter:
            return nodes
        nodes += 1


def _check_pair(atom, R, cutoff, overlap_tol):
    if not isinstance(atom, DrudeAtom):
        raise AtomKindError("oracle diagonalization requires a Drude atom")
    if atom.dim != 1:
        raise ValueError("oracle diagonalization is restricted to dim = 1")
    if cutoff < 3:
        raise ValueError("cutoff must be at least 3")
    _check_overlap(atom, R, overlap_tol)


_CONV_TOL = 1e-6


def oscillator_basis_diag(
    atom, R, mode="full", max_power=3, cutoff=10, overlap_tol=1e-8
):
    """Lowest eigenvalue of H_A + H_B + H_I for a 1D Drude pair, k = hbar = 1.

    ``mode`` selects the exact kernel ("full") or the series truncated at
    ``max_power`` ("truncated").  The convergence error is the variational
    drop from the sub-basis with cutoff - 2; exceeding 1e-6 relative to the
    ground energy raises ``ConvergenceError``.

    In full mode the discretized expectation of the kernel is regularization
    sensitive once the clouds overlap appreciably (R/a below about 8): the
    exact expectation of 1/|R - x_A + x_B| picks up a logarithmic
    electron-coincidence contribution weighted by the exponentially small
    overlap, so dense grids that land nodes near that line shift the answer.
    The node count 2 cutoff + 8 can also put a node next to the other
    nucleus, x = R, where -1/|R - x_A| is singular; full mode therefore
    takes the first count from 2 cutoff + 8 up that keeps R in the middle
    half of a node gap or beyond the outermost node.
    """
    _check_pair(atom, R, cutoff, overlap_tol)
    nodes = 2 * cutoff + 8
    if mode == "full":
        nodes = _nodes_off_nucleus(R / _oscillator_length(atom), nodes)
    ham = _hamiltonian(atom, R, mode, max_power, cutoff, nodes)
    e0 = _ground_energy(ham, cutoff)
    conv_err = _ground_energy(ham, cutoff - 2) - e0
    if conv_err / abs(e0) > _CONV_TOL:
        raise ConvergenceError(
            f"basis not converged: drop {conv_err:.3e} at cutoff {cutoff}"
        )
    return OracleResult(
        ground_energy=e0,
        correction=e0 - atom.hbar_omega,  # minus two uncoupled ground states
        cutoff=cutoff,
        convergence_error=conv_err,
        mode=mode if mode == "full" else f"truncated({max_power})",
    )


def convergence_report(
    atom, R, mode="full", max_power=3, cutoffs=(6, 10, 14), overlap_tol=1e-8
):
    """Ground energy versus basis cutoff at a fixed quadrature grid, k = hbar = 1.

    H is assembled once, at the largest cutoff on 2 max + 8 nodes, and each
    rung is its principal block, so the ladder shares one coupling operator
    and the energies are strictly variational in the basis.
    """
    cutoffs = tuple(sorted(cutoffs))
    top = cutoffs[-1]
    _check_pair(atom, R, cutoffs[0], overlap_tol)
    ham = _hamiltonian(atom, R, mode, max_power, top, 2 * top + 8)
    energies = tuple(_ground_energy(ham, c) for c in cutoffs)
    corrections = tuple(e - atom.hbar_omega for e in energies)
    return ConvergenceReport(cutoffs, corrections, energies)


_NODES_PER_AXIS = {1: 80, 2: 48, 3: 18}


def direct_first_order(atom_a, atom_b, R, overlap_tol=1e-8):
    """<0|H_I|0> (k = 1) by tensor Gauss-Hermite quadrature of the exact kernel.

    Works for Drude pairs in d = 1, 2 (and d = 3 as a modest-order zero
    check), on 80, 48 or 18 nodes per axis.  Node placement follows the
    Gaussian ground-state weight.
    """
    if not isinstance(atom_a, DrudeAtom) or not isinstance(atom_b, DrudeAtom):
        raise AtomKindError("direct quadrature requires Drude atoms")
    if atom_a.dim != atom_b.dim:
        raise ValueError("atoms must share a dimension")
    dim = atom_a.dim
    _check_overlap(atom_a, R, overlap_tol)
    _check_overlap(atom_b, R, overlap_tol)

    xi, w = np.polynomial.hermite.hermgauss(_NODES_PER_AXIS[dim])
    w = w / math.sqrt(math.pi)
    pts_a, w_a = _tensor_cloud(atom_a, xi, w)
    pts_b, w_b = _tensor_cloud(atom_b, xi, w)
    return kernels.pair_expectation(R, pts_a, w_a, pts_b, w_b)


def _tensor_cloud(atom, xi, w):
    """Tensor grid of ground-density quadrature points, zero-padded to 3D."""
    ell = _oscillator_length(atom)
    axes = [ell * xi] * atom.dim
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.zeros((grids[0].size, 3))
    for c, g in enumerate(grids):
        pts[:, c] = g.ravel()
    weight = np.ones(grids[0].size)
    wgrids = np.meshgrid(*([w] * atom.dim), indexing="ij")
    for g in wgrids:
        weight *= g.ravel()
    return pts, weight
