"""Brute-force ground-state computations that validate the perturbative results.

Two independent instruments, both built on the exact four-site kernel rather
than its expansion:

* ``oscillator_basis_diag`` assembles the full two-atom Hamiltonian of a 1D
  Drude pair in the product Hermite basis, with coupling matrix elements from
  tensorized Gauss-Hermite quadrature, and diagonalizes it.  Truncating the
  coupling at the dipole term reproduces the normal-mode answer; keeping the
  full kernel exposes the repulsive R^-5 physics directly.

  Two things keep that eigensolve small and accurate.  The diagonal holds
  hbar omega (i + j), the level of |ij> less the uncoupled ground energy
  hbar omega, so the lowest eigenvalue is the correction itself rather than
  a difference of two numbers near hbar omega.  And the pair is two equal
  atoms on a line, so H commutes with the exchange reflection
  (x_A, x_B) -> (-x_B, -x_A), which acts on product states as
  P|ij> = (-1)^(i+j) |ji>.  H splits into a P = +1 block on the states
  |ij> + (-1)^(i+j) |ji> (i <= j, m(m+1)/2 of them for m = cutoff + 1) and a
  P = -1 block on |ij> - (-1)^(i+j) |ji> (i < j, m(m-1)/2).  Each block is
  gathered with the exact projection of H onto its sector, so the
  rounding-level P-asymmetry of the quadrature moves eigenvalues only at
  second order.  The pairs are ordered by j, so the blocks of a smaller
  cutoff are leading principal blocks of the larger ones.

  The lowest eigenvalue is the lower of the two sectors'.  Only the P = +1
  blocks are diagonalized outright.  One Cholesky factorization of the
  P = -1 block, shifted to just above the highest P = +1 value in play,
  proves that the P = -1 sector lies higher at every cutoff, for about a
  quarter of the flops of that block's eigensolve.  Where the factorization
  fails, the P = -1 blocks are diagonalized too, so no sector is assumed to
  hold the ground state.

* ``direct_first_order`` integrates the exact kernel against the product
  ground density on a 2d-dimensional tensor Gauss-Hermite grid, with atom
  A's grid folded over the transverse symmetries and atom B's grid passed
  to the kernel by its axes.

Validity needs well-separated atoms; each entry point checks the electron
density at the midpoint between the nuclei against an overlap threshold,
which must be finite and positive.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .atoms import AtomKindError, DrudeAtom
from .multipole import _check_separation, _integer, expand_interaction


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
        """Drop in the correction from each rung to the next.

        Differences of corrections, the lowest eigenvalues themselves, so no
        ground energy near hbar omega enters and cancels.
        """
        c = self.corrections
        return tuple(c[i] - c[i + 1] for i in range(len(c) - 1))


def _check_overlap(atom, R, overlap_tol):
    _check_separation(R)
    if not (math.isfinite(overlap_tol) and overlap_tol > 0):
        raise ValueError(
            f"overlap_tol must be finite and positive, got {overlap_tol!r}"
        )
    mid = atom.radial_density(R / 2.0)
    if mid > overlap_tol:
        raise OverlapError(
            f"midpoint density {mid:.3e} exceeds overlap threshold "
            f"{overlap_tol:.1e}; increase R"
        )


def _oscillator_length(atom):
    """ell = sqrt(1 / (m omega)) (hbar = 1), the unit of the Gauss-Hermite nodes."""
    return math.sqrt(1.0 / (atom.mass * atom.omega))


@functools.cache
def _gauss_hermite(nodes):
    """Gauss-Hermite nodes and weights (weight e^{-xi^2}), built once per count.

    Each ``hermgauss`` call runs its own eigensolve; the arrays are read-only
    because every caller shares them.
    """
    xi, w = np.polynomial.hermite.hermgauss(nodes)
    xi.setflags(write=False)
    w.setflags(write=False)
    return xi, w


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
    xi, w = _gauss_hermite(nodes)
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
        form = kernels.series_form(expand_interaction(1, max_power))
        grid = kernels.series_form_grid_1d(form, R, x, x)
    else:
        raise ValueError("mode must be 'full' or 'truncated'")
    n = cutoff + 1
    h = _hermite_columns(n, xi)
    # q[(i, k), p] = h_i(x_p) h_k(x_p) w_p, so <ij|H_I|kl> = (q G q^T)[(i,k),(j,l)]
    q = (h[:, None, :] * (h * w)[None, :, :]).reshape(n * n, nodes)
    m4 = (q @ grid @ q.T).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    return m4.reshape(n * n, n * n)


def _hamiltonian(atom, R, mode, max_power, cutoff, nodes):
    """H_A + H_B + H_I - hbar omega on product states |ij>, i, j <= cutoff.

    The state |ij> sits at i n + j; its diagonal entry is hbar omega (i + j),
    its level above the uncoupled ground state, so the lowest eigenvalue is
    the correction.
    """
    n = cutoff + 1
    ham = _coupling_matrix(atom, R, mode, max_power, cutoff, nodes)
    quanta = np.arange(n)[:, None] + np.arange(n)[None, :]
    ham.flat[:: n * n + 1] += atom.hbar_omega * quanta.ravel()
    return ham


def _exchange_blocks(ham):
    """``ham`` projected onto the P = +1 and P = -1 sectors of the exchange.

    Row a of the P = p block is the state v_a (|ij> + s_a |ji>) with
    s_a = p (-1)^(i+j), v_a = 1/sqrt(2) for i != j and v_a = 1/2 for i = j
    (that is |ii> itself); the P = -1 sector has no i = j state.  Entry
    (a, b), with b = (k, l), is

        v_a v_b [H(ij,kl) + s_b H(ij,lk) + s_a H(ji,kl) + s_a s_b H(ji,lk)],

    summed over rows first and then over columns.  Pairs run j-major,
    (0,0), (0,1), (1,1), (0,2), ..., so the first m(m+1)/2 or m(m-1)/2 rows
    are the states with i, j < m.
    """
    n = math.isqrt(ham.shape[0])
    blocks = []
    for parity, diagonal in ((1.0, 0), (-1.0, -1)):
        j, i = np.tril_indices(n, diagonal)
        sign = parity * (-1.0) ** (i + j)
        v = np.where(i == j, 0.5, math.sqrt(0.5))
        pair, swap = i * n + j, j * n + i
        w = sign * v
        rows = ham[pair] * v[:, None]
        rows += ham[swap] * w[:, None]
        block = rows[:, pair] * v
        block += rows[:, swap] * w
        blocks.append(block)
    return blocks


def _block_sizes(cutoff):
    """Sizes of the P = +1 and P = -1 blocks of the basis i, j <= cutoff."""
    m = cutoff + 1
    return m * (m + 1) // 2, m * (m - 1) // 2


def _lowest(block, size):
    """Lowest eigenvalue of the leading size x size block."""
    return float(np.linalg.eigvalsh(block[:size, :size])[0])


_UNIT_ROUNDOFF = 2.0**-53  # of float64


def _sector_above(block, mu):
    """True if a Cholesky factorization proves no eigenvalue of ``block`` < mu.

    Factorizes S = block - (mu + tau) I for the n x n block, with

        tau = 4 (n + 1) u sum_i (|block_ii| + |mu|)

    and u the unit roundoff.  A factorization that runs to completion in
    floating point is the exact one of S + E with |E| <= gamma_(n+1) |R^T| |R|
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3,
    gamma_k = k u / (1 - k u)), so ||E||_2 <= gamma_(n+1) / (1 - gamma_(n+1))
    trace(S) when no entry is near underflow, and trace(S) is at most the
    sum in tau.  tau is more than twice that bound, so a completed
    factorization puts every eigenvalue of ``block`` at or above
    mu + tau / 2, up to the rounding of the shift; a failed one proves
    nothing.  numpy reads the lower triangle, as ``eigvalsh`` does.
    """
    n = block.shape[0]
    trace = np.abs(np.diagonal(block)).sum() + n * abs(mu)
    tau = 4 * (n + 1) * _UNIT_ROUNDOFF * trace
    shifted = block.copy()
    shifted.flat[:: n + 1] -= mu + tau
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _corrections(blocks, cutoffs):
    """Lowest eigenvalue over both exchange sectors for each cutoff.

    Cutoff c is the basis i, j <= c, and ``blocks`` are the two exchange
    blocks of the largest cutoff or a larger one.  ``eigvalsh`` solves the
    P = +1 leading block of every cutoff.  One Cholesky factorization of the
    whole P = -1 block then proves that it has no eigenvalue below mu, the
    highest of those P = +1 values (``_sector_above``).  By Cauchy
    interlacing none of its leading blocks has one either, so at every
    cutoff the minimum over the sectors is the P = +1 value.  Only when the
    factorization fails are the P = -1 leading blocks solved as well, and
    each cutoff takes the lower of its two values: no sector is assumed to
    hold the ground state.
    """
    plus, minus = blocks
    lows = tuple(_lowest(plus, _block_sizes(c)[0]) for c in cutoffs)
    if _sector_above(minus, max(lows)):
        return lows
    return tuple(
        min(low, _lowest(minus, _block_sizes(c)[1]))
        for low, c in zip(lows, cutoffs)
    )


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
        xi = _gauss_hermite(nodes)[0]
        j = int(np.searchsorted(xi, xi_nucleus))
        if j in (0, xi.size):
            return nodes
        quarter = (xi[j] - xi[j - 1]) / 4.0
        if xi[j - 1] + quarter <= xi_nucleus <= xi[j] - quarter:
            return nodes
        nodes += 1


def _node_count(atom, R, mode, cutoff):
    """Quadrature nodes for a basis cutoff: 2 cutoff + 8, kept off the nucleus.

    In full mode the count steps up from 2 cutoff + 8 until the other
    nucleus keeps clear of the nodes (``_nodes_off_nucleus``); the truncated
    series is smooth there and keeps 2 cutoff + 8.
    """
    nodes = 2 * cutoff + 8
    if mode == "full":
        nodes = _nodes_off_nucleus(R / _oscillator_length(atom), nodes)
    return nodes


def _check_pair(atom, R, cutoffs, overlap_tol):
    """The cutoffs as plain ints, once the pair and every cutoff check out."""
    if not isinstance(atom, DrudeAtom):
        raise AtomKindError("oracle diagonalization requires a Drude atom")
    if atom.dim != 1:
        raise ValueError("oracle diagonalization is restricted to dim = 1")
    cutoffs = tuple(_integer("cutoff", cutoff) for cutoff in cutoffs)
    if any(cutoff < 3 for cutoff in cutoffs):
        raise ValueError("cutoff must be at least 3")
    _check_overlap(atom, R, overlap_tol)
    return cutoffs


_CONV_TOL = 1e-6


def oscillator_basis_diag(
    atom, R, mode="full", max_power=3, cutoff=10, overlap_tol=1e-8
):
    """Lowest eigenvalue of H_A + H_B + H_I for a 1D Drude pair, k = hbar = 1.

    ``mode`` selects the exact kernel ("full") or the series truncated at
    ``max_power`` ("truncated").  The Hamiltonian carries hbar omega (i + j)
    on its diagonal, so its lowest eigenvalue is ``correction`` and
    ``ground_energy`` is correction + hbar omega.  It is split into its two
    exchange blocks, P = +1 with m(m+1)/2 states and P = -1 with m(m-1)/2
    (m = cutoff + 1), and the lower of their two lowest eigenvalues is taken
    (see the module docstring).  The convergence error is the variational
    drop in the correction from the sub-basis with cutoff - 2, whose blocks
    are leading principal blocks of the same two; exceeding 1e-6 relative to
    the ground energy raises ``ConvergenceError``.  ``eigvalsh`` solves the
    P = +1 blocks of both bases, and one Cholesky factorization of the
    P = -1 block at ``cutoff`` shows that sector lies above both; only if
    it fails are the P = -1 blocks diagonalized too.  ``cutoff`` must be an
    integer of at least 3 (a numpy integer is taken as an int, a bool is
    rejected) and ``overlap_tol`` finite and positive.

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
    (cutoff,) = _check_pair(atom, R, (cutoff,), overlap_tol)
    nodes = _node_count(atom, R, mode, cutoff)
    blocks = _exchange_blocks(
        _hamiltonian(atom, R, mode, max_power, cutoff, nodes)
    )
    correction, coarse = _corrections(blocks, (cutoff, cutoff - 2))
    conv_err = coarse - correction
    e0 = correction + atom.hbar_omega  # plus two uncoupled ground states
    if conv_err / abs(e0) > _CONV_TOL:
        raise ConvergenceError(
            f"basis not converged: drop {conv_err:.3e} at cutoff {cutoff}"
        )
    return OracleResult(
        ground_energy=e0,
        correction=correction,
        cutoff=cutoff,
        convergence_error=conv_err,
        mode=mode if mode == "full" else f"truncated({max_power})",
    )


def convergence_report(
    atom, R, mode="full", max_power=3, cutoffs=(6, 10, 14), overlap_tol=1e-8
):
    """Ground energy versus basis cutoff at a fixed quadrature grid, k = hbar = 1.

    H is assembled once, at the largest cutoff on the grid
    ``oscillator_basis_diag`` would take for it (2 max + 8 nodes, stepped up
    in full mode until no node sits next to the other nucleus), with
    hbar omega (i + j) on its diagonal, and split into its two exchange
    blocks (see the module docstring).  Each rung is the pair of leading
    principal blocks of its cutoff, so the ladder shares one coupling
    operator and the energies are strictly variational in the basis.  The
    corrections are the lowest eigenvalues themselves and the ground energies
    are correction + hbar omega.  ``eigvalsh`` solves each rung's P = +1
    block; one Cholesky factorization of the P = -1 block at the largest
    cutoff shows that sector lies above every rung, and only if it fails
    are the P = -1 blocks diagonalized too.  Every rung must be an integer
    of at least 3.
    """
    cutoffs = tuple(cutoffs)
    if not cutoffs:
        raise ValueError("cutoffs must name at least one basis cutoff")
    cutoffs = tuple(sorted(_check_pair(atom, R, cutoffs, overlap_tol)))
    top = cutoffs[-1]
    nodes = _node_count(atom, R, mode, top)
    blocks = _exchange_blocks(
        _hamiltonian(atom, R, mode, max_power, top, nodes)
    )
    corrections = _corrections(blocks, cutoffs)
    energies = tuple(corr + atom.hbar_omega for corr in corrections)
    return ConvergenceReport(cutoffs, corrections, energies)


_NODES_PER_AXIS = {1: 80, 2: 48, 3: 18}


def direct_first_order(atom_a, atom_b, R, overlap_tol=1e-8):
    """<0|H_I|0> (k = 1) by tensor Gauss-Hermite quadrature of the exact kernel.

    Works for Drude pairs in d = 1, 2 (and d = 3 as a modest-order zero
    check), on 80, 48 or 18 nodes per axis.  Node placement follows the
    Gaussian ground-state weight.

    The kernel is unchanged when both atoms are reflected in a transverse
    axis (y -> -y, z -> -z) or, at d = 3, when y and z are swapped, and each
    atom's tensor grid is invariant under these maps.  So atom A's grid is
    folded to one point per orbit (``_fold_transverse``), each weighted by
    its orbit size, while atom B keeps its full grid: the sum is that of the
    two full grids, up to rounding.  At d = 3 this evaluates 810 x 5832
    kernel values instead of 5832 x 5832; at d = 2, 1152 x 2304 instead of
    2304 x 2304; d = 1 has no transverse axis and is not folded.  Atom B's
    grid is the C-order tensor grid of its axes, so ``pair_expectation``
    broadcasts each block of atom A's points against those axes, and the
    sum is the same bit for bit as over B's points one by one.
    """
    if not isinstance(atom_a, DrudeAtom) or not isinstance(atom_b, DrudeAtom):
        raise AtomKindError("direct quadrature requires Drude atoms")
    if atom_a.dim != atom_b.dim:
        raise ValueError("atoms must share a dimension")
    dim = atom_a.dim
    _check_overlap(atom_a, R, overlap_tol)
    _check_overlap(atom_b, R, overlap_tol)

    xi, w = _gauss_hermite(_NODES_PER_AXIS[dim])
    w = w / math.sqrt(math.pi)
    pts_a, w_a = _fold_transverse(*_tensor_cloud(atom_a, xi, w), dim)
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


def _fold_transverse(pts, weight, dim):
    """One point per orbit of the transverse symmetries, weighted by its size.

    Keeps the points with every transverse coordinate >= 0 and, at d = 3,
    y >= z; a kept point stands for 1 + [c > 0] images per transverse axis c
    and 1 + [y != z] under the swap.  Exact when the nodes are antisymmetric
    and the weights symmetric, as Gauss-Hermite's are.
    """
    keep = np.ones(weight.size, dtype=bool)
    orbit = np.ones(weight.size)
    for c in range(1, dim):
        keep &= pts[:, c] >= 0.0
        orbit *= 1.0 + (pts[:, c] > 0.0)
    if dim == 3:
        keep &= pts[:, 1] >= pts[:, 2]
        orbit *= 1.0 + (pts[:, 1] != pts[:, 2])
    return pts[keep], (weight * orbit)[keep]
