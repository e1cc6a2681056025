"""Brute-force ground-state computations that validate the perturbative results.

Two independent instruments, both built on the exact four-site kernel rather
than its expansion (the diagonalization's truncated mode excepted):

* ``oscillator_basis_diag`` assembles the full two-atom Hamiltonian of a 1D
  Drude pair in the product Hermite basis and diagonalizes it.  Keeping the
  full kernel exposes the repulsive R^-5 physics directly; only this full
  mode uses quadrature, tensorized Gauss-Hermite, for the coupling matrix
  elements.  Truncating the coupling at the dipole term reproduces the
  normal-mode answer.  The truncated coupling is a polynomial, so its
  elements <ij|H_I|kl> are exact ladder algebra.  The states |ij>, their
  order, their levels and this coupling are those of
  ``atoms._ProductStates``, as for the sum over states in ``perturbation``.
  Quadrature on 2 cutoff + 8 nodes gives the same matrix up to rounding: it
  integrates every degree up to 4 cutoff + 15 exactly, and h_i h_k x^e (h_i
  the orthonormal Hermite polynomials) has degree at most 2 cutoff + 10,
  since an order-N expansion has exponents up to N - 2 <= 10.

  Two things keep that eigensolve small and accurate.  The diagonal holds
  hbar omega i + hbar omega j, the level of |ij> less the uncoupled ground
  energy hbar omega, so the lowest eigenvalue is the correction itself
  rather than a difference of two numbers near hbar omega.  And H is split
  into symmetry sectors: each of ``_ProductStates.classes``, split by the
  exchange P into P = +1 and -1; no character is this module's own.  At d = 1
  they are P|ij> = (-1)^(i+j) |ji> and, when every monomial of the
  truncated series has even degree e_A + e_B, as the dipole term's
  (max_power = 3) has, the total parity (-1)^(i+j): four sectors, of 121,
  100, 110 and 110 states at cutoff 20, against 231 and 210 with exchange
  alone.  A ladder element <i|x^e|k> vanishes unless i + k + e is even, so
  the dipole coupling between parity classes is exactly zero.  The full
  kernel (its -1/|R - x_A| term) and any series with max_power >= 4 are not
  even, so they keep exchange alone.

  The coupling is built in its contraction's own layout,
  <ij|H|kl> at [(i, k), (j, l)]: q G q^T in full mode and F_A^T C F_B
  (``SeriesForm.contract``) in truncated mode.  It is never reordered:
  each block is gathered from its tiles with the exact projection of H
  onto its sector (``_sectors``), so the rounding-level asymmetry of the
  assembled coupling moves eigenvalues only at second order.  The pairs of
  a class run by reach, so the blocks of a smaller cutoff are leading
  principal blocks of the larger ones.

  The lowest eigenvalue is the lowest over the sectors'.  Only the sector
  of the uncoupled ground state |00> (P = +1, and even when parity holds)
  is diagonalized outright.  One Cholesky factorization of each other
  sector's block, shifted to just above the highest value in play, proves
  that the sector lies higher at every cutoff, for about a quarter of the
  flops of that block's eigensolve.  Where a factorization fails, that
  sector's blocks are diagonalized too, so no sector is assumed to hold
  the ground state.

* ``direct_first_order`` integrates the exact kernel against the product
  ground density on a 2d-dimensional tensor Gauss-Hermite grid.  At d = 1
  the kernel is summed over every pair of nodes.  At d = 2 and 3 the same
  sum is regrouped by the offset t = a - b between the electrons: with
  h(t) = 1/|R x - t| - 1/R the kernel is exactly
  K(a, b) = h(a - b) - h(a) - h(-b), and h depends on the transverse
  components only through q = t_y^2 + t_z^2.  So three sums of h over
  tables of distinct axial offsets and distinct q values, with summed
  weights, give the tensor sum: 1,153 x 577 values of h for the Bohr pair
  at d = 2 and 163 x 3,403 at d = 3, where the full grids have 2,304^2
  and 5,832^2 kernel values.  The nodes, weights and kernel are unchanged;
  only the order of summation is, and its rounding error is smaller (see
  ``direct_first_order``).

Validity needs well-separated atoms; each entry point checks the electron
density at the midpoint between the nuclei against an overlap threshold,
which must be finite and positive.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .atoms import AtomKindError, DrudeAtom, _ProductStates
from .drude_exact import _check_separation, _check_terms, _integer
from .multipole import _max_power, expand_interaction


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
    _check_terms({"overlap_tol": overlap_tol})
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


def _coupling_matrix(atom, R, cutoff, nodes):
    """Full-kernel H_I (k = 1) by quadrature on ``nodes`` nodes, (n^2, n^2).

    In the contraction's own layout: <ij|H_I|kl> at [(i, k), (j, l)], that
    is (i n + k, j n + l) for n = cutoff + 1, as ``_sectors`` reads it.
    """
    xi, w = _gauss_hermite(nodes)
    x = _oscillator_length(atom) * xi
    if _on_singularity(x, R):
        raise ValueError(
            "quadrature node hit a kernel singularity; change the node count"
        )
    grid = kernels.four_site_grid_1d(R, x, x)
    n = cutoff + 1
    h = _hermite_columns(n, xi)
    # q[(i, k), p] = h_i(x_p) h_k(x_p) w_p, so <ij|H_I|kl> = (q G q^T)[(i,k),(j,l)]
    q = (h[:, None, :] * (h * w)[None, :, :]).reshape(n * n, nodes)
    return q @ grid @ q.T


def _ladder_coupling(pairs, R, max_power):
    """H_I (k = 1) of the series truncated at ``max_power``, and its parity.

    Between all the states of ``pairs`` (``atoms._ProductStates``), in any
    d, in ``_coupling_matrix``'s layout; and True when every monomial has
    even degree e_A + e_B, so H_I commutes with total parity (max_power 3).
    """
    form = kernels.series_form(expand_interaction(pairs.states.shape[1], max_power))
    degree = form.rows_a.sum(1)[form.idx_a] + form.rows_b.sum(1)[form.idx_b]
    coupling = pairs.coupling(form, [form.inverse_powers(R)], pairs.states)[0]
    return coupling, not np.any(degree % 2)


def _hamiltonian(atom, R, mode, max_power, cutoff):
    """H_A + H_B + H_I - hbar omega on one ``_ProductStates``, and their classes.

    Returns H in the coupling's layout, <ij|H|kl> at [(i, k), (j, l)]
    (``_coupling_matrix``), and the states' symmetry ``classes``, with total
    parity when H_I commutes with it.  H_I is the exact kernel's by
    quadrature on ``_node_count`` nodes in full mode, which is never even,
    and the truncated series' by ladder algebra otherwise
    (``_ladder_coupling``).  The states' ``levels`` above the uncoupled
    ground state are added at [(i, i), (j, j)], so the lowest eigenvalue is
    the correction.
    """
    pairs = _ProductStates(atom, atom, cutoff)
    if mode == "full":
        nodes = _node_count(atom, R, cutoff)
        ham, even = _coupling_matrix(atom, R, cutoff, nodes), False
    else:
        ham, even = _ladder_coupling(pairs, R, max_power)
    n = len(pairs.states)
    i, j = np.divmod(np.arange(n * n), n)
    ham.flat[(n + 1) * (n * n * i + j)] += pairs.levels
    return ham, pairs.classes(even)


def _sectors(ham, classes):
    """``ham`` projected onto its symmetry sectors, as (block, reach) pairs.

    ``ham`` is in the coupling's layout (``_hamiltonian``) and is read in
    place: the row of |ij> is the tile [i, :, j, :] of its (n, n, n, n)
    view.  Each of its states' ``classes`` (``_ProductStates``) gives a
    P = +1 and a P = -1 sector, in that order; entries between two classes
    are never read.  Row a of the P = p block is v_a (|ij> + s_a |ji>) for
    the class's pair (i, j), s_a = p times its exchange sign, v_a = 1/sqrt(2)
    for i != j and 1/2 for i = j (|ii> itself, always P = +1).  Entry (a, b),
    b = (k, l), is

        v_a v_b [H(ij,kl) + s_b H(ij,lk) + s_a H(ji,kl) + s_a s_b H(ji,lk)],

    summed over rows first and then over columns, with the pairs' reaches.
    """
    n = math.isqrt(ham.shape[0])
    tiles = ham.reshape(n, n, n, n)
    sectors = []
    for _, i, j, sign, reach in classes:
        v = np.where(i == j, 0.5, math.sqrt(0.5))
        w = sign * v
        pair, swap = i * n + j, j * n + i
        plus = tiles[i, :, j, :].reshape(i.size, -1) * v[:, None]
        swapped = tiles[j, :, i, :].reshape(i.size, -1) * w[:, None]
        off = i != j  # the P = -1 states
        minus = plus[off] - swapped[off]
        plus += swapped
        del swapped  # frees its memory before the column gathers
        for rows, p, keep in ((plus, 1.0, slice(None)), (minus, -1.0, off)):
            block = rows[:, pair[keep]] * v[keep] + rows[:, swap[keep]] * (p * w[keep])
            sectors.append((block, reach[keep]))
        del plus, minus, rows  # frees the row gathers before the next class
    return sectors


def _lowest(block, reach, cutoff):
    """Lowest eigenvalue of the leading block of states with reach <= cutoff.

    An empty leading block has none, and reads inf.
    """
    size = int(np.searchsorted(reach, cutoff, side="right"))
    return float(np.linalg.eigvalsh(block[:size, :size])[0]) if size else math.inf


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


def _corrections(sectors, cutoffs):
    """Lowest eigenvalue over the symmetry sectors for each cutoff.

    Cutoff c is the basis i, j <= c, and ``sectors`` are the (block, reach)
    pairs of ``_sectors`` at the largest cutoff or a larger one, the sector
    of the uncoupled ground state first.  ``eigvalsh`` solves that sector's
    leading block of every cutoff.  One Cholesky factorization of each
    other sector's whole block then proves that it has no eigenvalue below
    mu, the highest of the values so far (``_sector_above``).  By Cauchy
    interlacing none of its leading blocks has one either, so it lowers no
    cutoff's value.  Only a sector whose factorization fails has its
    leading blocks solved as well, and each cutoff takes the lower value:
    no sector is assumed to hold the ground state.
    """
    (block, reach), *others = sectors
    lows = [_lowest(block, reach, c) for c in cutoffs]
    for block, reach in others:
        if not _sector_above(block, max(lows)):
            lows = [
                min(low, _lowest(block, reach, c)) for low, c in zip(lows, cutoffs)
            ]
    return tuple(lows)


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


def _on_singularity(x, R):
    """True if a node, or the difference of two, lies within 1e-8 R of R.

    There the full kernel's 1/|R - x_A| or 1/|R - x_A + x_B| is singular,
    and ``_coupling_matrix`` refuses the grid.
    """
    gap = min(np.abs(R - x[:, None] + x[None, :]).min(), np.abs(R - x).min())
    return gap < 1e-8 * R


def _node_count(atom, R, cutoff):
    """Full-mode nodes for a basis cutoff: 2 cutoff + 8, kept off the nucleus.

    Only full mode has nodes; the truncated series' elements are exact
    ladder algebra (``_ladder_coupling``).  The count steps up from
    2 cutoff + 8 until the other nucleus keeps clear of the nodes
    (``_nodes_off_nucleus``) and no two nodes lie R apart
    (``_on_singularity``).  The second condition fails only within 1e-8 R
    of isolated separations, such as cutoff 16 at R/a = 16.715294931291087,
    whose 40 nodes hold a pair 9.4e-9 R short of R.
    """
    ell = _oscillator_length(atom)
    nodes = _nodes_off_nucleus(R / ell, 2 * cutoff + 8)
    while _on_singularity(ell * _gauss_hermite(nodes)[0], R):
        nodes = _nodes_off_nucleus(R / ell, nodes + 1)
    return nodes


def _check_pair(atom, R, mode, max_power, cutoffs, overlap_tol):
    """The cutoffs as plain ints, once pair, mode, max_power and cutoffs check out.

    ``max_power`` is checked in both modes, before the overlap gate, though
    only truncated mode reads it.
    """
    if not isinstance(atom, DrudeAtom):
        raise AtomKindError("oracle diagonalization requires a Drude atom")
    if atom.dim != 1:
        raise ValueError("oracle diagonalization is restricted to dim = 1")
    if mode not in ("full", "truncated"):
        raise ValueError("mode must be 'full' or 'truncated'")
    _max_power(max_power)
    cutoffs = tuple(_integer("cutoff", cutoff, 3) for cutoff in cutoffs)
    _check_overlap(atom, R, overlap_tol)
    return cutoffs


def _diagonalize(atom, R, mode, max_power, cutoffs, overlap_tol, below=None):
    """The checked cutoffs, sorted, and the correction of every rung.

    The rungs are the cutoffs and, when ``below`` is given, the largest
    cutoff less ``below``.  H is assembled once, at the largest cutoff, and
    split into its symmetry sectors (``_sectors``); each rung reads their
    leading principal blocks (``_corrections``).
    """
    cutoffs = tuple(
        sorted(_check_pair(atom, R, mode, max_power, cutoffs, overlap_tol))
    )
    top = cutoffs[-1]
    sectors = _sectors(*_hamiltonian(atom, R, mode, max_power, top))
    rungs = cutoffs if below is None else cutoffs + (top - below,)
    return cutoffs, _corrections(sectors, rungs)


_CONV_TOL = 1e-6


def oscillator_basis_diag(
    atom, R, mode="full", max_power=3, cutoff=10, overlap_tol=1e-8
):
    """Lowest eigenvalue of H_A + H_B + H_I for a 1D Drude pair, k = hbar = 1.

    ``mode`` selects the exact kernel ("full") or the series truncated at
    ``max_power`` ("truncated").  The Hamiltonian carries hbar omega (i + j)
    on its diagonal, so its lowest eigenvalue is ``correction`` and
    ``ground_energy`` is correction + hbar omega.  It is split into its
    symmetry sectors and the lowest of their lowest eigenvalues is taken
    (see the module docstring): by exchange alone in full mode, P = +1 with
    m(m+1)/2 states and P = -1 with m(m-1)/2 (m = cutoff + 1), and by total
    parity too for the dipole series, whose four sectors hold 121, 100, 110
    and 110 states at cutoff 20.  The convergence error is the variational
    drop in the correction from the sub-basis with cutoff - 2, whose blocks
    are leading principal blocks of the same sectors; exceeding 1e-6
    relative to the ground energy raises ``ConvergenceError``.  ``eigvalsh``
    solves only the ground state's sector, P = +1 (and even), in both bases:
    91 and 66 states at cutoff 12 in full mode, 121 and 100 at cutoff 20
    for the dipole series.  One Cholesky factorization of each other sector
    at ``cutoff`` shows that sector lies above both; only a sector whose
    factorization fails is diagonalized too.  ``mode`` must be
    "full" or "truncated", ``max_power`` an integer from 3 to
    ``MAX_EXPANSION_POWER`` in either mode, ``cutoff`` an integer of at
    least 3 (a numpy integer is taken as an int, a bool is rejected) and
    ``overlap_tol`` finite and positive; all are checked before the overlap.

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
    (cutoff,), (correction, coarse) = _diagonalize(
        atom, R, mode, max_power, (cutoff,), overlap_tol, below=2
    )
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
    """Ground energy versus basis cutoff from one Hamiltonian, k = hbar = 1.

    H is assembled once, at the largest cutoff, as ``oscillator_basis_diag``
    would assemble it for that cutoff (in full mode on 2 max + 8 nodes,
    stepped up until no node sits next to the other nucleus), with
    hbar omega (i + j) on its diagonal, and split into its symmetry
    sectors: two exchange sectors, or four with total parity for the dipole
    series (see the module docstring).  Each rung is the set of leading
    principal blocks of its cutoff, so the ladder shares one coupling
    operator and the energies are strictly variational in the basis.  The
    corrections are the lowest eigenvalues themselves and the ground energies
    are correction + hbar omega.  ``eigvalsh`` solves each rung's block of
    the ground state's sector, P = +1 (and even); one Cholesky factorization
    of each other sector at the largest cutoff shows that sector lies above
    every rung, and only a sector whose factorization fails is diagonalized
    too.  Every rung must be an integer of at least 3, and ``mode`` and
    ``max_power`` are checked as ``oscillator_basis_diag`` checks them.
    """
    cutoffs = tuple(cutoffs)
    if not cutoffs:
        raise ValueError("cutoffs must name at least one basis cutoff")
    cutoffs, corrections = _diagonalize(
        atom, R, mode, max_power, cutoffs, overlap_tol
    )
    energies = tuple(corr + atom.hbar_omega for corr in corrections)
    return ConvergenceReport(cutoffs, corrections, energies)


_NODES_PER_AXIS = {1: 80, 2: 48, 3: 18}


def direct_first_order(atom_a, atom_b, R, overlap_tol=1e-8):
    """<0|H_I|0> (k = 1) by tensor Gauss-Hermite quadrature of the exact kernel.

    Works for Drude pairs in d = 1, 2 (and d = 3 as a modest-order zero
    check), on 80, 48 or 18 nodes per axis.  Node placement follows the
    Gaussian ground-state weight.

    At d = 1 ``pair_expectation`` sums the kernel over the 80 x 80 pairs of
    nodes, element by element: with no transverse axis there is nothing to
    group, and the grouped sum would only be slower.  At d = 2 and 3 the sum
    is regrouped by the offset t = a - b.  With h(t) = 1/|R x - t| - 1/R the
    four-site kernel is exactly K(a, b) = h(a - b) - h(a) - h(-b), so

        sum_ab w_a w_b K = sum_t W(t) h(t) - W sum_a w_a h(a) - W sum_b w_b h(-b),

    W(t) the summed weight of the pairs with a - b = t and W = sum_a w_a =
    sum_b w_b = (sum_i w_i)^d.  h depends on t_y and t_z only through
    q = t_y^2 + t_z^2, and each sum runs over the distinct axial and
    transverse values of its offsets (``_offset_tables``) in
    ``kernels.offset_expectation``, whose form of h cannot cancel.  The
    nodes, the weights and the exact kernel are those of the full tensor
    sum; only the summation is regrouped.  For the Bohr pair this evaluates
    1,153 x 577 values of h at d = 2 and 163 x 3,403 at d = 3, against
    2,304 x 2,304 and 5,832 x 5,832 kernel values on the full grids.
    Unequal atoms share no axial offsets (d = 3: 324 x 13,195).

    Rounding, against a 40-digit decimal sum on the same float64 nodes and
    weights (omega 0.5 / 0.5 and 0.5 / 0.75, R/a 8, 12 and 20): at most
    2.9e-18 at d = 2 on 7 nodes and d = 3 on 5, where the element-wise sum
    reaches 9.9e-18; over 6-8 nodes at d = 2, 5-6 at d = 3 and R/a from 8
    to 20, at most 4.4e-18 against 2.3e-17.  At d = 2, R/a = 1000 the value
    is 2.2e-8 relative off 9/4 R^-5 + 225/8 R^-7, and the element-wise sum
    1.7e-5, all of it rounding.
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
    x_a = _oscillator_length(atom_a) * xi
    x_b = _oscillator_length(atom_b) * xi
    if dim == 1:
        return kernels.pair_expectation(
            R, kernels._on_axis(x_a), w, kernels._on_axis(x_b), w
        )
    nucleus, unit = np.zeros(1), np.ones(1)
    total = float(w.sum()) ** dim
    pair = kernels.offset_expectation(R, *_offset_tables(x_a, w, x_b, w, dim))
    only_a = kernels.offset_expectation(
        R, *_offset_tables(x_a, w, nucleus, unit, dim)
    )
    only_b = kernels.offset_expectation(
        R, *_offset_tables(nucleus, unit, x_b, w, dim)
    )
    return pair - total * (only_a + only_b)


def _distinct(values, weights):
    """The distinct ``values``, sorted, and the summed ``weights`` of each."""
    found, where = np.unique(values.ravel(), return_inverse=True)
    return found, np.bincount(where, weights=weights.ravel())


def _offset_tables(x_a, w_a, x_b, w_b, dim):
    """Axial and transverse tables of the offsets t = a - b, for dim 2 or 3.

    Each atom's grid is the tensor grid of one axis, nodes ``x`` with
    weights ``w``, on every coordinate.  Returns the distinct values of
    x_a[i] - x_b[j] with the summed weight w_a[i] w_b[j] of each, and the
    distinct values of q = t_y^2 (+ t_z^2 at d = 3) with theirs: the
    distinct squared differences and, at d = 3, the distinct sums of two of
    them.  Values merge only when equal as floats.  A nucleus, the single
    node 0 of weight 1, gives the tables of one atom's own positions.
    """
    weight = np.outer(w_a, w_b)
    diff = np.subtract.outer(x_a, x_b)
    t_x, w_x = _distinct(diff, weight)
    q, w_q = _distinct(diff**2, weight)
    if dim == 3:
        q, w_q = _distinct(np.add.outer(q, q), np.outer(w_q, w_q))
    return t_x, w_x, q, w_q
