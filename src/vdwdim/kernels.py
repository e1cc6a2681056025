"""Hot numeric kernels, vectorized with numpy: one four-site kernel, three
contractions, a sum over offsets, plus the float side of the truncated
series.

``_four_site`` evaluates the exact four-site Coulomb combination

    1/R + 1/|R x - a + b| - 1/|R x - a| - 1/|R x + b|

on electron positions a and b, zero-padded (..., 3) point arrays whose
leading axes broadcast; the inter-atomic axis is x.  Each public kernel is
one contraction of ``_four_site``:

* ``four_site_batch`` -- paired (n, 3) samples, the diagonal case;
* ``four_site_grid_1d`` -- the outer grid of 1D displacements on the x-axis,
  the oracle's coupling G;
* ``pair_expectation`` -- w_a . K . w_b over row blocks of the matrix K
  between two (n, 3) point sets.

``offset_expectation`` sums the remainder h(t) = 1/|R x - t| - 1/R over a
distribution of offsets t given by two tables, its distinct axial
components and its distinct squared transverse lengths, each with its
summed weight.  Since K(a, b) = h(a - b) - h(a) - h(-b), three such sums
give the double sum of ``pair_expectation`` over tensor grids, regrouped
(``oracle.direct_first_order``); h is formed so that it cannot cancel.

The series side evaluates a truncated interaction series as the bilinear
form Va . C(R) . Vb between monomial values of the two atoms, on paired
samples (``series_batch``) and on the on-axis grid (``series_grid_1d``).
Only C(R) = sum_p R^-p C_p depends on the separation, so one pass over the
samples (``_series_values``) computes Va and Vb once per row block and
serves every C(R) of a list: ``series_batch`` is the one-separation case,
and ``truncation_residual`` shares the monomial values across all its
separations.

The monomial tables are stored samples last, shape (rows, samples):
``_monomial_values`` builds each axis's powers as a (top + 1, samples)
table of repeated products and gathers its rows by exponent, so every
factor is a contiguous row and every value is the product
1 * x^e_x * y^e_y * z^e_z formed left to right.  Each parity block of a
paired evaluation is one GEMM C_block . Vb per separation followed by a
column-wise dot with Va; the grid is Va^T . (C_block . Vb).  Two variants
were measured and left out: stacking the separations of
``truncation_residual`` into one GEMM changes bits against one
``series_batch`` call per separation, and splitting each parity block by
degree into a staircase of smaller GEMMs skips zeros of C(R) but was
slower, its many small GEMMs paying more in call overhead.

Every monomial table is built one way (``_tabulate``): Va, Vb, their power
tables, the gather scratch and the GEMM outputs are views of one per-thread
workspace (``_work``), reused by every call; only results are fresh
arrays.  The reason is the first touch of fresh memory: with new tables
per block, a warm round of the benchmark's series workload (24 ops) took
about 7,600 minor page faults and 90-110 ms; with the workspace, and the
row-wise tables and unchecked gathers of ``_monomial_values``, it takes
about 120 faults and 50 ms (2-core VM, numpy, one BLAS thread).

Each series has one float form (``SeriesForm``, from ``series_form``): each
monomial's coefficient and power, each atom's distinct exponent rows grouped
by transverse parity class (the parities of the y and z exponents) with each
monomial's row, and the nonzero class blocks of sum_p w_p C_p, one scatter
per weighting (R^-p gives C(R), a unit vector one C_p).  The flat table is
gathered from it on each call (``series_arrays``).  The grid and the
product-state coupling of ``atoms._ProductStates`` (second order's sum over
states, the d = 1 oracle's truncated mode) contract them as
sum_blocks Va^T . C_block . Vb (``SeriesForm.contract``), the latter with
ladder matrix elements in place of monomial values; first order sums each
power over its monomials.
A monomial of t = r_A - r_B has even transverse powers, so its two rows
share a class: 4 diagonal blocks at d = 3, 2 at d = 2 and 1 at d = 1, where
the product is the dense one.  The blocks are read off the table, so a
table that couples two classes still evaluates.

``series_form`` caches the form of each expansion, the series that
``expand_interaction`` returns for some dimension d and order N: a
``functools.cache`` keyed on (d, N) holds at most 30 forms, d = 1-3 and
N = 3-12.  A series is that expansion when its powers are exactly 3..N and
each holds the order tuple ``multipole`` keeps for it
(``multipole._expansion_order``), so no Fraction is hashed or compared.
Every array of a form is read-only.  Building one takes about 6 ms at
d = 3, N = 12 (3,081 monomials, 0.14 MB of arrays; 2-core Xeon, numpy);
the 27 forms of the benchmark's series workload hold about 0.45 MB.  Any
other series, such as one read back with ``from_dict`` or one whose terms
are lists a caller may mutate in place, gets a fresh form on every call.
``series_batch`` and ``series_grid_1d`` take the flat table
(``series_arrays``) and build its form on every call, about 0.1 ms for a
small table.

The float side of the exact-rational ``multipole`` algebra lives here too:
the scalar reference ``exact_interaction``, the flat monomial arrays
``series_arrays`` and ``truncation_residual``.  ``multipole`` still resolves
those names.
"""

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .drude_exact import SeparationRangeError, _check_separation, _check_terms, _integer
from .multipole import SingularConfigurationError, _expansion_order, _expansion_terms

# Matrix entries per block: every (rows, columns) temporary of a blocked
# kernel holds about this many float64 values (0.5 MB), so temporaries stay
# cache-sized and memory does not grow with the batch.  The blocked series
# path holds its temporaries in a per-thread workspace (``_work``) of a few
# such buffers, reused across calls, because fresh ones cost about 7,600
# minor page faults per warm series round against about 120.
_BLOCK = 2**16

# This thread's workspace buffers by slot name (``_work``).
_WORKSPACE = threading.local()


def _work(slot, rows, cols):
    """A C-contiguous (rows, cols) view of this thread's buffer ``slot``.

    Each buffer is flat float64 of at least _BLOCK entries and grows to the
    largest request, so its contents are whatever the last user of the slot
    left there.  A view is valid until the next request for its slot.
    """
    size = rows * cols
    buf = getattr(_WORKSPACE, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, _BLOCK))
        setattr(_WORKSPACE, slot, buf)
    return buf[:size].reshape(rows, cols)


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
    pts = np.zeros((len(x), 3))
    pts[:, 0] = x
    return pts


def _four_site(R, a, b):
    """1/R + 1/|Rx - a + b| - 1/|Rx - a| - 1/|Rx + b| over broadcast points.

    ``a`` and ``b`` are zero-padded (..., 3) point arrays whose leading axes
    broadcast to the result's shape.  Each squared distance is summed
    x^2 + y^2 + z^2 in that order, so a zero a dimension lacks changes no
    bit.  Each single-atom term is computed on its own atom's shape, so for
    a (rows, 1, 3) block against (m, 3) points it costs O(rows + m).  Past
    R = 2^500, short of 2^512 where a square overflows, R and the points are
    scaled exactly by the power of two of R and the result scaled back;
    every R <= 1e150 keeps its bits.  The Coulomb prefactor is not applied.
    """
    if R > 2.0**500:
        e = -math.frexp(R)[1]
        return np.ldexp(_four_site(math.ldexp(R, e), np.ldexp(a, e), np.ldexp(b, e)), e)
    ax, ay, az = np.moveaxis(a, -1, 0)
    bx, by, bz = np.moveaxis(b, -1, 0)
    k = (R - ax + bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2
    np.sqrt(k, out=k)
    np.divide(1.0, k, out=k)
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
        acc += float(w_a[blk] @ _four_site(R, pts_a[blk, None], pts_b[None]) @ w_b)
    return acc


def offset_expectation(R, t_x, w_x, q, w_q):
    """sum_ij w_x[i] w_q[j] h(t_ij), where h(t) = 1/|R x - t| - 1/R.

    The offsets t_ij have axial component t_x[i] and squared transverse
    length q[j], so the weight of t_ij factorizes as w_x[i] w_q[j].  With
    u = t_x / R, v = (q / R) / R and rho^2 = (1 - u)^2 + v,

        R h = 1/rho - 1 = (u (2 - u) - v) / (rho^2 + rho),

    so no two numbers near 1/R are subtracted: h keeps its relative
    accuracy however small t / R is, and v does not overflow where R^2
    would.  Blocked over the rows as ``pair_expectation`` is, with fresh
    temporaries.  Each block is contracted with w_x before w_q: on the
    oracle's tables that order rounded less than the other.
    """
    _check_separation(R)
    u = t_x / R
    inner = (1.0 - u) ** 2
    lift = u * (2.0 - u)
    v = q / R / R
    acc = 0.0
    for blk in _row_blocks(u.size, v.size):
        denom = inner[blk, None] + v
        denom += np.sqrt(denom)
        num = lift[blk, None] - v
        num /= denom
        acc += float((w_x[blk] @ num) @ w_q)
    return acc / R


def _class_rows(exps):
    """Distinct rows of an exponent array, each row's index and class starts.

    One integer per row, the class (e_y mod 2) + 2 (e_z mod 2) and then the
    code sum_c e_c base^(k-1-c), sorts the rows by class and lexicographically
    within a class: class c occupies rows start[c]:start[c + 1].
    """
    base = int(exps.max(initial=0)) + 1
    k = exps.shape[1]
    cls = exps[:, 1] % 2 + 2 * (exps[:, 2] % 2)
    key = cls * base**k + exps @ base ** np.arange(k - 1, -1, -1)
    _, first, idx = np.unique(key, return_index=True, return_inverse=True)
    return exps[first], idx, np.searchsorted(cls[first], np.arange(5))


@dataclass(frozen=True, eq=False)
class SeriesForm:
    """The float form of a truncated series, built from its monomial table.

    ``coeffs`` holds one entry per monomial of the flat table, whose powers
    and exponents ``arrays`` gathers per call; ``distinct_powers`` are its
    powers, increasing, and ``power_idx`` each monomial's place among them.
    ``rows_a`` and ``rows_b`` are the distinct exponent rows of the two atoms
    in the order of ``_class_rows``, and ``idx_a``, ``idx_b`` each monomial's
    row.  ``blocks`` lists each nonzero (class of A, class of B) block of the
    coefficient matrices as the slices of the two atoms' rows and the slice
    of the block buffer it occupies; ``slot`` is each monomial's place in
    that buffer of ``buffer_size`` entries.
    """

    coeffs: np.ndarray
    rows_a: np.ndarray
    idx_a: np.ndarray
    rows_b: np.ndarray
    idx_b: np.ndarray
    blocks: tuple
    slot: np.ndarray
    buffer_size: int
    distinct_powers: tuple
    power_idx: np.ndarray

    @classmethod
    def from_arrays(cls, powers, coeffs, exp_a, exp_b):
        """Form of the flat table; the blocks are read off its monomials.

        A monomial's A and B rows fix its block, so a table whose monomials
        couple two classes gets that off-diagonal block.  For the expansion
        every monomial has the same parity on both atoms (t = r_A - r_B has
        even transverse powers), which gives the diagonal blocks: 4 at d = 3,
        2 at d = 2 and 1 at d = 1.  A negative exponent is a ValueError.
        """
        if min(exp_a.min(initial=0), exp_b.min(initial=0)) < 0:
            raise ValueError("series exponents must be non-negative")
        rows_a, idx_a, start_a = _class_rows(exp_a)
        rows_b, idx_b, start_b = _class_rows(exp_b)
        # each monomial's class on either side and its place within the class
        mc_a = np.searchsorted(start_a, idx_a, side="right") - 1
        mc_b = np.searchsorted(start_b, idx_b, side="right") - 1
        at_a, at_b = idx_a - start_a[mc_a], idx_b - start_b[mc_b]
        pairs, blk = np.unique(4 * mc_a + mc_b, return_inverse=True)
        blocks, offsets, widths, size = [], [], [], 0
        for pair in pairs.tolist():
            ca, cb = divmod(pair, 4)
            sa = slice(int(start_a[ca]), int(start_a[ca + 1]))
            sb = slice(int(start_b[cb]), int(start_b[cb + 1]))
            n = (sa.stop - sa.start) * (sb.stop - sb.start)
            blocks.append((sa, sb, slice(size, size + n)))
            offsets.append(size)
            widths.append(sb.stop - sb.start)
            size += n
        offsets, widths = np.array([offsets, widths], dtype=np.int64)
        distinct, power_idx = np.unique(powers, return_inverse=True)
        return cls(
            coeffs, rows_a, idx_a, rows_b, idx_b,
            tuple(blocks), offsets[blk] + at_a * widths[blk] + at_b, size,
            tuple(int(p) for p in distinct), power_idx,
        )

    @property
    def arrays(self):
        """The flat table (powers, coeffs, exp_a, exp_b), gathered per call."""
        powers = np.array(self.distinct_powers, dtype=np.int64)[self.power_idx]
        return powers, self.coeffs, self.rows_a[self.idx_a], self.rows_b[self.idx_b]

    def inverse_powers(self, R):
        """R^-p for each of ``distinct_powers``: the weights of C(R).

        An R^-p past float64 would make its terms infinite, so it raises
        ``SeparationRangeError``, for a numpy R too; one that underflows is 0.0.
        """
        R = float(R)  # a Python float's power raises where numpy's warns
        try:
            return np.array([R ** -float(p) for p in self.distinct_powers])
        except OverflowError:
            raise SeparationRangeError(
                f"series terms are not finite at R = {R:g}"
            ) from None

    def block_matrices(self, weights):
        """The blocks of sum_p w_p C_p, w_p one weight per ``distinct_powers``.

        Weights R^-p (``inverse_powers``) give C(R), a unit vector one C_p.
        One scatter of each coefficient times the weight of its power
        (``power_idx``) into the block buffer; the blocks are views of it.
        """
        buf = np.zeros(self.buffer_size)
        np.add.at(buf, self.slot, np.asarray(weights)[self.power_idx] * self.coeffs)
        return [
            buf[cut].reshape(sa.stop - sa.start, sb.stop - sb.start)
            for sa, sb, cut in self.blocks
        ]

    def contract(self, va, c_blocks, vb):
        """sum_blocks Va[sa]^T . C_block . Vb[sb]; Va, Vb have a row per row.

        The on-axis grid's values, or ``atoms._ProductStates``' coupling
        between product states, one per weighting.  The sum
        starts from the first block's product, so a one-block form (d = 1)
        returns that product as it is; a form with no blocks gives zeros.
        """
        terms = (
            va[sa].T @ (c @ vb[sb]) for (sa, sb, _), c in zip(self.blocks, c_blocks)
        )
        out = next(terms, None)
        if out is None:
            return np.zeros((va.shape[1], vb.shape[1]))
        for term in terms:
            out += term
        return out


def _power_table(x, table):
    """x**e for e = 0..top in the rows of the (top + 1, n) ``table``, top >= 1.

    Row by row, table[e] = table[e - 1] * x: the products of
    ``np.multiply.accumulate`` down the rows, in the same order, which on a
    wide table runs column by column and is about 5x slower.
    """
    table[0] = 1.0
    table[1] = x
    for e in range(2, table.shape[0]):
        np.multiply(table[e - 1], table[1], out=table[e])
    return table


def _monomial_values(pts, rows, out, scratch):
    """prod_c pts[:, c] ** rows[m, c] for every row and point, into ``out``.

    ``out`` and ``scratch`` are (m, n) buffers, samples along the last axis;
    callers pass workspace views (``_work``).  For each axis with a nonzero
    exponent the powers pts[:, c]**e, e = 0..top, are one (top + 1, n)
    workspace table of repeated products (``_power_table``), the products
    ``np.vander`` forms, and the axis's factor of every row is a row gather
    of that table by the row's exponent.  The first gather fills ``out`` and
    later axes gather into ``scratch`` and multiply into it in place, in the
    order c = 0, 1, 2, so each value is the product 1 * x^e_x * y^e_y *
    z^e_z formed left to right (1 * x = x and x * 1 = x exactly, so skipped
    factors change no bit).  ``out`` is filled with ones only when no axis
    has an exponent.  Every exponent is in [0, top], so the gathers'
    ``mode="clip"`` never clips; with the default ``"raise"``, ``np.take``
    into ``out`` buffers the index check and is about 3x slower.
    """
    filled = False
    for c in range(rows.shape[1]):
        top = int(rows[:, c].max(initial=0))
        if top:
            table = _power_table(pts[:, c], _work("table", top + 1, pts.shape[0]))
            np.take(table, rows[:, c], axis=0, out=scratch if filled else out,
                    mode="clip")
            if filled:
                out *= scratch
            filled = True
    if not filled:
        out.fill(1.0)
    return out


def _tabulate(pts, rows, slot):
    """``_monomial_values`` into workspace ``slot``, its scratch slot "gather"."""
    shape = (rows.shape[0], pts.shape[0])
    return _monomial_values(pts, rows, _work(slot, *shape), _work("gather", *shape))


def _series_values(form, r_values, pts_a, pts_b):
    """Va[i] . C(R) . Vb[i] at every R in ``r_values``, shape (len(r_values), n).

    Evaluated in row blocks of samples; each block's monomial values Va and
    Vb, (rows, samples) tables, are computed once and shared by every R.
    Each C(R) is contracted parity block by parity block: one GEMM
    C_block . Vb[class rows] per (separation, block), then a column-wise dot
    with Va[class rows].  The separations are not stacked into one GEMM,
    so each row of the result has the bits of a one-separation call.  Only
    the result is a fresh array; the tables and GEMM outputs are workspace.
    """
    mats = [form.block_matrices(form.inverse_powers(R)) for R in r_values]
    out = np.zeros((len(mats), pts_a.shape[0]))
    width = max(form.rows_a.shape[0], form.rows_b.shape[0])
    for blk in _row_blocks(pts_a.shape[0], width):
        va = _tabulate(pts_a[blk], form.rows_a, "va")
        vb = _tabulate(pts_b[blk], form.rows_b, "vb")
        n = va.shape[1]
        for k, c_blocks in enumerate(mats):
            for (sa, sb, _), c in zip(form.blocks, c_blocks):
                w = np.matmul(c, vb[sb], out=_work("gemm", c.shape[0], n))
                out[k, blk] += np.einsum("an,an->n", w, va[sa])
    return out


def series_batch(powers, coeffs, exp_a, exp_b, R, pts_a, pts_b):
    """Evaluate a truncated interaction series on a batch of configurations.

    ``powers``/``coeffs`` are the flat monomial table (one row per monomial),
    ``exp_a``/``exp_b`` the (m, 3) exponent arrays.  Returns shape (n,).
    Sample i is the bilinear form Va[i] . C(R) . Vb[i], evaluated in row
    blocks and parity blocks: the one-separation case of the pass that
    ``truncation_residual`` makes with every separation at once.
    """
    _check_separation(R)
    form = SeriesForm.from_arrays(powers, coeffs, exp_a, exp_b)
    return _series_values(form, (R,), pts_a, pts_b)[0]


def series_grid_1d(powers, coeffs, exp_a, exp_b, R, xa, xb):
    """Truncated series tabulated on the outer grid of 1D displacements.

    Builds the form of the flat table; the grid is Va^T . C(R) . Vb,
    contracted block by block (``SeriesForm.contract``), with Va, Vb the
    unblocked workspace tables (``_tabulate``) of the displacements on the
    x-axis.  Only tests and the benchmark's tracer name it (to be retired).
    """
    _check_separation(R)
    form = SeriesForm.from_arrays(powers, coeffs, exp_a, exp_b)
    va = _tabulate(_on_axis(xa), form.rows_a, "va")
    vb = _tabulate(_on_axis(xb), form.rows_b, "vb")
    return form.contract(va, form.block_matrices(form.inverse_powers(R)), vb)


def exact_interaction(R, r_a, r_b):
    """Four-site Coulomb coupling in units of k, evaluated without expansion.

    ``r_a`` and ``r_b`` are length-d sequences (d <= 3), zero-padded into 3D
    because the Coulomb field always lives in three dimensions.  Raises
    ``SingularConfigurationError`` when any denominator drops below 1e-12 R;
    the model assumes non-overlapping atoms anyway.  Once the largest of R
    and the point coordinates passes 2^500, R and the points are scaled by
    a power of two that brings it just below 2^500, and the result scaled
    back: no square overflows, and lengths down to 2^-1000 of the largest
    keep their squares out of the subnormals.  A power-of-two scaling is
    exact, and every input up to 2^500 keeps its bits.  (``_four_site``
    scales by R alone: a point far beyond R is no series traffic.)
    """
    _check_separation(R)
    eps = 1e-12 * R
    a, b = _pad3(r_a), _pad3(r_b)
    largest = max(R, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    e = 500 - math.frexp(largest)[1] if largest > 2.0**500 else 0
    x = np.array([math.ldexp(R, e), 0.0, 0.0])
    a = np.ldexp(a, e)
    b = np.ldexp(b, e)
    d_ab = np.linalg.norm(x - a + b)
    d_a = np.linalg.norm(x - a)
    d_b = np.linalg.norm(x + b)
    if min(x[0], d_ab, d_a, d_b) < math.ldexp(eps, e):
        raise SingularConfigurationError(
            f"kernel denominator below epsilon {eps:g}"
        )
    return np.ldexp(1.0 / x[0] + 1.0 / d_ab - 1.0 / d_a - 1.0 / d_b, e)


def series_form(series):
    """The float form (``SeriesForm``) of a series.

    An expansion, recognised by ``multipole._expansion_order``, takes its
    form from the cache of at most 30; any other series gets a fresh one.
    """
    max_power = _expansion_order(series)
    if max_power is None:
        return _build_form(series.dim, sorted(series.terms.items()))
    return _expansion_form(int(series.dim), max_power)


@functools.cache
def _expansion_form(dim, max_power):
    return _build_form(dim, _expansion_terms(dim, max_power).items())


def _build_form(dim, items):
    """Convert the Fractions once; every array of the form is read-only."""
    monos = [(p, m) for p, ms in items for m in ms]
    powers = np.array([p for p, _ in monos], dtype=np.int64)
    coeffs = np.array([float(m.coeff) for _, m in monos])
    exp_a = np.zeros((len(monos), 3), dtype=np.int64)
    exp_b = np.zeros((len(monos), 3), dtype=np.int64)
    exp_a[:, :dim] = np.reshape([m.exp_a for _, m in monos], (-1, dim))
    exp_b[:, :dim] = np.reshape([m.exp_b for _, m in monos], (-1, dim))
    form = SeriesForm.from_arrays(powers, coeffs, exp_a, exp_b)
    for value in vars(form).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return form


def series_arrays(series):
    """Flat float/int arrays of the series monomials for the batch kernels.

    ``SeriesForm.arrays`` of ``series_form``: int64 powers and exponents
    gathered on each call, and the form's read-only float64 coefficients.
    """
    return series_form(series).arrays


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
    sample_count = _integer("sample_count", sample_count, 0)
    _check_terms({}, {"radius": radius})
    r_values = np.asarray(r_values, dtype=float)
    for R in r_values:
        _check_separation(R)
    rng = np.random.default_rng(seed)
    pts_a = _ball_samples(rng, series.dim, sample_count, radius)
    pts_b = _ball_samples(rng, series.dim, sample_count, radius)
    approx = _series_values(series_form(series), r_values, pts_a, pts_b)

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
