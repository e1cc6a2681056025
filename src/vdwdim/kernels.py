"""Hot numeric kernels, vectorized with numpy: one four-site kernel, three
contractions, plus the float side of the truncated series.

``_four_site`` evaluates the exact four-site Coulomb combination

    1/R + 1/|R x - a + b| - 1/|R x - a| - 1/|R x + b|

on electron positions that broadcast against each other.  Each position is
an (x, y, z) tuple of components; the inter-atomic axis is x, and a
coordinate the physical dimension lacks is the scalar 0.0, so it costs no
pass over the kernel values.  The public kernels take (n, 3) point arrays,
zero-padded when the dimension is lower, or 1D displacements, and each is
one contraction of ``_four_site``:

* ``four_site_batch`` -- paired samples, the diagonal case, on the columns
  of the two point arrays;
* ``four_site_grid_1d`` -- the outer grid of two sets of displacements on
  the x-axis, the oracle's coupling G, with no y or z pass;
* ``pair_expectation`` -- w_a . K . w_b over row blocks of the matrix K
  between two point sets.  When the second set is a C-order tensor grid,
  it enters by its axes (``_grid_components``): |R x - a + b|^2 is summed
  from per-axis pieces, and only its last addition runs over the whole
  block.

The series side evaluates a truncated interaction series as the bilinear
form Va . C(R) . Vb between monomial values of the two atoms, on paired
samples (``series_batch``) and on the on-axis grid (``series_grid_1d``, or
``series_form_grid_1d`` for a form already built).  Only
C(R) = sum_p R^-p C_p depends on the separation, so one pass over the
samples (``_series_values``) computes Va and Vb once per row block and
serves every C(R) of a list: ``series_batch`` is the one-separation case,
and ``truncation_residual`` shares the monomial values across all its
separations.

The monomial tables are stored samples last, shape (rows, samples):
``_monomial_values`` builds each axis's powers as a (top + 1, samples)
table of cumulative products and gathers its rows by exponent, so every
factor is a contiguous row and every value is the product
1 * x^e_x * y^e_y * z^e_z formed left to right.  Each parity block of a
paired evaluation is one GEMM C_block . Vb per separation followed by a
column-wise dot with Va; the grid is Va^T . (C_block . Vb).  Two variants
were measured and left out: stacking the separations of
``truncation_residual`` into one GEMM changes bits against one
``series_batch`` call per separation, and splitting each parity block by
degree into a staircase of smaller GEMMs skips zeros of C(R) but was
slower, its many small GEMMs paying more in call overhead.

Each series has one float form (``SeriesForm``, from ``series_form``): the
flat monomial table, each atom's distinct exponent rows grouped by
transverse parity class (the parities of the y and z exponents) with each
monomial's row, and the nonzero class blocks of sum_p w_p C_p, one scatter
per weighting (R^-p gives C(R), a unit vector one C_p).  The grid and the
second-order amplitudes contract them as sum_blocks Va^T . C_block . Vb
(``SeriesForm.contract``); first order sums each power over its monomials.
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
d = 3, N = 12 (3,081 monomials, 0.31 MB of arrays; 2-core Xeon, numpy);
the 27 forms of the benchmark's series workload hold about 1.0 MB.  Any other series, such as
one read back with ``from_dict`` or one whose terms are lists a caller may
mutate in place, gets a fresh form on every call.  ``series_batch`` and
``series_grid_1d`` take the flat table (``series_arrays``) and build its
form on every call, about 0.1 ms for a small table; the oracle's truncated
mode passes the cached form to ``series_form_grid_1d`` instead.

The float side of the exact-rational ``multipole`` algebra lives here too:
the scalar reference ``exact_interaction``, the flat monomial arrays
``series_arrays`` and ``truncation_residual``.  ``multipole`` still resolves
those names.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .multipole import (
    SingularConfigurationError,
    _check_separation,
    _expansion_order,
    _expansion_terms,
    _integer,
)

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
    pts = np.zeros((len(x), 3))
    pts[:, 0] = x
    return pts


def _four_site(R, a, b):
    """1/R + 1/|Rx - a + b| - 1/|Rx - a| - 1/|Rx + b| over broadcast points.

    ``a`` and ``b`` are (x, y, z) tuples of components that broadcast
    against each other.  The x components are arrays, whose broadcast with
    the present y and z components is the result's shape; an absent y or z
    coordinate is the scalar 0.0 and costs no pass over the result.  Each
    single-atom term is computed on its own atom's shape, so for a
    (rows, 1) block against (m,) columns it costs O(rows + m).  The Coulomb
    prefactor is not applied.
    """
    ax, ay, az = a
    bx, by, bz = b
    k = _squared_norm(R - ax + bx, ay - by, az - bz)
    np.sqrt(k, out=k)
    np.divide(1.0, k, out=k)
    k += 1.0 / R
    k -= 1.0 / np.sqrt(_squared_norm(R - ax, ay, az))
    k -= 1.0 / np.sqrt(_squared_norm(R + bx, by, bz))
    return k


def _squared_norm(x, y, z):
    """x**2 + y**2 + z**2, summed in that order into a new array.

    A part that is a scalar zero is skipped: adding 0.0 to a sum of squares
    changes no bit, so the sum equals that of zero-padded coordinates.
    """
    total = x**2
    for part in (y, z):
        if np.ndim(part) or part:
            total = total + part**2
    return total


def _present(x, y, z):
    """(x, y, z) with an all-zero y or z component as the scalar 0.0."""
    return (x,) + tuple(c if c.any() else 0.0 for c in (y, z))


def _columns(pts):
    """Components of (n, 3) points for ``_four_site``: its (n,) columns."""
    return _present(pts[:, 0], pts[:, 1], pts[:, 2])


def _first_repeat(values):
    """Index of the first later entry equal to values[0], else len(values)."""
    hits = np.flatnonzero(values[1:] == values[0])
    return int(hits[0]) + 1 if hits.size else values.size


def _grid_components(pts):
    """Components of (m, 3) points for ``_four_site``, per axis when possible.

    When ``pts`` is the C-order tensor grid of its own coordinates, point
    (i, j, l) at row (i n_y + j) n_z + l, the components are its three axes,
    shaped (n_x, 1, 1), (1, n_y, 1) and (1, 1, n_z), so a kernel block
    against them has shape (rows, n_x, n_y, n_z) and lists the points in
    order.  The axis lengths are read where the z and then the y coordinate
    first repeats, and the grid is then compared with the outer product of
    its axes, entry by entry: O(m) work, and any other point set keeps its
    columns (``_columns``).
    """
    m = pts.shape[0]
    if m:
        n_z = _first_repeat(pts[:, 2])
        n_y = _first_repeat(pts[::n_z, 1])
        n_x, rest = divmod(m, n_y * n_z)
        if not rest:
            grid = pts.reshape(n_x, n_y, n_z, 3)
            axes = (grid[:, :1, :1, 0], grid[:1, :, :1, 1], grid[:1, :1, :, 2])
            if all((grid[..., c] == axes[c]).all() for c in range(3)):
                return _present(*axes)
    return _columns(pts)


def four_site_batch(R, pts_a, pts_b):
    """Four-site kernel for paired samples, the diagonal case.

    Sample i of the (n, 3) arrays ``pts_a`` and ``pts_b`` is one
    two-electron configuration.
    """
    _check_separation(R)
    return _four_site(R, _columns(pts_a), _columns(pts_b))


def four_site_grid_1d(R, xa, xb):
    """Four-site kernel on the outer grid of 1D displacements xa[p], xb[q]."""
    _check_separation(R)
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    return _four_site(R, (xa[:, None], 0.0, 0.0), (xb[None], 0.0, 0.0))


def pair_expectation(R, pts_a, w_a, pts_b, w_b):
    """Double quadrature sum  sum_ij w_a[i] w_b[j] K(R, a_i, b_j).

    Blocked over the first factor so each (rows, n_b) block of K holds about
    _BLOCK kernel values.  K is summed element by element: the four terms
    nearly cancel, and summing them separately over the grid loses the
    result.  When ``pts_b`` is a tensor grid (``_grid_components``) its
    axes broadcast against each block, so forming |R x - a + b|^2 costs one
    pass over the block instead of eight; the values are the same bit for
    bit, and the sum is too.
    """
    _check_separation(R)
    b = _grid_components(pts_b)
    lead = (slice(None),) + (None,) * b[0].ndim
    a = _columns(pts_a)
    acc = 0.0
    for blk in _row_blocks(pts_a.shape[0], pts_b.shape[0]):
        rows = tuple(c[blk][lead] if np.ndim(c) else c for c in a)
        k = _four_site(R, rows, b)
        acc += float(w_a[blk] @ k.reshape(k.shape[0], pts_b.shape[0]) @ w_b)
    return acc


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

    ``powers``, ``coeffs``, ``exp_a`` and ``exp_b`` are the flat table, one
    entry per monomial (``arrays``); ``distinct_powers`` are its powers,
    increasing, and ``power_idx`` each monomial's place among them.
    ``rows_a`` and ``rows_b`` are the distinct exponent rows of the two atoms
    in the order of ``_class_rows``, and ``idx_a``, ``idx_b`` each monomial's
    row.  ``blocks`` lists each nonzero (class of A, class of B) block of the
    coefficient matrices as the slices of the two atoms' rows and the slice
    of the block buffer it occupies; ``slot`` is each monomial's place in
    that buffer of ``buffer_size`` entries.
    """

    powers: np.ndarray
    coeffs: np.ndarray
    exp_a: np.ndarray
    exp_b: np.ndarray
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
        2 at d = 2 and 1 at d = 1.
        """
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
            powers, coeffs, exp_a, exp_b, rows_a, idx_a, rows_b, idx_b,
            tuple(blocks), offsets[blk] + at_a * widths[blk] + at_b, size,
            tuple(int(p) for p in distinct), power_idx,
        )

    @property
    def arrays(self):
        """The flat table (powers, coeffs, exp_a, exp_b) of the batch kernels."""
        return self.powers, self.coeffs, self.exp_a, self.exp_b

    def inverse_powers(self, R):
        """R^-p for each of ``distinct_powers``: the weights of C(R)."""
        return np.array([R ** -float(p) for p in self.distinct_powers])

    def block_matrices(self, weights):
        """The blocks of sum_p w_p C_p, w_p one weight per ``distinct_powers``.

        Weights R^-p (``inverse_powers``) give C(R), a unit vector one C_p.
        One scatter of each coefficient times the weight of its power, read
        from ``powers``, into the block buffer; the blocks are views of it.
        """
        buf = np.zeros(self.buffer_size)
        np.add.at(buf, self.slot, np.asarray(weights)[self.power_idx] * self.coeffs)
        return [
            buf[cut].reshape(sa.stop - sa.start, sb.stop - sb.start)
            for sa, sb, cut in self.blocks
        ]

    def contract(self, va, c_blocks, vb):
        """sum_blocks Va[sa]^T . C_block . Vb[sb]; Va, Vb have a row per row."""
        out = np.zeros((va.shape[1], vb.shape[1]))
        for (sa, sb, _), c in zip(self.blocks, c_blocks):
            out += va[sa].T @ (c @ vb[sb])
        return out


def _monomial_values(pts, rows):
    """prod_c pts[:, c] ** rows[m, c] for every row and point, shape (m, n).

    Samples run along the last axis.  For each axis with a nonzero exponent
    the powers pts[:, c]**e, e = 0..top, are one (top + 1, n) table of
    cumulative products, the products ``np.vander`` forms, and the axis's
    factor of every row is a row gather of that table by the row's
    exponent.  The first gather is the output and later axes multiply into
    it in place, in the order c = 0, 1, 2, so each value is the product
    1 * x^e_x * y^e_y * z^e_z formed left to right (1 * x = x and x * 1 = x
    exactly, so skipped factors change no bit).  An array of ones is filled
    only when no axis has an exponent.
    """
    out = None
    for c in range(rows.shape[1]):
        top = int(rows[:, c].max(initial=0))
        if top:
            table = np.empty((top + 1, pts.shape[0]))
            table[0] = 1.0
            table[1:] = pts[:, c]
            np.multiply.accumulate(table[1:], axis=0, out=table[1:])
            if out is None:
                out = table[rows[:, c]]
            else:
                out *= table[rows[:, c]]
    if out is None:
        out = np.ones((rows.shape[0], pts.shape[0]))
    return out


def _series_values(form, r_values, pts_a, pts_b):
    """Va[i] . C(R) . Vb[i] at every R in ``r_values``, shape (len(r_values), n).

    Evaluated in row blocks of samples; each block's monomial values Va and
    Vb, (rows, samples) tables, are computed once and shared by every R.
    Each C(R) is contracted parity block by parity block: one GEMM
    C_block . Vb[class rows] per (separation, block), then a column-wise dot
    with Va[class rows].  The separations are not stacked into one GEMM,
    so each row of the result has the bits of a one-separation call.
    """
    mats = [form.block_matrices(form.inverse_powers(R)) for R in r_values]
    out = np.zeros((len(mats), pts_a.shape[0]))
    width = max(form.rows_a.shape[0], form.rows_b.shape[0])
    for blk in _row_blocks(pts_a.shape[0], width):
        va = _monomial_values(pts_a[blk], form.rows_a)
        vb = _monomial_values(pts_b[blk], form.rows_b)
        for k, c_blocks in enumerate(mats):
            for (sa, sb, _), c in zip(form.blocks, c_blocks):
                out[k, blk] += np.einsum("an,an->n", c @ vb[sb], va[sa])
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

    Builds the form of the flat table and tabulates it with
    ``series_form_grid_1d``.
    """
    form = SeriesForm.from_arrays(powers, coeffs, exp_a, exp_b)
    return series_form_grid_1d(form, R, xa, xb)


def series_form_grid_1d(form, R, xa, xb):
    """The grid of ``series_grid_1d`` from a ``SeriesForm`` already built.

    The grid is Va^T . C(R) . Vb, contracted block by block
    (``SeriesForm.contract``), with the displacements placed on the x-axis
    by ``_on_axis`` and Va, Vb the (rows, displacements) monomial tables.
    """
    _check_separation(R)
    va = _monomial_values(_on_axis(xa), form.rows_a)
    vb = _monomial_values(_on_axis(xb), form.rows_b)
    return form.contract(va, form.block_matrices(form.inverse_powers(R)), vb)


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

    They are the read-only arrays of ``series_form``.
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
