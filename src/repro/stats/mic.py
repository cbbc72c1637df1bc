"""Maximal Information Coefficient (MIC), implemented from scratch.

InvarNet-X builds its likely invariants from pairwise MIC scores between
performance metrics (paper §3.3), citing Reshef et al., *Detecting novel
associations in large data sets*, Science 334 (2011).  ``minepy`` is not
available in this environment, so this module implements the MINE
approximation algorithm directly:

1. For every grid resolution ``(x, y)`` with ``x * y <= B(n) = n ** alpha``
   the algorithm computes (approximately) the maximal mutual information
   achievable by an ``x``-by-``y`` grid over the data.
2. The y-axis is equipartitioned into ``y`` rows; the x-axis partition is
   optimised by dynamic programming over *clumps* (maximal runs of x-ordered
   points falling into a single row).
3. The characteristic matrix entry is the maximal MI normalised by
   ``log(min(x, y))`` — where ``x`` and ``y`` are the *realised* grid
   dimensions: ties can collapse the requested row count into fewer bins,
   and the normaliser must track what the grid actually is, not what was
   asked for.  MIC is the largest entry.

Both axis orientations are evaluated and the per-cell maximum taken, as in
the reference implementation.

One batched kernel scores every pair of a window (:func:`_mic_pairs`).
Everything that depends on a single column only — its sort order, its
tie groups, and the whole family of y-axis equipartitions (one per row
count, each with its entropy ``H(Q)``) — is computed once per window
(:func:`prepare_column` for one column).  The family depends on the tie
groups alone, so a window builds it once per distinct tie structure
(:func:`_plan_family`) and each column only scatters it into its own
index order.  An *item* is an ordered pair ``(x, y)`` with one
entry of ``y``'s plan.  Clump construction, cumulative row counts and the
x-axis dynamic programme all run as array operations over chunks of items
whose arrays fit :data:`_CHUNK_BYTES`, and each item gets only the work
its grid needs.  An item whose DP has two columns takes its optimum
``max_s gain(0, s) + gain(s, k)`` in ``O(K)``; a longer one builds the
``(k+1, k+1)`` partial-entropy gain matrix (gathered from a precomputed
``m * log(m)`` table, no transcendental calls in the hot loop) and reads
the DP's last step at ``t = k`` only.  Shorter items are padded: padded
boundaries repeat ``n`` (their cells hold no points, so they are
``-inf``), so every item's scores are bit-identical to scoring it alone.
Per item, only the superclump walk runs, and only when an item has more
clumps than its ``k_hat``.  Scalar :func:`mic` is the same kernel on a
two-column window; :func:`repro.stats.micfast.mic_matrix_fast` runs it,
serially, over a whole association matrix, and scores a pair with a
constant member 0.0 without it, as :func:`mic` would.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = [
    "mic",
    "MICParameters",
    "ColumnPrep",
    "prepare_column",
]


class MICParameters:
    """Tuning constants of the MINE approximation.

    Attributes:
        alpha: exponent of the grid-size budget ``B(n) = n ** alpha``
            (0.6 in the paper and in minepy's default).
        clumps_factor: the number of superclumps retained on the optimised
            axis is at most ``clumps_factor * x`` (15 in minepy's default).
    """

    def __init__(self, alpha: float = 0.6, clumps_factor: int = 15) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if clumps_factor < 1:
            raise ValueError(f"clumps_factor must be >= 1, got {clumps_factor}")
        self.alpha = alpha
        self.clumps_factor = clumps_factor

    def budget(self, n: int) -> int:
        """Grid-size budget ``B(n)``, never below the minimal 2x2 grid."""
        return max(int(n**self.alpha), 4)


_DEFAULT_PARAMS = MICParameters()


def _nlogn_table(n: int) -> np.ndarray:
    """Lookup table ``t[m] = m * log(m)`` for integer counts ``0 .. n``.

    ``t[0] = 0`` encodes the usual ``0 * log(0) = 0`` convention, so the
    entropy-gain kernel can gather instead of guarding each log.
    """
    table = np.zeros(n + 1)
    if n >= 1:
        counts = np.arange(1, n + 1, dtype=float)
        np.multiply(counts, np.log(counts), out=table[1:])
    return table


def _int_dtype(bound: int) -> np.dtype:
    """Narrowest signed integer dtype that holds ``-bound .. bound``."""
    return np.min_scalar_type(-(bound + 1))


def _tie_structure(sorted_values: np.ndarray) -> list[int]:
    """Tie groups of a sorted column: each group's start, then ``n``.

    Consecutive entries delimit one group of equal values, so the list
    has one entry more than the column has distinct values.
    """
    n = sorted_values.size
    starts = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    return [0, *starts.tolist(), n]


def _equipartition(bounds: list[int], num_bins: int) -> np.ndarray:
    """Assign a sorted column's positions to ``num_bins`` near-equal bins.

    Tied values always land in the same bin (Reshef's EquipartitionYAxis),
    so the realised number of bins can be smaller than requested when the
    data is heavily tied.  The walk steps over whole tie groups, as
    Python ints, and stops once the last bin is open.

    Args:
        bounds: the column's tie groups (:func:`_tie_structure`).
        num_bins: desired number of bins.

    Returns:
        Bin index per position (non-decreasing), in the narrowest signed
        dtype that holds ``num_bins``.
    """
    n = bounds[-1]
    edges = [0]  # first position of each bin
    current_bin = 0
    placed = 0
    bin_size = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if current_bin >= num_bins - 1:
            break  # every remaining group lands in the last bin
        run = hi - lo
        # Ideal size for the bin being filled: points not yet committed to a
        # closed bin, spread over the bins still available.
        target = (n - placed) / (num_bins - current_bin)
        if bin_size > 0 and abs(bin_size + run - target) >= abs(
            bin_size - target
        ):
            current_bin += 1
            placed += bin_size
            bin_size = 0
            edges.append(lo)
        bin_size += run
    edges.append(n)
    assign = np.empty(n, dtype=_int_dtype(num_bins))
    for label, (lo, hi) in enumerate(zip(edges, edges[1:])):
        assign[lo:hi] = label
    return assign


def _tie_spans(bounds: list[int]) -> np.ndarray:
    """``(2, g)`` first and last position of each tie group of two or more."""
    spans = [
        (lo, hi - 1) for lo, hi in zip(bounds, bounds[1:]) if hi - lo > 1
    ]
    return np.array(spans, dtype=np.intp).reshape(-1, 2).T


def _expand(
    first: np.ndarray, count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ragged ranges ``first[i] .. first[i] + count[i] - 1``, concatenated.

    Returns ``(owner, index)``: ``index`` lists every range in order and
    ``owner`` names the ``i`` each entry came from.
    """
    owner = np.repeat(np.arange(count.size), count)
    offset = first - (np.cumsum(count) - count)
    index = np.arange(owner.size) + np.repeat(offset, count)
    return owner, index


def _superclumps(boundaries: np.ndarray, n: int, k_hat: int) -> np.ndarray:
    """Coarsen clump boundaries down to at most ``k_hat`` superclumps.

    Walks the clumps in order, closing a superclump whenever its size
    reaches the equipartition target.  Clumps are atomic.  The walk jumps
    straight to each closing clump with a binary search, so the cost scales
    with the number of superclumps produced, not the number of clumps.
    """
    k = boundaries.size - 1
    if k <= k_hat:
        return boundaries
    blist = boundaries.tolist()
    out = [0]
    append = out.append
    filled = 0.0
    target = n / k_hat
    closed = 0
    t = 0
    while t < k:
        nxt = bisect_left(blist, filled + target)
        if nxt > k:
            nxt = k
        closing = blist[nxt]
        append(closing)
        closed += 1
        filled = float(closing)
        remaining = k_hat - closed
        target = (n - filled) / (remaining if remaining > 0 else 1)
        t = nxt
    return np.asarray(out, dtype=np.int64)


def _batch_boundaries(
    q_x: np.ndarray,
    tie_item: np.ndarray,
    tie_lo: np.ndarray,
    tie_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Clump boundaries of a batch of items along their x axes.

    A clump is a maximal run of x-consecutive points that share a y-row.
    An x tie group spanning several rows is atomic: it becomes its own
    (mixed) clump, cut from both neighbours.

    Args:
        q_x: ``(c, n)`` row index of each point, in each item's x order.
        tie_item, tie_lo, tie_hi: the tie groups of two or more points
            along the items' x axes: group ``j`` covers positions
            ``tie_lo[j] .. tie_hi[j]`` of item ``tie_item[j]``
            (:func:`_tie_spans` of each item's x column).

    Returns:
        ``(bnd, k)``: ``bnd[i, :k[i] + 1]`` are item ``i``'s boundaries
        (cumulative point counts, ``0`` first and ``n`` last) and the rest
        of the row repeats ``n``.  ``bnd`` has the narrowest signed dtype
        that holds ``n``.
    """
    c, n = q_x.shape
    cut = np.empty((c, n + 1), dtype=bool)
    cut[:, 0] = True
    cut[:, n] = True
    np.not_equal(q_x[:, 1:], q_x[:, :-1], out=cut[:, 1:n])
    if tie_item.size:
        # Nothing cuts inside a tie group.  A group with a row change
        # inside it is mixed: cut it from both neighbours.
        group, pos = _expand(tie_lo + 1, tie_hi - tie_lo)
        inside = tie_item[group]
        mixed = np.zeros(tie_item.size, dtype=bool)
        mixed[group[cut[inside, pos]]] = True
        cut[inside, pos] = False
        cut[tie_item[mixed], tie_lo[mixed]] = True
        cut[tie_item[mixed], tie_hi[mixed] + 1] = True
    k = cut.sum(axis=1) - 1
    # Cut positions in order, then n: sorting puts each row's boundaries
    # first and its padding after them.
    index = _int_dtype(n)
    bnd = np.where(cut, np.arange(n + 1, dtype=index), index.type(n))
    bnd.sort(axis=1)
    return bnd[:, : int(k.max()) + 1], k


def _batch_cum_counts(
    q_x: np.ndarray, bnd: np.ndarray, rows: int
) -> np.ndarray:
    """Cumulative per-row counts at each clump boundary, ``(c, rows, K+1)``.

    Entry ``[i, r, t]`` counts item ``i``'s points before boundary ``t``
    that fall in row ``r``.  Past an item's last boundary the counts stay
    at the row totals, and rows an item does not have stay zero.  The
    table has the narrowest signed dtype that holds ``n``, so the gain
    kernels' broadcast subtractions of it stay small.
    """
    c, n = q_x.shape
    k_max = bnd.shape[1] - 1
    starts = np.zeros((c, n + 1), dtype=bool)
    starts[np.arange(c)[:, None], bnd[:, :-1]] = True
    # The bin of each point, (item * k_max + clump) * rows + row, in place.
    flat = np.cumsum(starts[:, :n], axis=1)
    flat += (np.arange(c) * k_max - 1)[:, None]
    flat *= rows
    flat += q_x
    counts = np.bincount(flat.ravel(), minlength=c * k_max * rows)
    counts = counts.reshape(c, k_max, rows)
    np.cumsum(counts, axis=1, out=counts)
    cum = np.zeros((c, rows, k_max + 1), dtype=_int_dtype(n))
    cum[:, :, 1:] = counts.transpose(0, 2, 1)
    return cum


class _Scratch:
    """One grow-only buffer that the kernel's largest arrays are carved
    from.

    A gain-matrix chunk of ``c`` items with ``w = K + 1`` boundaries
    carves two float matrices, one index matrix and one mask, all
    ``(c, w, w)``: that is :data:`_CELL_BYTES` per cell.  A two-column
    chunk carves its ``(c, w)`` lines, and a boundary pass its ``(c, n)``
    index gather.  Every carve starts at the buffer's front, so these
    peaks overlap instead of adding; the buffer grows to a window's
    largest carve and is reused from then on.
    """

    __slots__ = ("words", "typed")

    def __init__(self) -> None:
        self._grow(0)

    def _grow(self, words: int) -> None:
        buffer = np.empty(words)  # 8-byte words
        self.words = words
        # Each kind's view of the buffer, and how many items fill a word.
        self.typed = {
            float: (buffer, 1),
            np.intp: (buffer.view(np.intp), 8 // np.dtype(np.intp).itemsize),
            bool: (buffer.view(bool), 8),
        }

    def carve(self, shape: tuple[int, ...], *kinds: type) -> list[np.ndarray]:
        """One array of ``shape`` per kind (``float``, ``np.intp`` or
        ``bool``), laid end to end, each from a word boundary.  They are
        views of the buffer: the next carve overwrites them."""
        count = math.prod(shape)
        spans = [-(-count // self.typed[kind][1]) for kind in kinds]
        if sum(spans) > self.words:
            self._grow(sum(spans))
        out = []
        word = 0
        for kind, span in zip(kinds, spans):
            view, per_word = self.typed[kind]
            first = word * per_word
            out.append(view[first : first + count].reshape(shape))
            word += span
        return out

    def views(
        self, c: int, w: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(c, w, w)`` float, float, index and mask views."""
        return tuple(self.carve((c, w, w), float, float, np.intp, bool))


#: Scratch bytes per ``(c, w, w)`` cell: two float64, one index, one mask.
_CELL_BYTES = 8 + 8 + np.dtype(np.intp).itemsize + 1

#: Byte budget of one chunk: its gain matrices, or the count tables and
#: lines of a two-column chunk (:func:`_item_bytes`).  A thread that has
#: scored a window keeps its peak (the scratch at about this budget, plus
#: one chunk's count tables and the window's item tables) in its malloc
#: arena.  A server diagnoses on the handler thread of the connection that
#: completed the window, so it pays this once per live connection.  On a
#: 30x26 telemetry window a gain-matrix chunk holds 9-58 items and a
#: two-column chunk 42-93.
_CHUNK_BYTES = 1 << 17

#: Budget divisor of the clump-boundary pass: a pass takes
#: ``_CHUNK_BYTES // (_POINT_BYTES * n)`` items.  Its largest array is the
#: ``(c, n)`` index gather that builds ``q_x`` (8 bytes per point), carved
#: from the scratch; the rows, cut flags and boundaries it keeps take 1-2
#: bytes per point each, and tie groups are expanded per group, not per
#: point.  At 30 samples a pass holds 546 items.
_POINT_BYTES = 8


def _batch_entropy_gains(
    bnd: np.ndarray,
    cum: np.ndarray,
    nlogn: np.ndarray,
    scratch: _Scratch,
) -> np.ndarray:
    """Column-gain matrices of a batch of items for the x-axis DP.

    ``cum[i, r, s]`` holds item ``i``'s row-``r`` count over its first
    ``s`` clumps.  Entry ``(i, s, t)`` (for ``s < t``) is the unnormalised
    contribution of a column spanning clumps ``s+1 .. t`` to
    ``-n * H(Q | P)``:

        gain(s, t) = sum_rows  m_r * log(m_r / m)
                   = sum_rows  m_r * log(m_r)  -  m * log(m)

    with ``m_r`` the per-row counts inside the column and ``m`` its total —
    both integers, so both terms come from the ``nlogn`` lookup table.
    The sum runs from ``-m * log(m)`` over the rows in order, one add per
    row for every item at once; a row an item does not have adds
    ``nlogn[0] = 0``.  Cells with ``m <= 0`` (``s >= t``, and every cell
    between padded boundaries) are ``-inf``.

    Returns a ``(c, K+1, K+1)`` view of the scratch's first float buffer.
    """
    c, w = bnd.shape
    gains, gathered, diff, invalid = scratch.views(c, w)
    # The total of clumps s+1..t is boundary[t] - boundary[s].
    np.subtract(bnd[:, None, :], bnd[:, :, None], out=diff)
    np.less_equal(diff, 0, out=invalid)
    # Negative differences clip to the table's 0 entry; the mask at the
    # end overwrites those cells.
    np.take(nlogn, diff, out=gains, mode="clip")
    np.negative(gains, out=gains)
    for r in range(cum.shape[1]):
        row_counts = cum[:, r, :]
        np.subtract(row_counts[:, None, :], row_counts[:, :, None], out=diff)
        np.take(nlogn, diff, out=gathered, mode="clip")
        gains += gathered
    np.copyto(gains, -np.inf, where=invalid)
    return gains


def _batch_optimize_axis(
    gains: np.ndarray,
    k: np.ndarray,
    max_cols: np.ndarray,
    scratch: _Scratch,
) -> np.ndarray:
    """Maximal ``-n * H(Q|P)`` of each item for ``l = 1 .. max_cols`` columns.

    Args:
        gains: ``(c, K+1, K+1)`` gain matrices from
            :func:`_batch_entropy_gains`.
        k: clump count of each item.
        max_cols: largest number of x-axis columns to evaluate per item.
        scratch: the scratch ``gains`` lives in; its second float buffer
            is the DP's work matrix.

    Returns:
        ``(c, L+1)`` array ``G``; ``G[i, l]`` is item ``i``'s optimum for
        ``l`` columns, ``-inf`` where ``l`` exceeds ``min(max_cols, k)``
        (and at ``l = 0``).
    """
    c, w, _ = gains.shape
    limit = np.minimum(max_cols, k)
    cols = int(limit.max())
    out = np.full((c, cols + 1), -np.inf)
    items = np.arange(c)
    # g[i, t] = best value partitioning item i's first t clumps into l
    # columns.  Padded clumps (t > k) never feed g[i, k]: every path
    # into t = k from a padded s crosses a -inf cell.
    g = gains[:, 0, :].copy()  # l = 1: single column over clumps 1..t
    out[:, 1] = g[items, k]
    work = scratch.views(c, w)[1]
    for l in range(2, cols):
        # g[i, t] = max_s g[i, s] + gains[i, s, t]
        np.add(g[:, :, None], gains, out=work)
        work.max(axis=1, out=g)
        out[:, l] = g[items, k]
    if cols >= 2:
        # The last step is read at t = k only: one column of gains.
        g += gains[items, :, k]
        out[:, cols] = g.max(axis=1)
    out[np.arange(cols + 1)[None, :] > limit[:, None]] = -np.inf
    return out


def _batch_two_column_optimum(
    bnd: np.ndarray, cum: np.ndarray, nlogn: np.ndarray, scratch: _Scratch
) -> np.ndarray:
    """Maximal ``-n * H(Q|P)`` of each item over exactly two columns.

    ``G[2] = max_s gain(0, s) + gain(s, k)``: the DP's second step read
    at ``t = k``, in ``O(K)`` per item and without the gain matrix.  Both
    gains sum as in :func:`_batch_entropy_gains` (``-nlogn[total]``, then
    the rows in order), so the optimum equals the DP's bit for bit.
    ``gain(s, k)`` reads the last boundary and counts of each row, which
    padding holds at ``n`` and the row totals.

    Args:
        bnd: ``(c, K+1)`` boundaries (:func:`_batch_boundaries`).
        cum: ``(c, rows, K+1)`` cumulative counts
            (:func:`_batch_cum_counts`).
        nlogn: the ``m * log(m)`` table of the sample count.
        scratch: the buffer the ``(c, K+1)`` lines are carved from.

    Returns:
        ``(c,)`` optimum of each item, ``-inf`` for one with ``k < 2``.
    """
    n = nlogn.size - 1
    left, right, gathered, diff, edge = scratch.carve(
        bnd.shape, float, float, float, np.intp, bool
    )
    # Every index is a count in 0 .. n, so clipping never fires.
    np.take(nlogn, bnd, out=left, mode="clip")
    np.negative(left, out=left)
    np.subtract(n, bnd, out=diff)
    np.take(nlogn, diff, out=right, mode="clip")
    np.negative(right, out=right)
    for r in range(cum.shape[1]):
        row_counts = cum[:, r, :]
        np.take(nlogn, row_counts, out=gathered, mode="clip")
        left += gathered
        np.subtract(row_counts[:, -1:], row_counts, out=diff)
        np.take(nlogn, diff, out=gathered, mode="clip")
        right += gathered
    left += right
    # A split at s = 0 or at s >= k leaves a column without points.
    np.equal(bnd, 0, out=edge)
    edge |= bnd == n
    np.copyto(left, -np.inf, where=edge)
    return left.max(axis=1)


class ColumnPrep:
    """Pair-independent precompute of one metric column.

    Everything MIC needs from a column alone: its stable argsort order,
    its tie groups (clump construction), and the *plan* — the family of
    y-axis equipartitions, one entry per distinct ``(row assignment,
    column budget)`` the grid-budget sweep produces.  Entries whose
    assignment and budget duplicate an earlier row count are dropped:
    the downstream computation would be bit-identical, so deduplication
    is a pure speedup.

    Attributes:
        order: stable argsort of the column.
        spans: ``(2, g)`` first and last sorted position of each tie
            group of two or more points (:func:`_tie_spans`).
        plan: list of ``(max_cols, q, realised_rows, h_q)`` with ``q`` the
            row assignment in original index order and ``h_q`` its entropy
            ``H(Q)`` in nats.
    """

    __slots__ = ("order", "spans", "plan")

    def __init__(
        self,
        order: np.ndarray,
        spans: np.ndarray,
        plan: list[tuple[int, np.ndarray, int, float]],
    ) -> None:
        self.order = order
        self.spans = spans
        self.plan = plan


def _sort_column(values: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A column's stable argsort order and its tie groups
    (:func:`_tie_structure` of the sorted column)."""
    vals = np.ascontiguousarray(values, dtype=float)
    order = np.argsort(vals, kind="stable")
    return order, _tie_structure(vals[order])


def _plan_family(
    bounds: list[int], budget: int
) -> list[tuple[int, np.ndarray, int, float]]:
    """The deduplicated y-axis equipartition family of a tie structure.

    Everything in a column's plan except the final scatter into original
    index order depends only on its tie groups and the budget, so columns
    with the same tie structure share one family.

    Args:
        bounds: the column's tie groups (:func:`_tie_structure`).
        budget: grid-size budget ``B(n)`` of the sample count.

    Returns:
        ``(max_cols, q_sorted, realised_rows, h_q)`` per entry, with
        ``q_sorted`` the row of each *sorted* position, in the narrowest
        signed dtype that holds ``budget``.
    """
    n = bounds[-1]
    row_dtype = _int_dtype(budget)
    family: list[tuple[int, np.ndarray, int, float]] = []
    seen: set[tuple[bytes, int]] = set()
    for rows in range(2, budget // 2 + 1):
        max_cols = budget // rows
        if max_cols < 2:
            break
        q_sorted = _equipartition(bounds, rows).astype(row_dtype, copy=False)
        realised_rows = int(q_sorted[-1]) + 1
        if realised_rows < 2:
            continue  # too many ties to form two rows
        # The scatter into index order is a bijection, so a duplicate
        # here is a duplicate of the column's plan.
        key = (q_sorted.tobytes(), max_cols)
        if key in seen:
            continue
        seen.add(key)
        # H(Q) over all points, in nats: it depends on this plan entry
        # only, never on the x column it is paired with.
        # Every bin up to the last realised one holds a point.
        probs = np.bincount(q_sorted) / n
        h_q = -float(np.sum(probs * np.log(probs)))
        family.append((max_cols, q_sorted, realised_rows, h_q))
    return family


def _column_prep(
    order: np.ndarray,
    bounds: list[int],
    family: list[tuple[int, np.ndarray, int, float]],
) -> ColumnPrep:
    """A column's :class:`ColumnPrep`: its tie structure's family, each
    ``q`` scattered from sorted into original index order."""
    plan = []
    for max_cols, q_sorted, realised_rows, h_q in family:
        q = np.empty(order.size, dtype=q_sorted.dtype)
        q[order] = q_sorted
        plan.append((max_cols, q, realised_rows, h_q))
    return ColumnPrep(order, _tie_spans(bounds), plan)


def prepare_column(
    values: np.ndarray,
    budget: int,
    params: MICParameters | None = None,
) -> ColumnPrep:
    """Precompute the shareable per-column state for :class:`ColumnPrep`.

    Args:
        values: one finite, non-constant column.
        budget: grid-size budget ``B(n)`` of the sample count.
        params: optional tuning constants.

    Returns:
        The column's :class:`ColumnPrep`.  Every ``q`` of its plan has the
        narrowest signed dtype that holds ``budget``.
    """
    order, bounds = _sort_column(values)
    return _column_prep(order, bounds, _plan_family(bounds, budget))


def _window_preps(
    data: np.ndarray, cols: list[int], budget: int
) -> list[ColumnPrep]:
    """:func:`prepare_column` of each listed column of a window, with one
    plan family built per distinct tie structure.

    Most telemetry columns have no ties, so a window usually builds one
    family for nearly all of its columns.  The memo lives for this call
    only.
    """
    families: dict[tuple[int, ...], list] = {}
    preps = []
    for col in cols:
        order, bounds = _sort_column(data[:, col])
        key = tuple(bounds)
        family = families.get(key)
        if family is None:
            family = families[key] = _plan_family(bounds, budget)
        preps.append(_column_prep(order, bounds, family))
    return preps


def _log_table(size: int) -> np.ndarray:
    """``t[v] = log(v)`` for ``v = 2 .. size - 1`` (``t[0:2]`` unused)."""
    return np.array([0.0, 0.0] + [np.log(v) for v in range(2, size)])


def _item_bytes(n: int, width: int, rows: int, steps: int) -> int:
    """Bytes one item of a chunk holds while the chunk is scored.

    An item of three or more DP steps holds ``width ** 2`` gain cells of
    :data:`_CELL_BYTES`.  A two-column item holds, per point, a clump
    start flag and a count bin (9 bytes, :func:`_batch_cum_counts`); per
    boundary and row, a count and a narrow cumulative count (at most 10
    bytes); and per boundary, three float lines, an index line and a
    mask (33 bytes, carved from the scratch).
    """
    if steps > 2:
        return _CELL_BYTES * width * width
    return 9 * n + (10 * rows + 33) * width


def _chunk_scores(
    q_x: np.ndarray,
    bnd: np.ndarray,
    k: np.ndarray,
    max_cols: np.ndarray,
    steps: int,
    rows: int,
    h_q: np.ndarray,
    nlogn: np.ndarray,
    logs: np.ndarray,
    scratch: _Scratch,
) -> np.ndarray:
    """Best normalised score of each item of one chunk.

    All items of a chunk share their DP length ``steps`` and realised row
    count ``rows``.  Two-column items take the ``O(K)`` optimum; longer
    ones the gain matrices and the DP.
    """
    n = q_x.shape[1]
    cum = _batch_cum_counts(q_x, bnd, rows)
    if steps == 2:
        g = _batch_two_column_optimum(bnd, cum, nlogn, scratch)[:, None]
    else:
        gains = _batch_entropy_gains(bnd, cum, nlogn, scratch)
        g = _batch_optimize_axis(gains, k, max_cols, scratch)[:, 2:]
    # Normalise by the *realised* grid: ties can collapse the requested
    # rows, and log(min(cols, rows)) must describe the grid actually
    # scored.
    cols = np.arange(2, 2 + g.shape[1])
    mi = h_q[:, None] + g / n
    return (mi / logs[np.minimum(cols, rows)]).max(axis=1)


def _mic_pairs(
    data: np.ndarray,
    pairs: list[tuple[int, int]],
    params: MICParameters,
) -> np.ndarray:
    """MIC of each listed column pair of a window, in batched passes.

    One *item* is an ordered pair ``(x, y)`` together with one entry of
    ``y``'s plan; a pair's MIC is the best normalised score over the items
    of both its orientations.  Items are scored in chunks whose arrays
    fit :data:`_CHUNK_BYTES`, every step an array operation over the
    chunk: two-column items in ``O(K)`` each, longer ones through their
    gain matrices.  Only the superclump walk runs per item, and only for
    items with more clumps than their ``k_hat``.

    Args:
        data: ``(n, m)`` window.  Every column named in ``pairs`` must be
            finite and non-constant, and ``n >= 4``.
        pairs: column index pairs ``(i, j)`` with ``i != j``.
        params: tuning constants.

    Returns:
        MIC score of each pair, in ``pairs`` order.
    """
    best = np.zeros(len(pairs))
    if not pairs:
        return best
    n = data.shape[0]
    budget = params.budget(n)
    used = sorted({col for pair in pairs for col in pair})
    local = {col: idx for idx, col in enumerate(used)}
    preps = _window_preps(data, used, budget)

    # Per-column and per-plan-entry tables, indexed by item.
    order = np.stack([p.order for p in preps])
    span_count = np.array([p.spans.shape[1] for p in preps], dtype=np.intp)
    span_first = np.cumsum(span_count) - span_count
    spans = np.concatenate([p.spans for p in preps], axis=1)
    entries = [entry for p in preps for entry in p.plan]
    q_all = np.stack([entry[1] for entry in entries])
    e_cols = np.array([entry[0] for entry in entries], dtype=np.intp)
    e_rows = np.array([entry[2] for entry in entries], dtype=np.intp)
    e_hq = np.array([entry[3] for entry in entries])
    e_khat = np.maximum(params.clumps_factor * e_cols, 2)
    per_col = np.array([len(p.plan) for p in preps], dtype=np.intp)
    col_start = np.cumsum(per_col) - per_col

    # Items: both orientations of every pair, times the y column's plan.
    pair_x = np.array([local[i] for i, _ in pairs], dtype=np.intp)
    pair_y = np.array([local[j] for _, j in pairs], dtype=np.intp)
    xs = np.concatenate((pair_x, pair_y))
    ys = np.concatenate((pair_y, pair_x))
    owner = np.tile(np.arange(len(pairs)), 2)
    oriented, item_e = _expand(col_start[ys], per_col[ys])
    item_x, item_pair = xs[oriented], owner[oriented]
    # Group items by DP length and row count, both fixed by the plan
    # entry, so the chunks cut from a pass are rarely split by group.
    group = np.lexsort((e_rows[item_e], e_cols[item_e]))
    item_x, item_e, item_pair = item_x[group], item_e[group], item_pair[group]

    nlogn = _nlogn_table(n)
    logs = _log_table(max(int(e_cols.max()), int(e_rows.max())) + 1)
    scratch = _Scratch()
    # Clump boundaries for a pass of items at a time (their (c, n) arrays
    # fit the budget).  Then scores for chunks of items that share a DP
    # length and row count, widest first: a chunk pads each item only up
    # to its own widest, and runs only its own DP steps.
    per_pass = max(1, _CHUNK_BYTES // (_POINT_BYTES * n))
    for start in range(0, item_e.size, per_pass):
        ix = item_x[start : start + per_pass]
        ie = item_e[start : start + per_pass]
        # q_x[i] = q_all[ie[i], order[ix[i]]], through flat indices built
        # in the scratch: no chunk of the previous pass needs it any more.
        (gather,) = scratch.carve((ix.size, n), np.intp)
        np.take(order, ix, axis=0, out=gather, mode="clip")
        gather += (ie * n)[:, None]
        q_x = np.take(q_all, gather, mode="clip")
        tie_item, span = _expand(span_first[ix], span_count[ix])
        bnd, k = _batch_boundaries(q_x, tie_item, *spans[:, span])
        khat = e_khat[ie]
        for i in np.flatnonzero(k > khat):
            coarse = _superclumps(bnd[i, : k[i] + 1], n, int(khat[i]))
            bnd[i, : coarse.size] = coarse
            bnd[i, coarse.size :] = n
            k[i] = coarse.size - 1
        steps = np.minimum(e_cols[ie], k)
        rows = e_rows[ie]
        # An item coarsened to a single superclump has no grid of two or
        # more columns to score.
        live = np.flatnonzero(steps >= 2)
        if not live.size:
            continue
        by = live[np.lexsort((-k[live], rows[live], steps[live]))]
        runs = np.flatnonzero(
            (np.diff(steps[by]) != 0) | (np.diff(rows[by]) != 0)
        )
        for run in np.split(by, runs + 1):
            run_steps, run_rows = int(steps[run[0]]), int(rows[run[0]])
            pos = 0
            while pos < run.size:
                width = int(k[run[pos]]) + 1
                held = _item_bytes(n, width, run_rows, run_steps)
                sel = run[pos : pos + max(1, _CHUNK_BYTES // held)]
                pos += sel.size
                e = ie[sel]
                scores = _chunk_scores(
                    q_x[sel], bnd[sel, :width], k[sel], e_cols[e],
                    run_steps, run_rows, e_hq[e], nlogn, logs, scratch,
                )
                np.maximum.at(best, item_pair[start + sel], scores)
    return np.minimum(best, 1.0)


def mic(
    x: np.ndarray | list[float],
    y: np.ndarray | list[float],
    params: MICParameters | None = None,
) -> float:
    """Maximal Information Coefficient between two samples.

    Args:
        x: first sample.
        y: second sample, same length.
        params: optional tuning constants; defaults match minepy
            (``alpha=0.6``, ``c=15``).

    Returns:
        MIC score in ``[0, 1]``.  Returns 0.0 when either input is constant
        (no association can be expressed) or when fewer than 4 paired
        observations are available.
    """
    params = params or _DEFAULT_PARAMS
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError(
            f"x and y must be 1-D of equal length, got {xa.shape} and {ya.shape}"
        )
    mask = np.isfinite(xa) & np.isfinite(ya)
    xa, ya = xa[mask], ya[mask]
    n = xa.size
    if n < 4:
        return 0.0
    # A finite sample's range is never negative: "not > 0" means constant.
    if not (np.ptp(xa) > 0 and np.ptp(ya) > 0):
        return 0.0
    return float(_mic_pairs(np.column_stack((xa, ya)), [(0, 1)], params)[0])
