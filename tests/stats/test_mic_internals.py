"""White-box tests of the MIC machinery (equipartition, clumps, DP).

These target the parts of the MINE approximation where subtle bugs hide:
bin balancing under ties, clump atomicity for repeated x values, the
superclump coarsening bound and the dynamic programme's optimality on
small cases that can be brute-forced.  The clump and DP kernels are
batched; single-item cases go through them as a batch of one, and the
padding rules are checked by scoring items together and alone.  The
shortcuts that skip DP work (two-column items, the last step read at
t = k) are checked bit for bit against the full DP, and their effect on
a pipeline-shaped window is counted.
"""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import _mic_reference
from repro.stats.micfast import mic_matrix_fast

_mic = importlib.import_module("repro.stats.mic")


def _spans(x_sorted, items=1):
    """Tie groups of one sorted x column, repeated for ``items`` items,
    as the ``(tie_item, tie_lo, tie_hi)`` arguments of the clump pass."""
    lo, hi = _mic._tie_spans(_mic._tie_structure(np.asarray(x_sorted, float)))
    return (
        np.repeat(np.arange(items), lo.size), np.tile(lo, items),
        np.tile(hi, items),
    )


def _clumps(x_sorted, q_by_xorder):
    """Clump boundaries of one item through the batched kernel."""
    bnd, k = _mic._batch_boundaries(
        np.asarray(q_by_xorder, dtype=np.int64)[None, :], *_spans(x_sorted)
    )
    return bnd[0, : k[0] + 1]


def _equipartition(values, num_bins):
    """Equipartition of sorted values through their tie groups."""
    return _mic._equipartition(_mic._tie_structure(values), num_bins)


def _optimize_axis(cum, n, max_cols):
    """Single-item DP through the batched kernel.

    ``cum`` is the ``(k+1, rows)`` cumulative count table of one item.
    """
    cum = np.asarray(cum, dtype=np.intp)
    scratch = _mic._Scratch()
    gains = _mic._batch_entropy_gains(
        cum.sum(axis=1)[None, :], np.ascontiguousarray(cum.T)[None],
        _mic._nlogn_table(n), scratch,
    )
    k = np.array([cum.shape[0] - 1])
    return _mic._batch_optimize_axis(
        gains, k, np.array([max_cols]), scratch
    )[0]


class TestEquipartition:
    def test_balanced_without_ties(self):
        values = np.arange(12, dtype=float)
        assign = _equipartition(values, 3)
        counts = np.bincount(assign)
        assert list(counts) == [4, 4, 4]

    def test_near_balanced_odd_sizes(self):
        values = np.arange(10, dtype=float)
        assign = _equipartition(values, 3)
        counts = np.bincount(assign)
        assert counts.sum() == 10
        assert max(counts) - min(counts) <= 1

    def test_ties_stay_together(self):
        values = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        assign = _equipartition(values, 2)
        assert len(set(assign[:4])) == 1  # the tie block is atomic

    def test_assignment_non_decreasing(self, rng):
        values = np.sort(rng.normal(size=50))
        assign = _equipartition(values, 5)
        assert np.all(np.diff(assign) >= 0)

    def test_two_point_split(self):
        assign = _equipartition(np.array([1.0, 2.0]), 2)
        assert list(assign) == [0, 1]

    def test_all_tied_single_bin(self):
        assign = _equipartition(np.zeros(8), 3)
        assert len(set(assign)) == 1

    @given(
        draws=st.lists(st.integers(0, 1000), min_size=1, max_size=80),
        levels=st.sampled_from([None, 2, 3, 7]),
        num_bins=st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_frozen_reference(self, draws, levels, num_bins):
        """The tie-group walk assigns every position as the frozen
        per-position walk does, on untied and tied sorted data."""
        values = np.asarray(draws, dtype=float)
        if levels is not None:
            values = np.floor(values * levels / 1001.0)  # a few tied levels
        values = np.sort(values)
        assert np.array_equal(
            _equipartition(values, num_bins),
            _mic_reference._equipartition(values, num_bins),
        )


class TestClumps:
    def test_clean_split_two_clumps(self):
        x = np.arange(6, dtype=float)
        q = np.array([0, 0, 0, 1, 1, 1])
        boundaries = _clumps(x, q)
        assert list(boundaries) == [0, 3, 6]

    def test_alternating_rows_many_clumps(self):
        x = np.arange(6, dtype=float)
        q = np.array([0, 1, 0, 1, 0, 1])
        boundaries = _clumps(x, q)
        assert len(boundaries) - 1 == 6

    def test_x_ties_with_mixed_rows_are_atomic(self):
        x = np.array([0.0, 1.0, 1.0, 2.0])
        q = np.array([0, 0, 1, 1])
        boundaries = _clumps(x, q)
        # the tied block at x=1 spans rows 0 and 1 -> its own clump
        assert 1 in boundaries and 3 in boundaries

    def test_covers_all_points(self, rng):
        x = np.sort(rng.normal(size=40))
        q = (rng.random(40) > 0.5).astype(np.int64)
        boundaries = _clumps(x, q)
        assert boundaries[0] == 0
        assert boundaries[-1] == 40
        assert np.all(np.diff(boundaries) > 0)


class TestSuperclumps:
    def test_no_coarsening_when_under_limit(self):
        boundaries = np.array([0, 3, 6, 10])
        out = _mic._superclumps(boundaries, 10, k_hat=5)
        assert np.array_equal(out, boundaries)

    def test_coarsens_to_at_most_k_hat(self):
        boundaries = np.arange(0, 41)  # 40 singleton clumps
        out = _mic._superclumps(boundaries, 40, k_hat=8)
        assert len(out) - 1 <= 8
        assert out[0] == 0 and out[-1] == 40

    def test_respects_clump_boundaries(self):
        boundaries = np.array([0, 5, 6, 7, 20])
        out = _mic._superclumps(boundaries, 20, k_hat=2)
        assert set(out) <= set(boundaries)


class TestDynamicProgramme:
    def _brute_force(self, q_x, n_cols, rows):
        """Exhaustive max of -n*H(Q|P) over all column partitions."""
        n = q_x.size
        best = -np.inf
        for cuts in itertools.combinations(range(1, n), n_cols - 1):
            edges = [0, *cuts, n]
            total = 0.0
            for a, b in zip(edges, edges[1:]):
                seg = q_x[a:b]
                m = seg.size
                for r in range(rows):
                    c = int(np.sum(seg == r))
                    if c > 0:
                        total += c * np.log(c / m)
            best = max(best, total)
        return best

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dp_matches_brute_force_on_singleton_clumps(self, seed):
        rng = np.random.default_rng(seed)
        n, rows, cols = 10, 2, 3
        q_x = rng.integers(0, rows, n).astype(np.int64)
        # singleton clumps let the DP consider every cut position
        boundaries = np.arange(0, n + 1)
        onehot = np.zeros((n + 1, rows), dtype=np.int64)
        np.add.at(onehot[1:], (np.arange(n), q_x), 1)
        cum = np.cumsum(onehot, axis=0)[boundaries]
        g = _optimize_axis(cum, n, cols)
        assert g[cols] == pytest.approx(
            self._brute_force(q_x, cols, rows), abs=1e-9
        )

    def test_more_columns_never_worse(self, rng):
        n, rows = 20, 3
        q_x = rng.integers(0, rows, n).astype(np.int64)
        boundaries = np.arange(0, n + 1)
        onehot = np.zeros((n + 1, rows), dtype=np.int64)
        np.add.at(onehot[1:], (np.arange(n), q_x), 1)
        cum = np.cumsum(onehot, axis=0)[boundaries]
        g = _optimize_axis(cum, n, 5)
        finite = [v for v in g[1:] if np.isfinite(v)]
        assert all(b >= a - 1e-9 for a, b in zip(finite, finite[1:]))

    def test_perfectly_separable_reaches_zero_conditional_entropy(self):
        q_x = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        boundaries = np.array([0, 3, 6])
        onehot = np.zeros((7, 2), dtype=np.int64)
        np.add.at(onehot[1:], (np.arange(6), q_x), 1)
        cum = np.cumsum(onehot, axis=0)[boundaries]
        g = _optimize_axis(cum, 6, 2)
        assert g[2] == pytest.approx(0.0, abs=1e-12)  # H(Q|P) = 0


class TestBatchPadding:
    """Items scored together equal the same items scored alone, bit for
    bit: padded boundaries repeat ``n`` and padded rows count zero."""

    def _items(self, rng, n, rows_list):
        q_x = [rng.integers(0, r, n).astype(np.int64) for r in rows_list]
        x = np.sort(rng.normal(size=n))
        x[5:9] = x[5]  # a tie group, mixed in some items
        return x, q_x

    def test_batched_dp_equals_single_items(self, rng):
        n = 24
        x, q_x = self._items(rng, n, [2, 3, 2, 4])
        batch = np.stack(q_x)
        c = batch.shape[0]
        bnd, k = _mic._batch_boundaries(batch, *_spans(x, c))
        nlogn = _mic._nlogn_table(n)
        scratch = _mic._Scratch()
        cum = _mic._batch_cum_counts(batch, bnd, 4)
        gains = _mic._batch_entropy_gains(bnd, cum, nlogn, scratch)
        max_cols = np.array([4, 3, 5, 2])
        together = _mic._batch_optimize_axis(gains, k, max_cols, scratch)
        for i, q in enumerate(q_x):
            rows = int(q.max()) + 1
            b1, k1 = _mic._batch_boundaries(q[None], *_spans(x))
            assert np.array_equal(b1[0], bnd[i, : k[i] + 1])
            one = _mic._Scratch()
            c1 = _mic._batch_cum_counts(q[None], b1, rows)
            g1 = _mic._batch_entropy_gains(b1, c1, nlogn, one)
            alone = _mic._batch_optimize_axis(g1, k1, max_cols[i:i + 1], one)
            width = alone.shape[1]
            assert np.array_equal(together[i, :width], alone[0])
            assert np.all(together[i, width:] == -np.inf)

    def test_padded_cells_are_minus_inf(self, rng):
        n = 20
        q_x = np.stack([
            np.repeat([0, 1], 10),  # two clumps
            rng.integers(0, 2, n),  # many clumps
        ]).astype(np.int64)
        bnd, k = _mic._batch_boundaries(q_x, *_spans(np.arange(n)))
        assert k[0] == 2 and k[1] > 2
        assert np.all(bnd[0, 3:] == n)
        cum = _mic._batch_cum_counts(q_x, bnd, 2)
        gains = _mic._batch_entropy_gains(
            bnd, cum, _mic._nlogn_table(n), _mic._Scratch()
        )
        # Every cell between padded boundaries has no points.
        assert np.all(gains[0, 2:, 2:] == -np.inf)


def _full_dp(gains, k, max_cols):
    """The x-axis DP with every step over the whole ``(w, w)`` matrix."""
    c = gains.shape[0]
    items = np.arange(c)
    limit = np.minimum(max_cols, k)
    cols = int(limit.max())
    out = np.full((c, cols + 1), -np.inf)
    g = gains[:, 0, :].copy()
    out[:, 1] = g[items, k]
    for l in range(2, cols + 1):
        g = (g[:, :, None] + gains).max(axis=1)
        out[:, l] = g[items, k]
    out[np.arange(cols + 1)[None, :] > limit[:, None]] = -np.inf
    return out


class TestDpShortcuts:
    """The last DP step read at t = k only, and the two-column optimum
    without a gain matrix, equal the full DP bit for bit on random
    padded batches with mixed tie groups."""

    def _batch(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        rows = int(rng.integers(2, 5))
        c = 9
        x = np.sort(rng.normal(size=n))
        for _ in range(3):  # tie groups, mixed in some items
            lo = int(rng.integers(0, n - 1))
            x[lo : lo + int(rng.integers(2, 5))] = x[lo]
        x = np.sort(x)
        q_x = rng.integers(0, rows, (c, n))
        q_x[0] = np.sort(q_x[0])  # few clumps: heavy padding
        q_x[1] = np.arange(n) % rows  # many clumps
        bnd, k = _mic._batch_boundaries(q_x, *_spans(x, c))
        cum = _mic._batch_cum_counts(q_x, bnd, rows)
        return rng, n, bnd, k, cum

    @pytest.mark.parametrize("seed", range(12))
    def test_last_step_at_k_equals_full_dp(self, seed):
        rng, n, bnd, k, cum = self._batch(seed)
        scratch = _mic._Scratch()
        nlogn = _mic._nlogn_table(n)
        gains = _mic._batch_entropy_gains(bnd, cum, nlogn, scratch)
        max_cols = rng.integers(2, 7, k.size)
        expected = _full_dp(gains, k, max_cols)
        got = _mic._batch_optimize_axis(gains, k, max_cols, scratch)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_two_column_optimum_equals_full_dp(self, seed):
        _rng, n, bnd, k, cum = self._batch(seed)
        nlogn = _mic._nlogn_table(n)
        gains = _mic._batch_entropy_gains(bnd, cum, nlogn, _mic._Scratch())
        expected = _full_dp(gains, k, np.full(k.size, 2))[:, 2]
        got = _mic._batch_two_column_optimum(
            bnd, cum, nlogn, _mic._Scratch()
        )
        assert np.array_equal(got, expected)
        assert np.all(np.isfinite(got[k >= 2]))


def _pipeline_window(n=30, m=26, seed=7):
    """A telemetry-like window of the pipeline's shape: correlated metrics
    plus a three-level categorical and a rounded column (the same
    construction as ``_window`` in ``benchmarks/test_perf_mic_engine.py``).
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, max(4, m // 4)))
    mix = rng.normal(size=(base.shape[1], m))
    data = base @ mix + 0.3 * rng.normal(size=(n, m))
    data[:, 5] = rng.choice([0.0, 1.0, 2.0], size=n, p=[0.7, 0.2, 0.1])
    data[:, 11] = np.round(data[:, 11])
    return data


class TestPipelineWindowWork:
    """Kernel work on one 30x26 association matrix.

    Before two-column items skipped the gain matrix and passes held
    narrower arrays, this window took 20 boundary passes and 482,907
    gain-matrix cells, and every two-column chunk built a gain matrix.
    """

    PARENT_GAIN_CELLS = 482_907
    PARENT_PASSES = 20

    def test_two_column_items_build_no_gain_matrix(self, monkeypatch):
        chunk_steps = []
        gain_calls = []
        passes = []
        real_chunk = _mic._chunk_scores
        real_gains = _mic._batch_entropy_gains
        real_boundaries = _mic._batch_boundaries

        def chunk_spy(q_x, bnd, k, max_cols, *rest):
            chunk_steps.append(int(np.minimum(max_cols, k).max()))
            return real_chunk(q_x, bnd, k, max_cols, *rest)

        def gains_spy(bnd, *rest):
            cells = bnd.shape[0] * bnd.shape[1] ** 2
            gain_calls.append((chunk_steps[-1], cells))
            return real_gains(bnd, *rest)

        def boundaries_spy(*args):
            passes.append(1)
            return real_boundaries(*args)

        monkeypatch.setattr(_mic, "_chunk_scores", chunk_spy)
        monkeypatch.setattr(_mic, "_batch_entropy_gains", gains_spy)
        monkeypatch.setattr(_mic, "_batch_boundaries", boundaries_spy)
        mic_matrix_fast(_pipeline_window())

        assert 2 in chunk_steps  # the window has two-column items
        assert all(steps > 2 for steps, _cells in gain_calls)
        cells = sum(cells for _steps, cells in gain_calls)
        assert 0 < cells <= self.PARENT_GAIN_CELLS // 2
        assert len(passes) < self.PARENT_PASSES
