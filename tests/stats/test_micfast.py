"""Tests for the association-matrix front of the MIC engine and its cache."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.mic import MICParameters, mic, prepare_column
from repro.stats.micfast import (
    AssociationCache,
    _score_pairs,
    _sharable_columns,
    association_cache,
    cached_mic_matrix,
    clear_association_cache,
    mic_matrix_fast,
)


def _mixed_window(rng, n=60):
    """A window exercising every engine path: coupled, noisy, tied,
    constant, and NaN-bearing columns."""
    base = rng.uniform(0, 1, n)
    tied = rng.choice([0.0, 1.0, 2.0], size=n)
    const = np.full(n, 3.5)
    nanny = base * 2.0
    nanny[::7] = np.nan
    noise = rng.normal(size=n)
    return np.column_stack([base, base * 3 - 1, tied, const, nanny, noise])


def _scalar_matrix(data, params=None):
    m = data.shape[1]
    out = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = mic(data[:, i], data[:, j], params)
    return out


class TestEngineEquivalence:
    def test_matches_scalar_mic_exactly(self, rng):
        data = _mixed_window(rng)
        fast = mic_matrix_fast(data)
        assert np.array_equal(fast, _scalar_matrix(data))

    def test_matches_scalar_under_custom_params(self, rng):
        data = _mixed_window(rng, n=50)
        params = MICParameters(alpha=0.5, clumps_factor=5)
        assert np.array_equal(
            mic_matrix_fast(data, params), _scalar_matrix(data, params)
        )

    def test_shape_symmetry_diagonal(self, rng):
        m = mic_matrix_fast(rng.normal(size=(40, 5)))
        assert m.shape == (5, 5)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 1.0)

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            mic_matrix_fast(rng.normal(size=30))

    def test_single_column(self, rng):
        assert np.array_equal(
            mic_matrix_fast(rng.normal(size=(30, 1))), np.eye(1)
        )

    def test_tiny_window_falls_back_to_scalar(self, rng):
        # n < 4: no column is sharable, and every finite column scores
        # 0.0 without a call to mic().
        data = rng.normal(size=(3, 4))
        assert np.array_equal(mic_matrix_fast(data), np.eye(4))


class TestPrepTable:
    """Which columns share the batched kernel, and how often each
    column's precompute is built."""

    def test_sharable_mask(self, rng):
        data = _mixed_window(rng)
        # base, coupled, tied, noise are sharable; constant and NaN not.
        assert _sharable_columns(data).tolist() == [
            True, True, True, False, False, True,
        ]

    def test_nothing_sharable_when_too_short(self, rng, monkeypatch):
        import importlib

        mic_mod = importlib.import_module("repro.stats.mic")
        data = rng.normal(size=(3, 4))
        assert not _sharable_columns(data).any()

        def boom(n):  # pragma: no cover - must not run
            raise AssertionError("kernel tables built for a tiny window")

        monkeypatch.setattr(mic_mod, "_nlogn_table", boom)
        scores = _score_pairs(data, MICParameters(), [(0, 1), (2, 3)])
        assert [s for _, _, s in scores] == [0.0, 0.0]

    def test_preps_built_lazily_and_reused(self, rng, monkeypatch):
        import importlib

        mic_mod = importlib.import_module("repro.stats.mic")
        built = []
        real = mic_mod._sort_column

        def counting(values):
            built.append(values.tobytes())
            return real(values)

        monkeypatch.setattr(mic_mod, "_sort_column", counting)
        data = rng.uniform(0, 1, size=(40, 3))
        _score_pairs(data, MICParameters(), [(0, 1)])
        # Only the columns the pairs name are prepared.
        assert built == [data[:, 0].tobytes(), data[:, 1].tobytes()]
        built.clear()
        _score_pairs(data, MICParameters(), [(0, 1), (0, 2)])
        # Column 0 serves both pairs from one precompute.
        assert built == [data[:, c].tobytes() for c in range(3)]


class TestNonSharablePairs:
    """Pairs the batched kernel cannot score: a finite member that is
    not sharable makes the pair exactly 0.0 without the scalar kernel;
    only NaN-bearing pairs run scalar mic()."""

    @staticmethod
    def _count_scalar_calls(monkeypatch):
        micfast_mod = importlib.import_module("repro.stats.micfast")
        calls = []
        real = micfast_mod.mic

        def counting(x, y, params=None):
            calls.append((x.tobytes(), y.tobytes()))
            return real(x, y, params)

        monkeypatch.setattr(micfast_mod, "mic", counting)
        return calls

    def test_constant_column_makes_no_scalar_calls(self, rng, monkeypatch):
        calls = self._count_scalar_calls(monkeypatch)
        data = rng.normal(size=(30, 26))
        data[:, 7] = 2.5
        fast = mic_matrix_fast(data)
        assert calls == []
        assert np.all(np.delete(fast[7], 7) == 0.0)

    def test_only_nan_pairs_run_scalar(self, rng, monkeypatch):
        calls = self._count_scalar_calls(monkeypatch)
        data = _mixed_window(rng)  # column 3 constant, column 4 NaN
        fast = mic_matrix_fast(data)
        # The NaN column against the four sharable columns; its pair
        # with the constant column is 0.0 without a call.
        assert len(calls) == 4
        assert fast[3, 4] == 0.0
        assert np.array_equal(fast, _scalar_matrix(data))


class TestSharedPlanFamilies:
    """A window builds each y-axis equipartition family once per
    distinct tie structure and gives each column its own scatter."""

    def test_equipartition_once_per_tie_structure(self, rng, monkeypatch):
        mic_mod = importlib.import_module("repro.stats.mic")
        calls = []
        real = mic_mod._equipartition

        def counting(bounds, num_bins):
            calls.append((tuple(bounds), num_bins))
            return real(bounds, num_bins)

        monkeypatch.setattr(mic_mod, "_equipartition", counting)
        data = rng.normal(size=(30, 26))
        data[:, 5] = rng.choice([0.0, 1.0, 2.0], size=30)
        data[:, 11] = np.round(data[:, 11])
        mic_matrix_fast(data)
        # B(30) = 7 asks for 2 and 3 rows; 24 untied columns share one
        # tie structure and the two tied columns have one each.
        assert len(calls) == 3 * 2
        assert len(set(calls)) == len(calls)

    @given(
        st.integers(0, 2**31 - 1),
        st.lists(
            st.sampled_from(["untied", "tied", "shuffled", "coarse"]),
            min_size=2,
            max_size=8,
        ),
        st.sampled_from([24, 30, 48]),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_plan_equals_standalone_prepare_column(self, seed, kinds, n):
        mic_mod = importlib.import_module("repro.stats.mic")
        r = np.random.default_rng(seed)
        # "shuffled" columns share one tie structure in different orders.
        levels = np.repeat([0.0, 1.0, 2.0], [n // 2, n // 3, n - n // 2 - n // 3])
        make = {
            "untied": lambda: r.normal(size=n),
            "tied": lambda: r.choice([0.0, 1.0, 2.0], size=n),
            "shuffled": lambda: r.permutation(levels),
            "coarse": lambda: np.round(2 * r.normal(size=n)),
        }
        data = np.column_stack([make[kind]() for kind in kinds])
        budget = MICParameters().budget(n)
        shared = mic_mod._window_preps(data, list(range(len(kinds))), budget)
        for col, prep in enumerate(shared):
            alone = prepare_column(data[:, col], budget)
            assert np.array_equal(prep.order, alone.order)
            assert np.array_equal(prep.spans, alone.spans)
            assert len(prep.plan) == len(alone.plan)
            for got, want in zip(prep.plan, alone.plan):
                assert got[0] == want[0]  # max_cols
                assert got[1].dtype == want[1].dtype
                assert np.array_equal(got[1], want[1])  # q
                assert got[2] == want[2]  # realised rows
                assert got[3] == want[3]  # h_q


class TestAssociationCache:
    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            AssociationCache(maxsize=0)

    def test_hit_miss_accounting(self, rng):
        cache = AssociationCache()
        data = rng.normal(size=(20, 3))
        first = cached_mic_matrix(data, cache=cache)
        second = cached_mic_matrix(data, cache=cache)
        assert np.array_equal(first, second)
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}

    def test_key_depends_on_content_and_params(self, rng):
        data = rng.normal(size=(20, 3))
        params = MICParameters()
        k1 = AssociationCache.key_for(data, params)
        assert AssociationCache.key_for(data, params) == k1
        bumped = data.copy()
        bumped[0, 0] += 1e-9
        assert AssociationCache.key_for(bumped, params) != k1
        assert (
            AssociationCache.key_for(data, MICParameters(alpha=0.5)) != k1
        )

    def test_lru_eviction(self, rng):
        cache = AssociationCache(maxsize=2)
        windows = [rng.normal(size=(12, 2)) for _ in range(3)]
        for w in windows:
            cached_mic_matrix(w, cache=cache)
        assert len(cache) == 2
        # windows[0] was least recently used and must be gone.
        params = MICParameters()
        assert cache.get(AssociationCache.key_for(windows[0], params)) is None
        assert (
            cache.get(AssociationCache.key_for(windows[2], params))
            is not None
        )

    def test_get_refreshes_recency(self, rng):
        cache = AssociationCache(maxsize=2)
        params = MICParameters()
        a, b, c = (rng.normal(size=(12, 2)) for _ in range(3))
        cached_mic_matrix(a, cache=cache)
        cached_mic_matrix(b, cache=cache)
        cache.get(AssociationCache.key_for(a, params))  # touch a
        cached_mic_matrix(c, cache=cache)  # evicts b, not a
        assert cache.get(AssociationCache.key_for(a, params)) is not None
        assert cache.get(AssociationCache.key_for(b, params)) is None

    def test_results_are_isolated_copies(self, rng):
        cache = AssociationCache()
        data = rng.normal(size=(20, 3))
        first = cached_mic_matrix(data, cache=cache)
        first[0, 1] = 99.0
        second = cached_mic_matrix(data, cache=cache)
        assert second[0, 1] != 99.0

    def test_clear(self, rng):
        cache = AssociationCache()
        cached_mic_matrix(rng.normal(size=(12, 2)), cache=cache)
        cache.clear()
        assert cache.stats() == {"size": 0, "hits": 0, "misses": 0}

    def test_global_cache_helpers(self, rng):
        clear_association_cache()
        try:
            data = rng.normal(size=(15, 3))
            cached_mic_matrix(data)
            cached_mic_matrix(data)
            stats = association_cache().stats()
            assert stats["hits"] >= 1
        finally:
            clear_association_cache()

    def test_cached_matches_uncached(self, rng):
        cache = AssociationCache()
        data = _mixed_window(rng, n=40)
        assert np.array_equal(
            cached_mic_matrix(data, cache=cache), mic_matrix_fast(data)
        )

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            cached_mic_matrix(rng.normal(size=20), cache=AssociationCache())


class TestScratchBudget:
    """One association matrix's memory peak is set by the kernel's byte
    budget, not by the number of (pair x grid) items in the window."""

    #: Allowance beyond the chunk budget: the column precompute and item
    #: tables (~150 KiB at 30x26), the boundary pass's (c, n) arrays
    #: (sized from the same budget) and the per-chunk DP tables.  The
    #: seeded window below peaks at 427-428 KiB with the pass's index
    #: gather and the two-column lines carved from the scratch, against
    #: 450.6 KiB when they were allocated beside it (NumPy 2.4).
    SLACK = 512 * 1024

    def test_pipeline_window_peak_within_budget(self, rng):
        import importlib
        import tracemalloc

        mic_mod = importlib.import_module("repro.stats.mic")
        data = rng.normal(size=(30, 26))
        mic_matrix_fast(data[:8, :3])  # warm imports and lazy tables
        tracemalloc.start()
        try:
            mic_matrix_fast(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mic_mod._CHUNK_BYTES + self.SLACK
