"""Unit and property tests for the from-scratch MIC implementation."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats._mic_reference import mic_reference
from repro.stats.mic import MICParameters, mic
from repro.stats.micfast import mic_matrix_fast

_MIC_MOD = importlib.import_module("repro.stats.mic")


class TestFunctionalRelationships:
    """Reshef et al.: MIC approaches 1 for noiseless functional relations."""

    def test_linear(self, rng):
        x = rng.uniform(0, 1, 300)
        assert mic(x, 3.0 * x - 1.0) >= 0.99

    def test_decreasing_linear(self, rng):
        x = rng.uniform(0, 1, 300)
        assert mic(x, -2.0 * x) >= 0.99

    def test_parabola(self, rng):
        x = rng.uniform(0, 1, 300)
        assert mic(x, (x - 0.5) ** 2) >= 0.9

    def test_exponential(self, rng):
        x = rng.uniform(0, 1, 300)
        assert mic(x, np.exp(3 * x)) >= 0.99

    def test_moderate_frequency_sine(self, rng):
        x = rng.uniform(0, 1, 400)
        assert mic(x, np.sin(4 * np.pi * x)) >= 0.7

    def test_step_function(self, rng):
        x = rng.uniform(0, 1, 300)
        assert mic(x, (x > 0.5).astype(float)) >= 0.9


class TestIndependenceAndNoise:
    def test_independent_low(self, rng):
        scores = [
            mic(rng.uniform(0, 1, 300), rng.uniform(0, 1, 300))
            for _ in range(10)
        ]
        assert float(np.mean(scores)) < 0.3

    def test_noise_degrades_monotonically(self, rng):
        x = rng.uniform(0, 1, 400)
        clean = mic(x, x)
        mild = mic(x, x + rng.normal(0, 0.1, 400))
        heavy = mic(x, x + rng.normal(0, 1.5, 400))
        assert clean > mild > heavy

    def test_correlated_beats_independent_at_window_scale(self, rng):
        """The 30-sample windows of the pipeline must separate signal
        from noise."""
        n = 30
        corr, indep = [], []
        for _ in range(20):
            x = rng.uniform(0, 1, n)
            corr.append(mic(x, x + rng.normal(0, 0.05, n)))
            indep.append(mic(rng.uniform(0, 1, n), rng.uniform(0, 1, n)))
        assert float(np.mean(corr)) > float(np.mean(indep)) + 0.3


class TestEdgeCases:
    def test_constant_input_scores_zero(self, rng):
        x = rng.uniform(0, 1, 100)
        assert mic(x, np.full(100, 7.0)) == 0.0
        assert mic(np.zeros(100), x) == 0.0

    def test_too_few_points_scores_zero(self):
        assert mic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_nan_pairs_masked(self, rng):
        x = rng.uniform(0, 1, 100)
        y = 2 * x
        x2 = x.copy()
        x2[::10] = np.nan
        assert mic(x2, y) >= 0.95

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mic([1.0, 2.0, 3.0, 4.0], [1.0, 2.0])

    def test_heavy_ties(self, rng):
        x = np.repeat([0.0, 1.0, 2.0], 30)
        y = x * 2.0
        score = mic(x, y + rng.normal(0, 1e-6, x.size))
        assert score > 0.8

    def test_binary_vs_binary(self, rng):
        # MIC of a skewed binary variable with itself is its entropy H(p),
        # slightly below 1 unless the classes are perfectly balanced.
        x = (rng.uniform(0, 1, 200) > 0.5).astype(float)
        assert mic(x, x) >= 0.9


class TestMICProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_range(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=40)
        y = r.normal(size=40)
        score = mic(x, y)
        assert 0.0 <= score <= 1.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=50)
        y = x * 0.5 + r.normal(size=50)
        assert mic(x, y) == pytest.approx(mic(y, x), abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        """MIC depends only on rank structure: strictly monotone transforms
        of either variable leave it unchanged."""
        r = np.random.default_rng(seed)
        x = r.uniform(0.1, 2.0, 60)
        y = x + r.normal(0, 0.2, 60)
        base = mic(x, y)
        assert mic(np.log(x), y) == pytest.approx(base, abs=1e-12)
        assert mic(x, y**3) == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_joint_permutation_invariance(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=50)
        y = x + r.normal(size=50)
        perm = r.permutation(50)
        assert mic(x[perm], y[perm]) == pytest.approx(mic(x, y), abs=1e-12)


class TestParameters:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            MICParameters(alpha=0.0)
        with pytest.raises(ValueError):
            MICParameters(alpha=1.5)

    def test_clumps_factor_bound(self):
        with pytest.raises(ValueError):
            MICParameters(clumps_factor=0)

    def test_budget_floor(self):
        assert MICParameters().budget(4) >= 4

    def test_smaller_alpha_never_higher_budget(self):
        small = MICParameters(alpha=0.4)
        large = MICParameters(alpha=0.8)
        for n in (20, 100, 1000):
            assert small.budget(n) <= large.budget(n)


def _half_characteristic_requested_keying(x, y, budget, params):
    """The pre-fix half-characteristic: entries keyed by the *requested*
    row count even when ties collapse the equipartition to fewer rows.

    Rebuilt from the module's own batched kernels (one item per requested
    row count) so the regression test can compare the shipped
    (realised-keyed) score against what the buggy normalisation would have
    produced on the same data.  No equipartition deduplication here: under
    requested keying, two row counts with the same collapsed assignment
    land in *different* characteristic cells.
    """
    n = x.size
    order_x = np.argsort(x, kind="stable")
    order_y = np.argsort(y, kind="stable")
    lo, hi = _MIC_MOD._tie_spans(_MIC_MOD._tie_structure(x[order_x]))
    ties = (np.zeros(lo.size, dtype=np.intp), lo, hi)
    y_groups = _MIC_MOD._tie_structure(y[order_y])
    nlogn = _MIC_MOD._nlogn_table(n)
    entries = {}
    for rows in range(2, budget // 2 + 1):
        max_cols = budget // rows
        if max_cols < 2:
            break
        q_sorted = _MIC_MOD._equipartition(y_groups, rows)
        realised = int(q_sorted[-1]) + 1
        if realised < 2:
            continue
        q = np.empty(n, dtype=np.int64)
        q[order_y] = q_sorted
        q_x = q[order_x][None, :]
        bnd, k = _MIC_MOD._batch_boundaries(q_x, *ties)
        k_hat = max(params.clumps_factor * max_cols, 2)
        bnd = _MIC_MOD._superclumps(bnd[0, : k[0] + 1], n, k_hat)[None, :]
        k = np.array([bnd.shape[1] - 1])
        cum = _MIC_MOD._batch_cum_counts(q_x, bnd, realised)
        probs = cum[0, :, -1].astype(float) / n
        h_q = -float(np.sum(probs[probs > 0] * np.log(probs[probs > 0])))
        scratch = _MIC_MOD._Scratch()
        gains = _MIC_MOD._batch_entropy_gains(bnd, cum, nlogn, scratch)
        g = _MIC_MOD._batch_optimize_axis(
            gains, k, np.array([max_cols]), scratch
        )[0]
        for cols in range(2, min(max_cols, int(k[0])) + 1):
            if not np.isfinite(g[cols]):
                continue
            mi = h_q + g[cols] / n
            key = (cols, rows)  # the bug: requested rows, not realised
            if mi > entries.get(key, -np.inf):
                entries[key] = mi
    return entries


def _mic_requested_keying(x, y, params=None):
    """MIC as the pre-fix code computed it (requested-row normalisation)."""
    params = params or MICParameters()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    budget = params.budget(x.size)
    best = 0.0
    for a, b in ((x, y), (y, x)):
        for (cols, rows), mi in _half_characteristic_requested_keying(
            a, b, budget, params
        ).items():
            denom = np.log(min(cols, rows))
            if denom > 0:
                best = max(best, mi / denom)
    return float(min(max(best, 0.0), 1.0))


def _tie_sandwich(n, overlap, jitter, rng):
    """Tied three-level y against a four-cluster x.

    y has levels {0, 1, 2} with the third level holding 60% of the mass, so
    equipartitions requested at higher row counts collapse.  The middle
    level's x positions interleave with the outer levels' clusters, which
    makes the collapsed grids carry real information — exactly the shape
    the requested-row normalisation deflates.
    """
    s = n // 5
    n_a = n_b = s
    n_c = n - 2 * s
    y = np.concatenate([np.zeros(n_a), np.ones(n_b), np.full(n_c, 2.0)])
    n_on_a = int(round(overlap * n_c / 2))
    n_on_b = int(round(overlap * n_c / 2))
    n_p1 = (n_c - n_on_a - n_on_b) // 2
    n_p2 = n_c - n_on_a - n_on_b - n_p1
    x = np.concatenate([
        0.0 + rng.normal(0, jitter, n_a),
        2.0 + rng.normal(0, jitter, n_b),
        0.0 + rng.normal(0, jitter, n_on_a),
        1.0 + rng.normal(0, jitter, n_p1),
        2.0 + rng.normal(0, jitter, n_on_b),
        3.0 + rng.normal(0, jitter, n_p2),
    ])
    return x, y


class TestTieCollapseNormalisation:
    """Regression tests for the tie-collapse normalisation fix.

    ``_equipartition`` keeps tied values together, so the realised row
    count can be smaller than requested.  The characteristic matrix must
    key (and normalise) entries by what the grid actually is: keying by
    the requested count divides a coarse grid's MI by a too-large
    ``log(min(cols, rows))`` and deflates the score.
    """

    def test_fixed_score_beats_requested_keying_on_tied_data(self):
        x, y = _tie_sandwich(200, overlap=0.5, jitter=0.05,
                             rng=np.random.default_rng(4))
        buggy = _mic_requested_keying(x, y)
        fixed = mic(x, y)
        # The fix can only raise scores (same MI, never-larger normaliser),
        # and on this construction the deflation is material.
        assert fixed > buggy + 0.02
        assert fixed == pytest.approx(0.4747, abs=5e-3)

    def test_fix_never_lowers_scores(self, rng):
        for _ in range(10):
            x = rng.choice([0.0, 1.0, 2.0, 3.0], size=120)
            y = rng.choice([0.0, 5.0, 9.0], size=120)
            assert mic(x, y) >= _mic_requested_keying(x, y) - 1e-12

    def test_matches_independent_reference(self):
        x, y = _tie_sandwich(200, overlap=0.5, jitter=0.05,
                             rng=np.random.default_rng(4))
        assert mic(x, y) == pytest.approx(mic_reference(x, y), abs=1e-9)

    def test_binary_y_entries_keyed_by_realised_rows(self, rng):
        """A binary column can only ever realise 2 rows, whatever was
        requested — every plan entry the kernel normalises by must say so."""
        x = rng.uniform(0, 1, 150)
        y = (x > 0.4).astype(float)
        params = MICParameters()
        plan = _MIC_MOD.prepare_column(y, params.budget(x.size), params).plan
        # The sweep requested row counts well above 2; the column budgets
        # differ, so the collapsed assignments stay distinct entries.
        assert len(plan) > 1
        assert all(rows == 2 for (_cols, _q, rows, _h) in plan)

    def test_sparse_binary_normalised_by_realised_grid(self):
        """90%-zeros metric perfectly associated with its own indicator:
        the only realisable grid is 2x2, so MIC is exactly H(0.9, 0.1) /
        log 2 — the buggy keying divided by log of the requested rows."""
        x = np.repeat([0.0, 1.0], [180, 20])
        y = 5.0 * x
        expected = (
            -(0.9 * np.log(0.9) + 0.1 * np.log(0.1)) / np.log(2.0)
        )
        assert mic(x, y) == pytest.approx(expected, abs=1e-9)


class TestMicMatrix:
    def test_shape_symmetry_diagonal(self, rng):
        data = rng.normal(size=(60, 4))
        m = mic_matrix_fast(data)
        assert m.shape == (4, 4)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)

    def test_coupled_columns_score_high(self, rng):
        base = rng.uniform(0, 1, 80)
        data = np.column_stack(
            [base, base * 2 + 1, rng.uniform(0, 1, 80)]
        )
        m = mic_matrix_fast(data)
        assert m[0, 1] >= 0.9
        assert m[0, 2] < m[0, 1]

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            mic_matrix_fast(rng.normal(size=30))
