"""Unit tests for Algorithm 1 and violation checking (§3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inference import CauseInferenceEngine
from repro.core.invariants import (
    EPSILON,
    TAU,
    AssociationMatrix,
    InvariantSet,
    InvariantTracker,
    select_invariants,
)
from repro.core.signatures import SignatureDatabase
from repro.telemetry.metrics import MetricCatalog

CAT3 = MetricCatalog(names=("a", "b", "c"))


def _matrix(values):
    return AssociationMatrix(values=np.asarray(values, float), catalog=CAT3)


class TestAssociationMatrix:
    def test_from_samples_shape(self, rng):
        samples = rng.uniform(0, 1, size=(40, 3))
        m = AssociationMatrix.from_samples(samples, catalog=CAT3)
        assert m.values.shape == (3, 3)

    def test_from_samples_detects_coupling(self, rng):
        base = rng.uniform(0, 1, 60)
        samples = np.column_stack([base, 2 * base, rng.uniform(0, 1, 60)])
        m = AssociationMatrix.from_samples(samples, catalog=CAT3)
        assert m.score("a", "b") > 0.9
        assert m.score("a", "c") < m.score("a", "b")

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(ValueError):
            AssociationMatrix.from_samples(
                rng.uniform(0, 1, (40, 5)), catalog=CAT3
            )

    def test_wrong_matrix_shape_rejected(self):
        with pytest.raises(ValueError):
            AssociationMatrix(values=np.eye(4), catalog=CAT3)


class TestAlgorithm1:
    def test_paper_defaults(self):
        assert TAU == 0.2
        assert EPSILON == 0.2

    def test_stable_pair_selected_with_max_value(self):
        runs = [
            _matrix([[1, 0.80, 0.1], [0.80, 1, 0.5], [0.1, 0.5, 1]]),
            _matrix([[1, 0.90, 0.4], [0.90, 1, 0.5], [0.4, 0.5, 1]]),
            _matrix([[1, 0.85, 0.7], [0.85, 1, 0.5], [0.7, 0.5, 1]]),
        ]
        inv = select_invariants(runs, tau=0.2, catalog=CAT3)
        # (a,b) spread 0.10 < tau -> kept with I = max = 0.90
        # (a,c) spread 0.60 -> dropped; (b,c) spread 0 -> kept at 0.5
        assert inv.pairs == [(0, 1), (1, 2)]
        assert inv.baseline[0] == pytest.approx(0.90)
        assert inv.baseline[1] == pytest.approx(0.50)

    def test_boundary_spread_excluded(self):
        """max - min == tau is NOT < tau (Algorithm 1 strict inequality).

        Values chosen to be exactly representable in binary floating point
        so the boundary is hit exactly.
        """
        runs = [
            _matrix([[1, 0.25, 0], [0.25, 1, 0], [0, 0, 1]]),
            _matrix([[1, 0.5, 0], [0.5, 1, 0], [0, 0, 1]]),
        ]
        inv = select_invariants(runs, tau=0.25, catalog=CAT3)
        assert (0, 1) not in inv.pairs

    def test_zero_invariants_kept(self):
        """A pair silent in every run is a stable MIC=0 invariant."""
        runs = [_matrix(np.eye(3)) for _ in range(3)]
        inv = select_invariants(runs, catalog=CAT3)
        assert len(inv) == 3
        assert np.allclose(inv.baseline, 0.0)

    def test_single_run_keeps_everything(self):
        inv = select_invariants(
            [_matrix([[1, 0.3, 0.9], [0.3, 1, 0.6], [0.9, 0.6, 1]])],
            catalog=CAT3,
        )
        assert len(inv) == 3

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            select_invariants([])

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            select_invariants([_matrix(np.eye(3))], tau=0.0)

    def test_accepts_raw_arrays(self):
        inv = select_invariants([np.eye(3)], catalog=CAT3)
        assert len(inv) == 3


class TestShapeValidation:
    """A matrix whose shape disagrees with the catalog must be rejected —
    stacking it silently would mis-align every metric pair."""

    def test_too_large_raw_array_rejected(self):
        with pytest.raises(ValueError, match="association matrix 1"):
            select_invariants([np.eye(3), np.eye(4)], catalog=CAT3)

    def test_too_small_raw_array_rejected(self):
        with pytest.raises(ValueError, match=r"expected \(3, 3\)"):
            select_invariants([np.eye(2)], catalog=CAT3)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            select_invariants([np.zeros((3, 4))], catalog=CAT3)

    def test_mismatched_against_inferred_catalog(self):
        """Catalog inferred from the first AssociationMatrix still guards
        the raw arrays that follow it."""
        with pytest.raises(ValueError):
            select_invariants([_matrix(np.eye(3)), np.eye(4)])

    def test_matching_raw_arrays_accepted(self):
        inv = select_invariants([np.eye(3), np.eye(3)], catalog=CAT3)
        assert len(inv) == 3


_SCORE = st.floats(0.0, 1.0, width=32, allow_nan=False)


def _runs_strategy():
    """1-5 runs of symmetric 3x3 association matrices."""
    triple = st.tuples(_SCORE, _SCORE, _SCORE)
    return st.lists(triple, min_size=1, max_size=5)


class TestTrackerMatchesBatch:
    @given(_runs_strategy())
    @settings(max_examples=50, deadline=None)
    def test_incremental_equals_batch(self, triples):
        runs = []
        for ab, ac, bc in triples:
            runs.append(
                np.array(
                    [[1.0, ab, ac], [ab, 1.0, bc], [ac, bc, 1.0]]
                )
            )
        batch = select_invariants(runs, catalog=CAT3)
        tracker = InvariantTracker(catalog=CAT3)
        for run in runs:
            tracker.add_run(run)
        incremental = tracker.current()
        assert incremental.pairs == batch.pairs
        assert np.array_equal(incremental.baseline, batch.baseline)

    def test_tracker_rejects_mismatched_shape(self):
        tracker = InvariantTracker(catalog=CAT3)
        with pytest.raises(ValueError):
            tracker.add_run(np.eye(4))

    def test_tracker_requires_runs(self):
        with pytest.raises(RuntimeError):
            InvariantTracker(catalog=CAT3).current()


class TestArraySelectionMatchesDefinition:
    """Algorithm 1 as array operations equals the per-pair definition,
    bit for bit, on the full 26-metric catalog."""

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 5),
        st.sampled_from([1, 2, None]),
    )
    @settings(max_examples=30, deadline=None)
    def test_pairs_baselines_spreads_and_observed(self, seed, runs, digits):
        from repro.core.pipeline import _invariant_spreads

        catalog = MetricCatalog()
        m = len(catalog)
        r = np.random.default_rng(seed)
        mats = []
        for _ in range(runs):
            a = r.uniform(0, 1, (m, m))
            if digits is not None:
                a = np.round(a, digits)  # spreads land on tau exactly
            a = np.triu(a, 1)
            mats.append(a + a.T + np.eye(m))
        stack = np.stack(mats)
        want_pairs, want_base, want_spread = [], [], []
        for i, j in catalog.pairs():
            v = stack[:, i, j]
            if float(v.max() - v.min()) < TAU:
                want_pairs.append((i, j))
                want_base.append(float(v.max()))
                want_spread.append(round(float(v.max() - v.min()), 6))
        got = select_invariants(mats, catalog=catalog)
        assert got.pairs == want_pairs
        assert got.baseline.tobytes() == np.asarray(want_base).tobytes()
        tracker = InvariantTracker(catalog=catalog)
        for mat in mats:
            tracker.add_run(mat)
        assert tracker.current().pairs == want_pairs
        assert tracker.current().baseline.tobytes() == got.baseline.tobytes()
        assert _invariant_spreads(mats, got) == want_spread
        abnormal = AssociationMatrix(values=mats[0], catalog=catalog)
        assert got.observed(abnormal).tolist() == [
            mats[0][i, j] for i, j in want_pairs
        ]


class TestViolations:
    @pytest.fixture()
    def invariants(self):
        return InvariantSet(
            pairs=[(0, 1), (1, 2)],
            baseline=np.array([0.9, 0.0]),
            catalog=CAT3,
        )

    def test_violation_when_association_drops(self, invariants):
        abnormal = _matrix([[1, 0.4, 0], [0.4, 1, 0.05], [0, 0.05, 1]])
        flags = invariants.violations(abnormal)
        assert list(flags) == [True, False]

    def test_violation_when_silent_pair_activates(self, invariants):
        abnormal = _matrix([[1, 0.85, 0], [0.85, 1, 0.6], [0, 0.6, 1]])
        flags = invariants.violations(abnormal)
        assert list(flags) == [False, True]

    def test_epsilon_boundary_is_violation(self, invariants):
        """|I - A| >= epsilon counts (§2 uses >=)."""
        abnormal = _matrix([[1, 0.7, 0], [0.7, 1, 0.0], [0, 0.0, 1]])
        flags = invariants.violations(abnormal, epsilon=0.2)
        assert flags[0]  # |0.9 - 0.7| == 0.2 -> violated

    def test_violated_pair_names(self, invariants):
        """Inference's hints: the names of the violated pairs."""
        abnormal = _matrix([[1, 0.1, 0], [0.1, 1, 0], [0, 0, 1]])
        engine = CauseInferenceEngine(invariants, SignatureDatabase())
        names = engine.infer(abnormal).hints
        assert names == [("a", "b")]

    def test_invalid_epsilon(self, invariants):
        abnormal = _matrix(np.eye(3))
        with pytest.raises(ValueError):
            invariants.violations(abnormal, epsilon=0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InvariantSet(pairs=[(0, 1)], baseline=np.array([0.5, 0.6]))

    def test_pair_names(self, invariants):
        assert invariants.pair_names() == [("a", "b"), ("b", "c")]
