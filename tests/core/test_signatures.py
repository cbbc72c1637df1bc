"""Unit tests for the signature database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signatures import (
    Signature,
    SignatureDatabase,
    jaccard_similarity,
    matching_similarity,
)


def _bits(s: str) -> np.ndarray:
    return np.array([c == "1" for c in s])


def _rank(db, violations, measure="matching"):
    """``(problem, score)`` pairs of the database's one ranking."""
    return [
        (problem, score)
        for problem, score, _, _ in db.best_per_problem(violations, measure)
    ]


class TestSimilarities:
    def test_jaccard_identical(self):
        assert jaccard_similarity(_bits("1010"), _bits("1010")) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_similarity(_bits("1100"), _bits("0011")) == 0.0

    def test_jaccard_all_zero_convention(self):
        assert jaccard_similarity(_bits("0000"), _bits("0000")) == 1.0

    def test_matching_counts_agreeing_zeros(self):
        # 3 of 4 positions agree
        assert matching_similarity(_bits("1000"), _bits("1001")) == 0.75

    def test_matching_superset_penalised(self):
        """A broad signature must not swallow a narrow query — the reason
        matching similarity is the default."""
        query = _bits("1100000000")
        narrow = _bits("1100000000")
        broad = _bits("1111111111")
        assert matching_similarity(query, narrow) > matching_similarity(
            query, broad
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            jaccard_similarity(_bits("10"), _bits("100"))

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_self_similarity_is_one(self, bits):
        arr = np.asarray(bits)
        assert matching_similarity(arr, arr) == 1.0
        assert jaccard_similarity(arr, arr) == 1.0

    @given(
        st.lists(st.booleans(), min_size=8, max_size=32),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_symmetric(self, bits, seed):
        a = np.asarray(bits)
        b = np.random.default_rng(seed).random(a.size) > 0.5
        for sim in (matching_similarity, jaccard_similarity):
            v = sim(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(sim(b, a))


class TestSignature:
    def test_empty_problem_rejected(self):
        with pytest.raises(ValueError):
            Signature(violations=(True,), problem="", ip="", workload="")

    def test_as_array(self):
        sig = Signature(
            violations=(True, False), problem="CPU-hog", ip="", workload=""
        )
        assert sig.as_array().dtype == bool
        assert sig.tuple_length == 2


class TestSignatureDatabase:
    @pytest.fixture()
    def db(self):
        db = SignatureDatabase()
        db.add(_bits("110000"), "CPU-hog", ip="10.0.0.1", workload="wc")
        db.add(_bits("110001"), "CPU-hog", ip="10.0.0.1", workload="wc")
        db.add(_bits("001100"), "Mem-hog", ip="10.0.0.1", workload="wc")
        db.add(_bits("111111"), "Suspend", ip="10.0.0.1", workload="wc")
        return db

    def test_problems_first_seen_order(self, db):
        assert db.problems == ["CPU-hog", "Mem-hog", "Suspend"]

    def test_rank_exact_match_first(self, db):
        ranking = _rank(db, _bits("001100"))
        assert ranking[0] == ("Mem-hog", 1.0)

    def test_rank_best_of_multiple_signatures(self, db):
        ranking = _rank(db, _bits("110001"))
        assert ranking[0][0] == "CPU-hog"
        assert ranking[0][1] == 1.0

    def test_rank_jaccard_measure(self, db):
        ranking = _rank(db, _bits("110000"), measure="jaccard")
        assert ranking[0][0] == "CPU-hog"

    def test_unknown_measure_rejected(self, db):
        with pytest.raises(ValueError, match="known:"):
            _rank(db, _bits("110000"), measure="cosine")

    def test_rank_scores_sorted(self, db):
        scores = [s for _, s in _rank(db, _bits("110010"))]
        assert scores == sorted(scores, reverse=True)

    def test_length_mismatch_on_add(self, db):
        with pytest.raises(ValueError):
            db.add(_bits("10"), "X")

    def test_tuple_growth(self, db):
        """The database grows as problems are diagnosed (§3.3)."""
        before = len(db)
        db.add(_bits("000011"), "Net-drop")
        assert len(db) == before + 1

    def test_deterministic_tiebreak(self):
        db = SignatureDatabase()
        db.add(_bits("1100"), "B-fault")
        db.add(_bits("1100"), "A-fault")
        ranking = _rank(db, _bits("1100"))
        assert [p for p, _ in ranking] == ["A-fault", "B-fault"]
