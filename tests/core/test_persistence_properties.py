"""Property-based round-trip tests for the XML stores."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.anomaly import DriftThreshold, ThresholdRule
from repro.core.context import OperationContext
from repro.core.invariants import InvariantSet
from repro.core.persistence import (
    load_invariants,
    load_performance_model,
    load_signatures,
    save_invariants,
    save_performance_model,
    save_signatures,
)
from repro.core.signatures import SignatureDatabase
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.telemetry.metrics import MetricCatalog

CTX = OperationContext("wordcount", "slave-1", "10.0.0.11")

_coeff = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def arima_models(draw):
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0, 3))
    d = draw(st.integers(0, 2))
    if p == 0 and q == 0 and d == 0:
        d = 1
    return ARIMAModel(
        order=ARIMAOrder(p, d, q),
        ar=np.asarray([draw(_coeff) for _ in range(p)]),
        ma=np.asarray([draw(_coeff) for _ in range(q)]),
        intercept=draw(_coeff),
        sigma2=draw(st.floats(min_value=1e-9, max_value=10.0)),
    )


@st.composite
def invariant_sets(draw):
    catalog = MetricCatalog()
    all_pairs = catalog.pairs()
    n = draw(st.integers(0, 40))
    idx = draw(
        st.lists(
            st.integers(0, len(all_pairs) - 1),
            min_size=n, max_size=n, unique=True,
        )
    )
    pairs = sorted(all_pairs[i] for i in idx)
    baseline = np.asarray(
        [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in pairs]
    )
    return InvariantSet(pairs=pairs, baseline=baseline, catalog=catalog)


class TestModelRoundtripProperty:
    @given(arima_models())
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_model_roundtrip(self, tmp_path, model):
        path = tmp_path / "m.xml"
        thr = DriftThreshold(ThresholdRule.BETA_MAX, upper=0.2)
        save_performance_model(model, thr, CTX, path)
        loaded, _, _ = load_performance_model(path)
        assert loaded.order == model.order
        assert np.array_equal(loaded.ar, model.ar)
        assert np.array_equal(loaded.ma, model.ma)
        assert loaded.intercept == model.intercept


class TestInvariantRoundtripProperty:
    @given(invariant_sets())
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_invariant_roundtrip(self, tmp_path, inv):
        path = tmp_path / "i.xml"
        save_invariants(inv, CTX, path)
        loaded, _ = load_invariants(path)
        assert loaded.pairs == inv.pairs
        assert np.allclose(loaded.baseline, inv.baseline)


class TestSignatureRoundtripProperty:
    @given(
        st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=5, max_size=5),
                st.sampled_from(["CPU-hog", "Mem-hog", "Lock-R"]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_signature_roundtrip(self, tmp_path, entries):
        db = SignatureDatabase()
        for bits, problem in entries:
            db.add(np.asarray(bits), problem, ip="x", workload="wc")
        path = tmp_path / "s.xml"
        save_signatures(db, path)
        loaded = load_signatures(path)
        assert len(loaded) == len(db)
        for a, b in zip(loaded.signatures, db.signatures):
            assert a.violations == b.violations
            assert a.problem == b.problem

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_rank_survives_roundtrip(self, tmp_path, query_bits):
        rng = np.random.default_rng(7)
        db = SignatureDatabase()
        for problem in ("A", "B", "C"):
            db.add(
                rng.random(len(query_bits)) > 0.5, problem
            )
        path = tmp_path / "s.xml"
        save_signatures(db, path)
        loaded = load_signatures(path)
        query = np.asarray(query_bits)
        assert [r[:2] for r in loaded.best_per_problem(query)] == [
            r[:2] for r in db.best_per_problem(query)
        ]
