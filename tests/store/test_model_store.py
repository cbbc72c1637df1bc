"""Unit tests for the model-registry backends."""

import json

import numpy as np
import pytest

from repro.core.anomaly import AnomalyDetector, DriftThreshold, ThresholdRule
from repro.core.context import GLOBAL_CONTEXT, OperationContext
from repro.core.invariants import InvariantSet
from repro.core.signatures import SignatureDatabase
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.store import (
    ContextModels,
    DirectoryStore,
    MemoryStore,
    StoreError,
)
from repro.store.directory import context_dirname, parse_dirname
from repro.telemetry.metrics import MetricCatalog

CTX = OperationContext("wordcount", "slave-1", "10.0.0.11")


def make_models(context=CTX) -> ContextModels:
    """A small fully-populated slot built without any training."""
    model = ARIMAModel(
        order=ARIMAOrder(2, 1, 1),
        ar=np.array([0.5, -0.2]),
        ma=np.array([0.3]),
        intercept=0.01,
        sigma2=0.002,
    )
    detector = AnomalyDetector.from_artifacts(
        model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.15)
    )
    catalog = MetricCatalog(names=("a", "b", "c", "d"))
    invariants = InvariantSet(
        pairs=[(0, 1), (2, 3)],
        baseline=np.array([0.85, 0.4]),
        catalog=catalog,
    )
    database = SignatureDatabase()
    database.add(
        np.array([True, False]), "CPU-hog",
        ip=context.ip, workload=context.workload,
    )
    return ContextModels(
        context=context,
        detector=detector,
        invariants=invariants,
        database=database,
    )


def assert_models_equal(a: ContextModels, b: ContextModels) -> None:
    assert a.detector is not None and b.detector is not None
    assert a.detector.model is not None and b.detector.model is not None
    assert a.detector.model.order == b.detector.model.order
    assert np.array_equal(a.detector.model.ar, b.detector.model.ar)
    assert np.array_equal(a.detector.model.ma, b.detector.model.ma)
    assert a.detector.threshold == b.detector.threshold
    assert a.invariants is not None and b.invariants is not None
    assert a.invariants.pairs == b.invariants.pairs
    assert np.array_equal(a.invariants.baseline, b.invariants.baseline)
    assert [s.problem for s in a.database.signatures] == [
        s.problem for s in b.database.signatures
    ]
    assert [s.violations for s in a.database.signatures] == [
        s.violations for s in b.database.signatures
    ]


class TestContextModels:
    def test_untrained(self):
        models = ContextModels()
        assert not models.trained
        assert models.artifacts() == []

    def test_trained_and_artifacts(self):
        models = make_models()
        assert models.trained
        assert models.artifacts() == ["model", "invariants", "signatures"]


class TestMemoryStore:
    def test_slot_creates_and_returns_same_object(self):
        store = MemoryStore()
        slot = store.slot(CTX.key(), CTX)
        assert slot.context == CTX
        assert store.slot(CTX.key()) is slot
        assert store.keys() == [CTX.key()]
        assert CTX.key() in store

    def test_peek_does_not_create(self):
        store = MemoryStore()
        assert store.peek(CTX.key()) is None
        assert store.keys() == []

    def test_persist_is_noop_without_backing(self):
        store = MemoryStore()
        store.slot(CTX.key(), CTX)
        assert store.persist(CTX.key()) == []


class TestDirectoryStore:
    def test_empty_registry(self, tmp_path):
        store = DirectoryStore(tmp_path)
        assert store.keys() == []
        assert store.peek(CTX.key()) is None
        assert store.revision(CTX.key()) == 0

    def test_persist_unknown_key_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="no resident slot"):
            DirectoryStore(tmp_path).persist(CTX.key())

    def test_persist_writes_artifacts_and_manifest(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.adopt(CTX.key(), make_models())
        written = store.persist(CTX.key())
        assert sorted(p.name for p in written) == [
            "invariants.xml", "model.xml", "signatures.xml",
        ]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entry = manifest["contexts"][context_dirname(CTX.key())]
        assert entry["workload"] == "wordcount"
        assert entry["node"] == "slave-1"
        assert entry["ip"] == "10.0.0.11"
        assert entry["revision"] == 1

    def test_revision_bumps_on_each_publish(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.adopt(CTX.key(), make_models())
        store.persist(CTX.key())
        store.persist(CTX.key())
        assert store.revision(CTX.key()) == 2

    def test_lazy_load_round_trip(self, tmp_path):
        original = make_models()
        first = DirectoryStore(tmp_path)
        first.adopt(CTX.key(), original)
        first.persist(CTX.key())
        # a fresh instance sees the context in the manifest and loads the
        # XML only when the slot is actually requested
        second = DirectoryStore(tmp_path)
        assert second.keys() == [CTX.key()]
        assert second.resident_keys() == []
        assert_models_equal(second.slot(CTX.key()), original)
        assert second.resident_keys() == [CTX.key()]

    def test_partial_slot_round_trip(self, tmp_path):
        partial = make_models()
        partial.invariants = None
        partial.database = SignatureDatabase()
        store = DirectoryStore(tmp_path)
        store.adopt(CTX.key(), partial)
        written = store.persist(CTX.key())
        assert [p.name for p in written] == ["model.xml"]
        loaded = DirectoryStore(tmp_path).slot(CTX.key())
        assert loaded.detector is not None
        assert loaded.invariants is None
        assert len(loaded.database) == 0

    def test_stale_artifacts_removed_on_republish(self, tmp_path):
        store = DirectoryStore(tmp_path)
        models = make_models()
        store.adopt(CTX.key(), models)
        store.persist(CTX.key())
        sig_path = (
            tmp_path / "contexts" / context_dirname(CTX.key())
            / "signatures.xml"
        )
        assert sig_path.exists()
        models.database = SignatureDatabase()
        store.persist(CTX.key())
        assert not sig_path.exists()
        assert store.entries()[CTX.key()]["artifacts"] == [
            "model", "invariants",
        ]

    def test_discard_removes_entry_and_directory(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.adopt(CTX.key(), make_models())
        store.persist(CTX.key())
        store.discard(CTX.key())
        assert store.keys() == []
        assert not (tmp_path / "contexts" / context_dirname(CTX.key())).exists()
        assert DirectoryStore(tmp_path).keys() == []

    def test_unknown_manifest_format_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": 999, "contexts": {}})
        )
        with pytest.raises(StoreError, match="format"):
            DirectoryStore(tmp_path)

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(StoreError, match="unreadable"):
            DirectoryStore(tmp_path)


class TestContextDirnames:
    @pytest.mark.parametrize(
        "key",
        [
            ("wordcount", "slave-1"),
            GLOBAL_CONTEXT.key(),
            ("odd workload/name", "node@strange__id"),
            ("café", "über-node"),
        ],
    )
    def test_quoting_round_trips(self, key):
        name = context_dirname(key)
        assert "/" not in name
        assert parse_dirname(name) == key

    def test_global_sentinel_persists(self, tmp_path):
        store = DirectoryStore(tmp_path)
        key = GLOBAL_CONTEXT.key()
        store.adopt(key, make_models(GLOBAL_CONTEXT))
        store.persist(key)
        assert DirectoryStore(tmp_path).slot(key).trained

    def test_malformed_dirname_rejected(self):
        with pytest.raises(StoreError, match="malformed"):
            parse_dirname("no-separator")
