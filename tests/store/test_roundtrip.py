"""The registry round-trip contract (tier-1).

A pipeline trained in one process, persisted via :class:`DirectoryStore`,
and reloaded into a fresh :class:`InvarNetX` must produce *identical*
results on the same runs as the original in-memory pipeline: same
anomaly report, same ranked causes, same scores.  The XML codecs
round-trip floats through ``repr``, so equality here is exact, not
approximate.
"""

import numpy as np
import pytest

from repro.core import InvarNetX, OperationContext
from repro.core.online import DiagnosisEvent, OnlineMonitor
from repro.faults.spec import FaultSpec, build_fault
from repro.store import ContextModels, DirectoryStore


@pytest.fixture()
def faulty_run(cluster):
    fault = build_fault("CPU-hog", FaultSpec("slave-1", 40, 30))
    return cluster.run("wordcount", faults=[fault], seed=7100)


@pytest.fixture()
def registry(tmp_path, trained_pipeline, wordcount_context):
    """The trained pipeline's context published to an on-disk registry."""
    store = DirectoryStore(tmp_path / "registry")
    key = wordcount_context.key()
    store.adopt(key, trained_pipeline.context_models(wordcount_context))
    store.persist(key)
    return store


def assert_same_diagnosis(original, reloaded) -> None:
    assert reloaded.detected == original.detected
    assert reloaded.anomaly.problem_ticks == original.anomaly.problem_ticks
    assert np.array_equal(
        reloaded.anomaly.residuals, original.anomaly.residuals,
        equal_nan=True,
    )
    assert np.array_equal(
        reloaded.anomaly.anomalous, original.anomaly.anomalous
    )
    assert reloaded.root_cause == original.root_cause
    if original.inference is not None:
        assert reloaded.inference is not None
        assert [
            (c.problem, c.score) for c in reloaded.inference.causes
        ] == [(c.problem, c.score) for c in original.inference.causes]
        assert np.array_equal(
            reloaded.inference.violations, original.inference.violations
        )


class TestDirectoryStoreRoundTrip:
    def test_identical_diagnosis_after_restart(
        self, registry, trained_pipeline, wordcount_context, faulty_run
    ):
        """Train -> publish -> 'restart' -> load -> identical verdicts."""
        fresh = InvarNetX.attached_to(DirectoryStore(registry.root))
        assert fresh.is_trained(wordcount_context)
        original = trained_pipeline.diagnose_run(wordcount_context, faulty_run)
        reloaded = fresh.diagnose_run(wordcount_context, faulty_run)
        assert original.detected  # the contract is vacuous otherwise
        assert_same_diagnosis(original, reloaded)

    def test_identical_on_healthy_run(
        self, registry, trained_pipeline, wordcount_context, cluster
    ):
        healthy = cluster.run("wordcount", seed=7101)
        fresh = InvarNetX.attached_to(DirectoryStore(registry.root))
        assert_same_diagnosis(
            trained_pipeline.diagnose_run(wordcount_context, healthy),
            fresh.diagnose_run(wordcount_context, healthy),
        )

    def test_streaming_monitor_from_registry(
        self, registry, trained_pipeline, wordcount_context, faulty_run
    ):
        """A monitor in a process that never trained matches the original."""
        node = faulty_run.node("slave-1")
        fresh = InvarNetX.attached_to(DirectoryStore(registry.root))
        events_orig = OnlineMonitor(
            trained_pipeline, wordcount_context
        ).run_stream(node.metrics, node.cpi)
        events_fresh = OnlineMonitor(fresh, wordcount_context).run_stream(
            node.metrics, node.cpi
        )
        assert len(events_fresh) == len(events_orig)
        for a, b in zip(events_orig, events_fresh):
            assert a.tick == b.tick
            if isinstance(a, DiagnosisEvent):
                assert isinstance(b, DiagnosisEvent)
                assert b.root_cause == a.root_cause
                assert [
                    (c.problem, c.score) for c in b.inference.causes
                ] == [(c.problem, c.score) for c in a.inference.causes]


class TestFlatSaveLoadRoundTrip:
    def test_load_context_restores_diagnosis(
        self, tmp_path, trained_pipeline, wordcount_context, faulty_run
    ):
        """save_context finally has its load counterpart."""
        written = trained_pipeline.save_context(wordcount_context, tmp_path)
        assert len(written) == 3
        fresh = InvarNetX()
        models = fresh.load_context(wordcount_context, tmp_path)
        assert models.trained and len(models.database) > 0
        assert_same_diagnosis(
            trained_pipeline.diagnose_run(wordcount_context, faulty_run),
            fresh.diagnose_run(wordcount_context, faulty_run),
        )

    def test_load_context_without_artifacts_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            InvarNetX().load_context(
                OperationContext("wordcount", "slave-1"), tmp_path
            )


class TestTrainingPublishesAsItGoes:
    def test_training_against_directory_store_persists(
        self, tmp_path, cluster, wordcount_context, wordcount_runs
    ):
        """With a durable store attached, training needs no explicit save:
        every module's output is published the moment it is trained."""
        store = DirectoryStore(tmp_path / "auto")
        pipe = InvarNetX.attached_to(store)
        pipe.train_from_runs(wordcount_context, wordcount_runs[:3])
        entry = store.entries()[wordcount_context.key()]
        assert "model" in entry["artifacts"]
        assert "invariants" in entry["artifacts"]
        fault = build_fault("Mem-hog", FaultSpec("slave-1", 30, 30))
        run = cluster.run("wordcount", faults=[fault], seed=7102)
        pipe.train_signature_from_run(wordcount_context, "Mem-hog", run)
        entry = store.entries()[wordcount_context.key()]
        assert "signatures" in entry["artifacts"]
        # and a restarted pipeline can name the problem it never learned
        fresh = InvarNetX.attached_to(DirectoryStore(tmp_path / "auto"))
        assert fresh.known_problems(wordcount_context) == ["Mem-hog"]
