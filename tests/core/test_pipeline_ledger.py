"""Integration tests: the pipeline's run-ledger trail.

A pipeline over a :class:`DirectoryStore` records every train /
signature / diagnose pass into the store's colocated ledger; a
:class:`MemoryStore` pipeline records nothing unless handed an explicit
:class:`RunLedger`.  These tests drive the real pipeline end to end and
read the trail back.
"""

import pytest

import repro.obs as obs
from repro.core import InvarNetX, OperationContext
from repro.core.orchestrator import ClusterDiagnoser
from repro.faults.spec import FaultSpec, build_fault
from repro.obs.ledger import RunLedger
from repro.store import DirectoryStore, MemoryStore

WORKLOAD = "grep"
NODE = "slave-1"


@pytest.fixture(scope="module")
def grep_runs(cluster):
    return [cluster.run(WORKLOAD, seed=300 + i) for i in range(6)]


@pytest.fixture(scope="module")
def faulty_run(cluster):
    fault = build_fault("CPU-hog", FaultSpec(NODE, 30, 30))
    return cluster.run(WORKLOAD, faults=[fault], seed=400)


@pytest.fixture(scope="module")
def healthy_run(cluster):
    return cluster.run(WORKLOAD, seed=402)


@pytest.fixture(scope="module")
def grep_context(cluster):
    return OperationContext(WORKLOAD, NODE, cluster.ip_of(NODE))


@pytest.fixture(scope="module")
def ledgered(
    tmp_path_factory, cluster, grep_runs, faulty_run, healthy_run,
    grep_context,
):
    """A trained DirectoryStore pipeline with a full ledger trail:
    train, one signature, one faulty diagnosis, one healthy one."""
    store = DirectoryStore(tmp_path_factory.mktemp("registry"))
    pipe = InvarNetX(store=store)
    pipe.train_from_runs(grep_context, grep_runs)
    pipe.train_signature_from_run(grep_context, "CPU-hog", faulty_run)
    pipe.diagnose_run(grep_context, faulty_run)
    pipe.diagnose_run(grep_context, healthy_run)
    return pipe


class TestActivationPolicy:
    def test_directory_store_gets_colocated_ledger(self, tmp_path):
        store = DirectoryStore(tmp_path)
        pipe = InvarNetX(store=store)
        assert isinstance(pipe.ledger, RunLedger)
        assert pipe.ledger.path == store.ledger_path
        assert pipe.ledger is store.ledger()  # one shared handle

    def test_memory_store_defaults_to_no_ledger(self):
        assert InvarNetX().ledger is None
        assert InvarNetX(store=MemoryStore()).ledger is None

    def test_ledger_true_requires_a_colocated_ledger(self):
        with pytest.raises(ValueError, match="colocated ledger"):
            InvarNetX(store=MemoryStore(), ledger=True)

    def test_ledger_false_disables_recording(
        self, tmp_path, cluster, grep_runs, grep_context
    ):
        store = DirectoryStore(tmp_path)
        pipe = InvarNetX(store=store, ledger=False)
        assert pipe.ledger is None
        pipe.train_from_runs(grep_context, grep_runs)
        assert not store.ledger_path.exists()

    def test_explicit_ledger_wins_over_store_default(self, tmp_path):
        elsewhere = RunLedger(tmp_path / "elsewhere.jsonl")
        pipe = InvarNetX(
            store=DirectoryStore(tmp_path / "reg"), ledger=elsewhere
        )
        assert pipe.ledger is elsewhere


class TestRecordedTrail:
    def test_train_entry(self, ledgered, grep_context):
        entry = ledgered.ledger.last(kind="train")
        assert entry["context"] == list(grep_context.key())
        assert entry["fingerprint"] == ledgered.fingerprint
        assert entry["runs"] == 6
        assert entry["invariants"] > 0
        assert entry["residual_summary"]["count"] > 0
        assert entry["residual_summary"]["p90"] > 0
        assert len(entry["invariant_spread"]) == entry["invariants"]
        assert all(0 <= s < 0.2 for s in entry["invariant_spread"])
        assert entry["stage_timings"]["pipeline.train_from_runs"] > 0

    def test_signature_entry(self, ledgered):
        entry = ledgered.ledger.last(kind="signature")
        assert entry["problem"] == "CPU-hog"
        assert 0 < entry["violated"] <= entry["tuple_length"]

    def test_diagnose_entries(self, ledgered):
        faulty, healthy = ledgered.ledger.entries(kind="diagnose")
        assert faulty["detected"] is True
        assert faulty["first_problem_tick"] is not None
        assert faulty["top_cause"] == "CPU-hog"
        assert 0 < faulty["top_score"] <= 1
        assert healthy["detected"] is False
        assert healthy["first_problem_tick"] is None
        assert "top_cause" not in healthy
        # Both summarise normal-regime residuals for the drift watchdog.
        for entry in (faulty, healthy):
            assert entry["residual_summary"]["count"] > 0
            assert entry["stage_timings"]["pipeline.diagnose_run"] > 0

    def test_seq_orders_the_whole_trail(self, ledgered):
        entries = ledgered.ledger.entries()
        kinds = [e["kind"] for e in entries]
        assert kinds == ["train", "signature", "diagnose", "diagnose"]
        assert [e["seq"] for e in entries] == [1, 2, 3, 4]

    def test_borrowed_tracer_left_disabled_and_empty(
        self, ledgered, healthy_run, grep_context
    ):
        """Ledger stage timings borrow the process tracer; the user-facing
        trace state must come back exactly as configured (off, no spans
        retained)."""
        tracer = obs.tracer()
        assert not tracer.enabled
        before = len(tracer.roots())
        ledgered.diagnose_run(grep_context, healthy_run)
        assert not tracer.enabled
        assert len(tracer.roots()) == before

    def test_no_metrics_snapshot_when_obs_disabled(self, ledgered):
        assert all("metrics" not in e for e in ledgered.ledger.entries())


class TestWarmRestart:
    def test_attached_pipeline_continues_the_history(
        self, ledgered, healthy_run, grep_context
    ):
        store = DirectoryStore(ledgered.ledger.path.parent)
        warm = InvarNetX.attached_to(store)
        assert warm.ledger is not None
        previous = warm.ledger.entries()
        assert [e["seq"] for e in previous] == list(
            range(1, len(previous) + 1)
        )
        assert previous[0]["kind"] == "train"
        result = warm.diagnose_run(grep_context, healthy_run)
        assert not result.detected
        latest = warm.ledger.last()
        assert latest["kind"] == "diagnose"
        assert latest["seq"] == previous[-1]["seq"] + 1

    def test_memory_store_with_explicit_ledger_records(
        self, tmp_path, grep_runs, grep_context
    ):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        pipe = InvarNetX(store=MemoryStore(), ledger=ledger)
        pipe.train_from_runs(grep_context, grep_runs)
        entry = ledger.last(kind="train")
        assert entry is not None
        assert entry["context"] == list(grep_context.key())


class TestClusterDiagnoser:
    def test_cluster_diagnosis_appends_an_entry(
        self, tmp_path, grep_runs, faulty_run
    ):
        store = DirectoryStore(tmp_path)
        diagnoser = ClusterDiagnoser(store=store, node_ids=[NODE])
        diagnoser.train(grep_runs)
        diagnoser.train_signature("CPU-hog", faulty_run, NODE)
        out = diagnoser.diagnose(faulty_run)
        entry = diagnoser.pipeline.ledger.last(kind="cluster-diagnose")
        assert entry["workload"] == WORKLOAD
        assert entry["nodes"] == 1
        assert entry["faulty_nodes"] == [NODE]
        assert entry["verdict"] == [NODE, "CPU-hog"]
        assert entry["fingerprint"] == diagnoser.pipeline.fingerprint
        assert out.faulty_nodes == [NODE]


class TestConfigFingerprint:
    def test_default_fingerprint_is_pinned(self):
        """Every ledger entry and incident bundle carries the default
        config's fingerprint; if it moves, fingerprint continuity and the
        replay of existing bundles break."""
        assert InvarNetX().fingerprint == "9bd069959b5b", (
            "the default InvarNetXConfig fingerprint moved: a removed "
            "field must stay in RETIRED_CONFIG_FIELDS at its old default, "
            "and a new field changes every persisted fingerprint"
        )
