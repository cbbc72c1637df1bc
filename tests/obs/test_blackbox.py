"""Flight recorder, incident bundles, and deterministic replay.

The blackbox contract (DESIGN.md §15): the per-lane ring is bounded and
cheap, the disabled path allocates nothing, the bundle's manifest is the
commit point, commits are content-fingerprinted (idempotent), and
``replay_bundle`` reproduces the recorded diagnosis byte for byte from
the bundle alone — and notices when the bundle was tampered with.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.inference import InferenceResult
from repro.core.invariants import InvariantSet
from repro.core.online import DiagnosisEvent
from repro.obs.blackbox import (
    BUNDLE_FORMAT,
    BUNDLE_MANIFEST,
    DEFAULT_CAPACITY,
    FlightRecorder,
    FlightSnapshot,
    commit_bundle,
    load_bundle,
    replay_bundle,
)
from repro.serve import FleetMonitor, Tick
from repro.serve.incidents import scan_bundles
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.stats.micfast import clear_association_cache
from repro.store import ContextModels
from repro.telemetry.metrics import MetricCatalog

CATALOG = MetricCatalog(names=("m0", "m1", "m2", "m3"))


def last_value_detector() -> AnomalyDetector:
    """ARIMA(0, 1, 0): anomalous when CPI moves > 0.5 from its
    predecessor (the hand-checkable harness of tests/core)."""
    model = ARIMAModel(
        order=ARIMAOrder(0, 1, 0),
        ar=np.empty(0),
        ma=np.empty(0),
        intercept=0.0,
        sigma2=1.0,
    )
    return AnomalyDetector.from_artifacts(
        model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5)
    )


def incident_pipeline(
    contexts: list[OperationContext], store=None
) -> InvarNetX:
    """A real-inference pipeline: last-value detector, two invariant
    pairs, and a disk_hog signature the fault window matches."""
    if store is None:
        pipe = InvarNetX(catalog=CATALOG)
    else:
        pipe = InvarNetX(catalog=CATALOG, store=store)
    for context in contexts:
        invariants = InvariantSet(
            pairs=[(0, 1), (2, 3)],
            baseline=np.array([0.9, 0.8]),
            catalog=CATALOG,
        )
        models = ContextModels(
            context=context,
            detector=last_value_detector(),
            invariants=invariants,
        )
        models.database.add(
            np.array([True, False]), "disk_hog",
            ip=context.ip, workload=context.workload,
        )
        pipe.store.adopt(context.key(), models)
    return pipe


def fault_ticks(
    context: OperationContext, ticks: int, fault_start: int = 14
) -> list[Tick]:
    """One context's tick stream: flat CPI, then a +1/tick ramp from
    ``fault_start`` (never, when it is ``>= ticks``)."""
    return [
        Tick(
            context=context,
            metrics=np.array([1.0, 2.0, 3.0, 4.0]) + t * 0.01,
            cpi=1.0 + (t - fault_start + 1) * 1.0
            if t >= fault_start
            else 1.0,
        )
        for t in range(ticks)
    ]


def drive_fault(
    fleet: FleetMonitor,
    contexts: list[OperationContext],
    faulty: set[tuple[str, str]],
    ticks: int = 40,
    fault_start: int = 14,
) -> list:
    """Ingest a CPI-ramp fault on ``faulty`` contexts; returns events."""
    streams = [
        fault_ticks(
            context, ticks, fault_start if context.key() in faulty else ticks
        )
        for context in contexts
    ]
    events = []
    for t in range(ticks):
        batch = [stream[t] for stream in streams]
        result = fleet.ingest(batch, request_id=f"req-{t:03d}")
        events.extend(result.events)
    return events


@pytest.fixture()
def committed(tmp_path):
    """A fleet that diagnosed a two-node fault with the blackbox on."""
    contexts = [
        OperationContext("wordcount", f"node-{i}", ip=f"10.0.0.{i}")
        for i in range(3)
    ]
    pipe = incident_pipeline(contexts)
    incidents = tmp_path / "incidents"
    fleet = FleetMonitor(
        pipe,
        shards=2,
        window_ticks=8,
        warmup_ticks=12,
        cooldown_ticks=4,
        blackbox_dir=incidents,
    )
    events = drive_fault(
        fleet, contexts, {contexts[0].key(), contexts[1].key()}
    )
    yield fleet, pipe, contexts, incidents, events


def committed_dirs(incidents: Path) -> list[Path]:
    return sorted(
        p for p in incidents.iterdir()
        if p.is_dir() and (p / BUNDLE_MANIFEST).is_file()
    )


class TestFlightRecorder:
    def test_ring_is_bounded_and_keeps_latest(self):
        recorder = FlightRecorder(
            OperationContext("wc", "n0"), capacity=4
        )
        recorder.rows = np.arange(10.0).reshape(10, 1)  # tick t's row: [t]
        for t in range(10):
            recorder.record(t, 1.0, None, "monitoring")
        snap = recorder.snapshot()
        assert len(snap.ticks) == 4
        assert [r.tick for r in snap.ticks] == [6, 7, 8, 9]
        assert [r.metrics for r in snap.ticks] == [
            (6.0,), (7.0,), (8.0,), (9.0,)
        ]
        assert snap.capacity == 4
        assert snap.context == ("wc", "n0")

    def test_transition_ring_is_bounded(self):
        recorder = FlightRecorder(OperationContext("wc", "n0"))
        for t in range(40):
            recorder.note_transition(t, "monitoring", "collecting")
        snap = recorder.snapshot()
        assert len(snap.transitions) == 16
        assert snap.transitions[-1].tick == 39

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(OperationContext("wc", "n0"), capacity=0)

    def test_snapshot_json_round_trip(self):
        recorder = FlightRecorder(
            OperationContext("wc", "n0"), capacity=8, model_revision=3
        )
        recorder.rows = np.tile([1.0, 2.0], (8, 1))
        recorder.record(5, 1.5, True, "monitoring", "req-1")
        recorder.record(6, 9.5, None, "collecting")
        recorder.note_transition(6, "monitoring", "collecting")
        snap = recorder.snapshot()
        restored = FlightSnapshot.from_json(
            json.loads(json.dumps(snap.to_json()))
        )
        assert restored == snap
        assert restored.model_revision == 3
        assert restored.ticks[0].request_id == "req-1"

    def test_disabled_path_allocates_zero_bytes(self):
        """A fleet without a blackbox directory carries no recorder on
        its lanes and allocates nothing in blackbox frames while it
        ingests (same contract as the tracer and profiler)."""
        context = OperationContext("wordcount", "node-0")
        fleet = FleetMonitor(incident_pipeline([context]), shards=1)
        tick = fault_ticks(context, 1)[0]
        fleet.ingest([tick])  # warmup: builds the lane
        tracemalloc.start()
        for _ in range(2000):
            fleet.ingest([tick])
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        assert fleet.lane(context).recorder is None
        blackbox_bytes = sum(
            trace.size
            for trace in snapshot.traces
            if any(
                "repro/obs/blackbox" in f.filename
                for f in trace.traceback
            )
        )
        assert blackbox_bytes == 0

    def test_default_capacity_covers_abnormal_window(self):
        assert DEFAULT_CAPACITY >= 24  # ABNORMAL_WINDOW_TICKS + lead-in


class TestBundleCommit:
    def test_fleet_commits_one_bundle_per_diagnosis(self, committed):
        fleet, _, _, incidents, events = committed
        diagnoses = [
            e for e in events
            if type(e.event).__name__ == "DiagnosisEvent"
        ]
        assert diagnoses
        assert fleet.bundles_committed == len(diagnoses)
        assert len(committed_dirs(incidents)) == len(diagnoses)

    def test_manifest_contents(self, committed):
        _, _, _, incidents, _ = committed
        bundle = load_bundle(committed_dirs(incidents)[0])
        manifest = bundle.manifest
        assert manifest["format"] == BUNDLE_FORMAT
        assert manifest["bundle_id"].startswith("inc-")
        assert manifest["cause"] == "disk_hog"
        assert manifest["matched"] is True
        assert manifest["request_id"].startswith("req-")
        assert manifest["model_revision"] == 0  # adopted, never published
        assert manifest["window_sha256"]
        # every listed file actually exists
        for name in manifest["files"]:
            assert (bundle.path / name).is_file(), name
        # the evidence files are all present
        for required in (
            "flight.json", "window.json", "report.json",
            "explain.txt", "explain.json", "environment.json",
        ):
            assert required in manifest["files"]

    def test_flight_ring_carries_request_ids_and_transitions(
        self, committed
    ):
        _, _, _, incidents, _ = committed
        flight = load_bundle(committed_dirs(incidents)[0]).load_flight()
        assert flight.ticks
        assert all(r.request_id.startswith("req-") for r in flight.ticks)
        # the lane alarmed (entered collection) and diagnosed (entered
        # cool-down) before the bundle was cut
        arcs = {(t.src, t.dst) for t in flight.transitions}
        assert ("monitoring", "collecting") in arcs
        assert ("collecting", "cooldown") in arcs

    def test_commit_is_idempotent(self, committed):
        fleet, pipe, _, incidents, events = committed
        before = committed_dirs(incidents)
        diagnosis = next(
            e for e in events
            if type(e.event).__name__ == "DiagnosisEvent"
        )
        bundle = load_bundle(incidents / _id_of(diagnosis, incidents))
        # marker file: a re-commit must not rewrite the directory
        marker = bundle.path / "explain.txt"
        original = marker.read_text(encoding="utf-8")
        again = commit_bundle(
            incidents,
            pipe,
            diagnosis.context,
            diagnosis.event,
            bundle.load_flight(),
            request_id="different-request",
        )
        assert again.path == bundle.path
        assert again.bundle_id == bundle.bundle_id
        assert committed_dirs(incidents) == before
        assert marker.read_text(encoding="utf-8") == original

    def test_commit_requires_window(self, committed, tmp_path):
        _, pipe, contexts, _, _ = committed
        event = DiagnosisEvent(
            tick=9,
            alarm_tick=6,
            inference=InferenceResult(
                causes=[], violations=np.zeros(2, dtype=bool)
            ),
            window=None,
        )
        snapshot = FlightRecorder(contexts[0]).snapshot()
        with pytest.raises(ValueError, match="window"):
            commit_bundle(
                tmp_path / "other", pipe, contexts[0], event, snapshot
            )

    def test_manifest_is_the_commit_point(self, tmp_path):
        aborted = tmp_path / "incidents" / "inc-deadbeef0000"
        aborted.mkdir(parents=True)
        (aborted / "window.json").write_text("{}", encoding="utf-8")
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            load_bundle(aborted)

    def test_unknown_format_is_rejected(self, committed):
        _, _, _, incidents, _ = committed
        path = committed_dirs(incidents)[0]
        manifest_path = path / BUNDLE_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format"] = BUNDLE_FORMAT + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            load_bundle(path)


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, keyed by its relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestEvidenceCut:
    """The flight ring is cut at the diagnosing tick and travels with the
    event, so what a bundle holds depends on the lane's stream alone."""

    KNOBS = dict(window_ticks=8, warmup_ticks=12, cooldown_ticks=4)

    def test_bundle_survives_same_batch_lane_eviction(self, tmp_path):
        lane_a = OperationContext("wordcount", "node-a", ip="10.0.0.1")
        lane_b = OperationContext("wordcount", "node-b", ip="10.0.0.2")
        incidents = tmp_path / "incidents"
        ticks = fault_ticks(lane_a, 20)  # lane A diagnoses at tick 19
        fleet = FleetMonitor(
            incident_pipeline([lane_a, lane_b]),
            shards=1,
            max_lanes_per_shard=1,
            blackbox_dir=incidents,
            **self.KNOBS,
        )
        fleet.ingest(ticks[:19])
        # lane B's tick evicts lane A right after it diagnosed
        result = fleet.ingest([ticks[19], fault_ticks(lane_b, 1)[0]])
        assert fleet.lane(lane_a) is None
        diagnoses = [
            e for e in result.events
            if isinstance(e.event, DiagnosisEvent)
        ]
        assert len(diagnoses) == 1
        assert fleet.bundles_committed == 1
        retained = dict(fleet.retained_incidents())[lane_a.key()]
        assert retained.bundle_id is not None
        assert [r.bundle_id for r in scan_bundles(incidents)] == [
            retained.bundle_id
        ]

    def test_bundle_bytes_do_not_depend_on_batching(self, tmp_path):
        context = OperationContext("wordcount", "node-0", ip="10.0.0.1")
        # 30 ticks: diagnoses at ticks 19 and 29; in one 256-tick batch
        # the first lands in a ring that has already moved on to tick 29
        stream = fault_ticks(context, 30)
        trees = []
        for batch_size in (1, 256):
            incidents = tmp_path / f"batch-{batch_size}"
            fleet = FleetMonitor(
                incident_pipeline([context]),
                shards=1,
                blackbox_dir=incidents,
                **self.KNOBS,
            )
            result = fleet.run_stream(stream, batch_size=batch_size)
            diagnoses = [
                e for e in result.events
                if isinstance(e.event, DiagnosisEvent)
            ]
            assert [e.event.tick for e in diagnoses] == [19, 29]
            assert len(committed_dirs(incidents)) == 2
            for path in committed_dirs(incidents):
                bundle = load_bundle(path)
                flight = bundle.load_flight()
                assert flight.ticks[-1].tick == bundle.manifest["tick"]
            trees.append(tree_bytes(incidents))
        assert trees[0]
        assert trees[0] == trees[1]


def _id_of(fleet_event, incidents: Path) -> str:
    """The committed dir of one diagnosis (via its retained record)."""
    for path in committed_dirs(incidents):
        manifest = json.loads(
            (path / BUNDLE_MANIFEST).read_text(encoding="utf-8")
        )
        if (
            manifest["context"]["node_id"]
            == fleet_event.context.node_id
            and manifest["alarm_tick"] == fleet_event.event.alarm_tick
        ):
            return path.name
    raise AssertionError("no committed bundle for the diagnosis")


class TestReplay:
    def test_replay_reproduces_byte_for_byte_twice(self, committed):
        _, _, _, incidents, _ = committed
        # the bundles were committed in this process: without this, the
        # first pass would read the diagnosis' matrix from the cache
        clear_association_cache()
        for path in committed_dirs(incidents)[:2]:
            result = replay_bundle(path)  # two passes by default
            assert result.ok, result.mismatches
            assert result.passes == 2
            assert result.causes_match
            assert result.explain_match
            assert result.verdicts_checked > 0
            assert result.verdicts_match
            assert "REPRODUCED" in result.render_text()
            # replay of the replay: still byte-identical
            assert replay_bundle(path).ok

    def test_replay_result_json_shape(self, committed):
        _, _, _, incidents, _ = committed
        doc = replay_bundle(committed_dirs(incidents)[0]).to_json()
        assert doc["ok"] is True
        assert doc["passes"] == 2
        assert doc["mismatches"] == []
        assert doc["context"].startswith("wordcount@")

    def test_replay_detects_tampered_explain(self, committed):
        _, _, _, incidents, _ = committed
        path = committed_dirs(incidents)[0]
        explain = path / "explain.txt"
        explain.write_text(
            explain.read_text(encoding="utf-8").replace(
                "disk_hog", "net_hog"
            ),
            encoding="utf-8",
        )
        result = replay_bundle(path)
        assert not result.ok
        assert not result.explain_match
        assert result.causes_match  # only the report was edited
        assert "DIVERGED" in result.render_text()

    def test_replay_detects_tampered_window(self, committed):
        _, _, _, incidents, _ = committed
        path = committed_dirs(incidents)[0]
        window_path = path / "window.json"
        doc = json.loads(window_path.read_text(encoding="utf-8"))
        doc["window"][0][0] += 1.0
        window_path.write_text(json.dumps(doc), encoding="utf-8")
        result = replay_bundle(path)
        assert not result.ok
        assert any("window bytes" in m for m in result.mismatches)

    def test_replay_validates_passes(self, committed):
        _, _, _, incidents, _ = committed
        with pytest.raises(ValueError, match="passes"):
            replay_bundle(committed_dirs(incidents)[0], passes=0)

    def test_replay_missing_bundle(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            replay_bundle(tmp_path / "nope")
