"""Fleet-wide incident correlation, concurrent alarms, and the
``X-Request-Id`` thread through ledger, span, explain and bundle.

Covers :mod:`repro.serve.incidents` (classification on the paper's
context axes, horizon chaining, rendering) plus the fleet-level
contracts the blackbox adds: no DiagnosisEvent is lost under concurrent
alarms, the bounded incident ring evicts deterministically, and evicted
incidents always have an already-committed bundle on disk.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from collections import Counter

import numpy as np
import pytest

import repro.obs as obs
from repro.core import OperationContext
from repro.core.online import DiagnosisEvent
from repro.obs.blackbox import BUNDLE_MANIFEST, load_bundle
from repro.serve import FleetMonitor, Tick, build_server
from repro.serve.incidents import (
    DEFAULT_HORIZON,
    IncidentRecord,
    classify,
    correlate,
    render_incident_list,
    render_incident_show,
    scan_bundles,
    summarize,
)
from repro.store import DirectoryStore

from tests.obs.test_blackbox import drive_fault, incident_pipeline

MONITOR_KW = dict(window_ticks=8, warmup_ticks=12, cooldown_ticks=4)


def _rec(
    bundle_id: str,
    workload: str,
    node: str,
    alarm: int,
    cause: str | None = "disk_hog",
) -> IncidentRecord:
    return IncidentRecord(
        bundle_id=bundle_id,
        workload=workload,
        node=node,
        alarm_tick=alarm,
        tick=alarm + 3,
        cause=cause,
        matched=cause is not None,
    )


class TestClassify:
    def test_single_context(self):
        group = (_rec("a", "wc", "n0", 5), _rec("b", "wc", "n0", 8))
        assert classify(group) == "single-context"

    def test_shared_workload(self):
        group = (_rec("a", "wc", "n0", 5), _rec("b", "wc", "n1", 6))
        assert classify(group) == "shared-workload"

    def test_shared_node(self):
        group = (_rec("a", "wc", "n0", 5), _rec("b", "sort", "n0", 6))
        assert classify(group) == "shared-node"

    def test_fleet_wide(self):
        group = (
            _rec("a", "wc", "n0", 5),
            _rec("b", "sort", "n1", 6),
            _rec("c", "wc", "n2", 7),
        )
        assert classify(group) == "fleet-wide"


class TestCorrelate:
    def test_empty(self):
        assert correlate([]) == []
        assert summarize([]) == {
            "bundles": 0,
            "platform_incidents": 0,
            "multi_context": 0,
            "classes": {},
        }

    def test_horizon_chains_transitively(self):
        # 10-apart alarms chain pairwise even though first..last > horizon
        records = [_rec(f"r{i}", "wc", f"n{i}", 10 * i) for i in range(5)]
        incidents = correlate(records, horizon=10)
        assert len(incidents) == 1
        assert incidents[0].first_alarm == 0
        assert incidents[0].last_alarm == 40

    def test_gap_beyond_horizon_splits(self):
        records = [
            _rec("a", "wc", "n0", 10),
            _rec("b", "wc", "n1", 15),
            _rec("c", "wc", "n0", 80),
        ]
        incidents = correlate(records, horizon=30)
        assert [i.incident_id for i in incidents] == ["P01", "P02"]
        assert len(incidents[0].records) == 2
        assert incidents[1].classification == "single-context"

    def test_horizon_zero_requires_same_tick(self):
        records = [_rec("a", "wc", "n0", 5), _rec("b", "wc", "n1", 6)]
        assert len(correlate(records, horizon=0)) == 2

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            correlate([], horizon=-1)

    def test_summary_counts_classes(self):
        records = [
            _rec("a", "wc", "n0", 10),
            _rec("b", "wc", "n1", 12),
            _rec("c", "sort", "n5", 200),
        ]
        summary = summarize(records)
        assert summary == {
            "bundles": 3,
            "platform_incidents": 2,
            "multi_context": 1,
            "classes": {"shared-workload": 1, "single-context": 1},
        }


class TestRendering:
    def test_list_and_show_are_deterministic(self):
        records = [
            _rec("inc-b", "wc", "n1", 12),
            _rec("inc-a", "wc", "n0", 10),
        ]
        incidents = correlate(records)
        listed = render_incident_list(incidents)
        assert listed == render_incident_list(correlate(list(records)))
        assert listed.startswith("P01  shared-workload")
        assert "2 bundle(s)" in listed
        shown = render_incident_show(incidents[0])
        assert "causes: disk_hog" in shown
        assert "contexts: wc@n0, wc@n1" in shown
        # members are listed alarm-order first
        assert shown.index("inc-a") < shown.index("inc-b")

    def test_empty_list_renders_placeholder(self):
        assert render_incident_list([]) == "no platform incidents"


class TestScanBundles:
    def test_missing_root_is_empty(self, tmp_path):
        assert scan_bundles(tmp_path / "nope") == []

    def test_aborted_commits_are_skipped(self, tmp_path):
        contexts = [
            OperationContext("wordcount", f"node-{i}", ip=f"10.0.0.{i}")
            for i in range(2)
        ]
        incidents = tmp_path / "incidents"
        fleet = FleetMonitor(
            incident_pipeline(contexts),
            shards=2,
            blackbox_dir=incidents,
            **MONITOR_KW,
        )
        drive_fault(fleet, contexts, {contexts[0].key()}, ticks=22)
        committed = scan_bundles(incidents)
        assert committed
        # an aborted attempt: directory without the manifest commit point
        aborted = incidents / "inc-aborted00000"
        aborted.mkdir()
        (aborted / "window.json").write_text("{}", encoding="utf-8")
        assert scan_bundles(incidents) == committed


class TestFleetCorrelation:
    def _run_fleet(self, tmp_path, contexts, faulty):
        incidents = tmp_path / "incidents"
        fleet = FleetMonitor(
            incident_pipeline(contexts),
            shards=2,
            blackbox_dir=incidents,
            **MONITOR_KW,
        )
        drive_fault(fleet, contexts, faulty)
        return incidents

    def test_multi_context_fault_is_one_platform_incident(self, tmp_path):
        """The acceptance bar: a fault spanning contexts correlates into
        ONE platform incident, not N per-lane singletons."""
        contexts = [
            OperationContext("wordcount", f"node-{i}", ip=f"10.0.0.{i}")
            for i in range(3)
        ]
        incidents_dir = self._run_fleet(
            tmp_path, contexts, {contexts[0].key(), contexts[1].key()}
        )
        records = scan_bundles(incidents_dir)
        assert len(records) == 6  # 3 alarms per faulty lane
        incidents = correlate(records)
        assert len(incidents) == 1
        assert incidents[0].classification == "shared-workload"
        assert incidents[0].causes == ["disk_hog"]
        summary = summarize(records)
        assert summary["platform_incidents"] == 1
        assert summary["multi_context"] == 1

    def test_shared_node_classification(self, tmp_path):
        contexts = [
            OperationContext("wordcount", "node-0", ip="10.0.0.0"),
            OperationContext("terasort", "node-0", ip="10.0.0.0"),
        ]
        incidents_dir = self._run_fleet(
            tmp_path, contexts, {c.key() for c in contexts}
        )
        incidents = correlate(scan_bundles(incidents_dir))
        assert len(incidents) == 1
        assert incidents[0].classification == "shared-node"


class TestConcurrentAlarms:
    THREADS = 8

    def _concurrent_fleet(self, incidents_dir):
        contexts = [
            OperationContext("wordcount", f"node-{i}", ip=f"10.0.0.{i}")
            for i in range(self.THREADS)
        ]
        fleet = FleetMonitor(
            incident_pipeline(contexts),
            shards=4,
            max_incidents=4,
            blackbox_dir=incidents_dir,
            **MONITOR_KW,
        )
        return fleet, contexts

    def _drive_concurrently(self, fleet, contexts):
        barrier = threading.Barrier(self.THREADS)
        per_thread: list[list] = [[] for _ in contexts]
        errors: list[BaseException] = []

        def work(i: int) -> None:
            try:
                barrier.wait()
                for t in range(40):
                    fault = t >= 14
                    cpi = 1.0 + (t - 13) * 1.0 if fault else 1.0
                    result = fleet.ingest(
                        [
                            Tick(
                                context=contexts[i],
                                metrics=np.array([1.0, 2.0, 3.0, 4.0])
                                + t * 0.01,
                                cpi=cpi,
                            )
                        ]
                    )
                    per_thread[i].extend(result.events)
            except BaseException as exc:  # surfaced by the test body
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        return per_thread

    def test_no_lost_diagnoses_and_evicted_bundles_survive(self, tmp_path):
        incidents_dir = tmp_path / "incidents"
        fleet, contexts = self._concurrent_fleet(incidents_dir)
        per_thread = self._drive_concurrently(fleet, contexts)
        diagnoses = [
            e
            for events in per_thread
            for e in events
            if isinstance(e.event, DiagnosisEvent)
        ]
        # every lane alarms at ticks 16/26/36: 3 diagnoses apiece,
        # none lost to concurrency
        assert len(diagnoses) == self.THREADS * 3
        assert fleet.bundles_committed == self.THREADS * 3

        ring = fleet.retained_incidents()
        # the ring is bounded and every resident entry already has
        # its committed bundle id
        assert len(ring) == 4
        assert all(r.bundle_id for _, r in ring)

        # evicted incidents still have committed bundles: all 24 on disk
        records = scan_bundles(incidents_dir)
        assert len(records) == self.THREADS * 3
        per_context = Counter((r.workload, r.node) for r in records)
        assert all(per_context[c.key()] == 3 for c in contexts)
        # and the whole storm correlates into one fleet incident
        incidents = correlate(records)
        assert len(incidents) == 1
        assert incidents[0].classification == "shared-workload"

    def test_ring_eviction_is_deterministic(self, tmp_path):
        """Identical sequential ingest twice: identical ring contents
        (LRU order is insertion order, not timing)."""

        def run(incidents_dir):
            contexts = [
                OperationContext("wordcount", f"node-{i}", ip=f"10.0.0.{i}")
                for i in range(8)
            ]
            fleet = FleetMonitor(
                incident_pipeline(contexts),
                shards=4,
                max_incidents=4,
                blackbox_dir=incidents_dir,
                **MONITOR_KW,
            )
            drive_fault(
                fleet, contexts, {c.key() for c in contexts}, ticks=22
            )
            return [key for key, _ in fleet.retained_incidents()]

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first == second
        assert len(first) == 4


class TestRequestIdEndToEnd:
    def _served_incident_fleet(self, tmp_path):
        contexts = [
            OperationContext("wordcount", f"node-{i}") for i in range(2)
        ]
        store = DirectoryStore(tmp_path / "registry")
        pipe = incident_pipeline(contexts, store=store)
        for context in contexts:
            pipe.store.persist(context.key())
        fleet = FleetMonitor(
            pipe,
            shards=2,
            blackbox_dir=tmp_path / "incidents",
            **MONITOR_KW,
        )
        obs.configure(enabled=True)
        server = build_server(fleet)  # ephemeral port
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return fleet, contexts, f"http://{host}:{port}", server, thread

    @staticmethod
    def _post(url, payload, request_id):
        req = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": request_id,
            },
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())

    @staticmethod
    def _tick_json(context, cpi, t):
        return {
            "workload": context.workload,
            "node": context.node_id,
            "metrics": [
                1.0 + t * 0.01,
                2.0 + t * 0.01,
                3.0 + t * 0.01,
                4.0 + t * 0.01,
            ],
            "cpi": cpi,
        }

    def test_request_id_reaches_ledger_span_bundle_and_explain(
        self, tmp_path
    ):
        fleet, contexts, base, server, thread = self._served_incident_fleet(
            tmp_path
        )
        target = contexts[0]
        try:
            diagnosed_rid = None
            for t in range(22):
                fault = t >= 14
                cpi = 1.0 + (t - 13) * 1.0 if fault else 1.0
                rid = f"rid-{t:03d}"
                _, reply = self._post(
                    f"{base}/ingest",
                    {"ticks": [self._tick_json(c, cpi if c is target else 1.0, t) for c in contexts]},
                    rid,
                )
                if any(
                    e.get("type") == "diagnosis" for e in reply["events"]
                ):
                    diagnosed_rid = rid
            assert diagnosed_rid is not None

            # 1. the fleet-diagnose ledger line carries the id
            entries = fleet.pipeline.ledger.entries(kind="fleet-diagnose")
            assert entries
            assert entries[-1]["request_id"] == diagnosed_rid
            bundle_id = entries[-1]["bundle"]

            # 2. the committed bundle's manifest carries the id
            bundle = load_bundle(tmp_path / "incidents" / bundle_id)
            assert bundle.manifest["request_id"] == diagnosed_rid
            assert f"request-id: {diagnosed_rid}" in bundle.explain_text()

            # 3. the serving span of that request carries the id
            attrs = []

            def collect(span):
                attrs.append(span.attributes)
                for child in span.children:
                    collect(child)

            for root in list(obs.tracer().finished):
                collect(root)
            assert any(
                a.get("request_id") == diagnosed_rid for a in attrs
            )

            # 4. explain output renders the id
            explanation = fleet.explain(target)
            assert explanation.request_id == diagnosed_rid
            assert (
                f"request-id: {diagnosed_rid}"
                in explanation.render_text()
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
