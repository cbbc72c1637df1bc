"""One inference per diagnosis: every view of it is a projection.

A diagnosed incident's window is scored by the MIC engine exactly once,
in the monitor's ``infer``.  The incident bundle, ``FleetMonitor.explain``
and ``GET /explain`` project the inference the diagnosis carries, so
none of them scores the window again.  ``explain_window`` infers once
and projects; each replay pass re-infers once, because that re-run is
what replay checks.

The records of a diagnosis are projections of one dict form too
(``DiagnosisEvent.to_dict``): the bundle's ``report.json`` is that
record, and its manifest, the ``fleet-diagnose`` ledger entry, the
``/ingest`` event and the correlator's ``IncidentRecord`` carry its
``summary`` head.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

import repro.core.invariants as invariants_mod
from repro.core import OperationContext
from repro.core.inference import read_ranking
from repro.core.online import DiagnosisEvent, read_summary
from repro.obs.blackbox import load_bundle, replay_bundle
from repro.obs.explain import explain_window
from repro.serve import FleetMonitor, build_server
from repro.serve.incidents import scan_bundles
from repro.stats.micfast import clear_association_cache
from repro.store import DirectoryStore

from tests.obs.test_blackbox import (
    committed_dirs,
    drive_fault,
    fault_ticks,
    incident_pipeline,
)
from tests.serve.test_http import _get, _post


@pytest.fixture()
def scored(monkeypatch):
    """Every window the MIC engine is asked to score, in call order."""
    windows: list[np.ndarray] = []
    real = invariants_mod.cached_mic_matrix

    def spy(samples, params=None):
        windows.append(np.array(samples))
        return real(samples, params)

    monkeypatch.setattr(invariants_mod, "cached_mic_matrix", spy)
    return windows


@pytest.fixture()
def diagnosed(tmp_path, scored):
    """A blackbox fleet that diagnosed one lane, served over HTTP."""
    context = OperationContext("wordcount", "node-0", ip="10.0.0.0")
    incidents = tmp_path / "incidents"
    fleet = FleetMonitor(
        incident_pipeline([context]),
        shards=1,
        window_ticks=8,
        warmup_ticks=12,
        cooldown_ticks=4,
        blackbox_dir=incidents,
    )
    events = drive_fault(fleet, [context], {context.key()}, ticks=22)
    diagnoses = [
        e.event for e in events if isinstance(e.event, DiagnosisEvent)
    ]
    assert len(diagnoses) == 1
    server = build_server(fleet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield fleet, context, incidents, diagnoses[0], f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestOneInference:
    def test_views_of_a_diagnosis_score_nothing(self, diagnosed, scored):
        fleet, context, incidents, diagnosis, base = diagnosed
        text = fleet.explain(context).render_text()
        status, body = _get(f"{base}/explain/{context}")
        assert status == 200
        (bundle,) = committed_dirs(incidents)
        assert text == (bundle / "explain.txt").read_text(encoding="utf-8")
        assert body.decode("utf-8") == text
        # the diagnosis' own inference is the only MIC call
        assert len(scored) == 1
        assert np.array_equal(scored[0], diagnosis.window)

    def test_explain_window_scores_once(self, diagnosed, scored):
        fleet, context, incidents, diagnosis, _ = diagnosed
        before = len(scored)
        explanation = explain_window(
            fleet.pipeline, context, diagnosis.window
        )
        assert len(scored) == before + 1
        served = dataclasses.replace(
            fleet.explain(context), request_id=None
        )
        assert explanation.render_text() == served.render_text()

    def test_each_replay_pass_scores_once(self, diagnosed, scored):
        _, _, incidents, _, _ = diagnosed
        (bundle,) = committed_dirs(incidents)
        clear_association_cache()
        before = len(scored)
        result = replay_bundle(bundle, passes=2)
        assert result.ok, result.mismatches
        assert len(scored) == before + 2


class TestOneRecord:
    def test_every_record_projects_the_diagnosis(self, tmp_path):
        """One diagnosis through a served fleet with a blackbox and a
        ledger: the bundle, the ledger entry, the HTTP event and the
        scanned incident record all carry the same head, and
        ``report.json`` is the event's ``to_dict``."""
        context = OperationContext("wordcount", "node-0")
        store = DirectoryStore(tmp_path / "registry")
        pipe = incident_pipeline([context], store=store)
        pipe.store.persist(context.key())
        incidents = tmp_path / "incidents"
        fleet = FleetMonitor(
            pipe,
            shards=1,
            window_ticks=8,
            warmup_ticks=12,
            cooldown_ticks=4,
            blackbox_dir=incidents,
        )
        server = build_server(fleet)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            replies = [
                _post(
                    f"http://{host}:{port}/ingest",
                    {"ticks": [{
                        "workload": context.workload,
                        "node": context.node_id,
                        "metrics": tick.metrics.tolist(),
                        "cpi": tick.cpi,
                    }]},
                )[1]
                for tick in fault_ticks(context, 22)
            ]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        (http_event,) = [
            e for reply in replies for e in reply["events"]
            if e["type"] == "diagnosis"
        ]
        ((_, retained),) = fleet.retained_incidents()
        event = retained.event
        head = event.summary()
        assert list(head) == ["tick", "alarm_tick", "cause", "matched"]
        assert head["alarm_tick"] < head["tick"]
        assert head["matched"] and head["cause"] == "disk_hog"

        bundle = load_bundle(incidents / retained.bundle_id)
        report = bundle.load_report()
        assert report.pop("top_k") == 3
        assert report == event.to_dict()
        ranking, matched = read_ranking(report)
        assert (ranking[0][0], matched) == (head["cause"], head["matched"])

        (entry,) = pipe.ledger.entries(kind="fleet-diagnose")
        assert entry["bundle"] == bundle.bundle_id
        (record,) = scan_bundles(incidents)
        assert record.bundle_id == bundle.bundle_id
        assert read_summary(bundle.manifest) == head
        assert read_summary(entry) == head
        assert read_summary(http_event) == head
        assert read_summary(dataclasses.asdict(record)) == head
