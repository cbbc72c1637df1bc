"""One inference per diagnosis: every view of it is a projection.

A diagnosed incident's window is scored by the MIC engine exactly once,
in the monitor's ``infer``.  The incident bundle, ``FleetMonitor.explain``
and ``GET /explain`` project the inference the diagnosis carries, so
none of them scores the window again.  ``explain_window`` infers once
and projects; each replay pass re-infers once, because that re-run is
what replay checks.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

import repro.core.invariants as invariants_mod
from repro.core import OperationContext
from repro.core.online import DiagnosisEvent
from repro.obs.blackbox import replay_bundle
from repro.obs.explain import explain_window
from repro.serve import FleetMonitor, build_server
from repro.stats.micfast import clear_association_cache

from tests.obs.test_blackbox import (
    committed_dirs,
    drive_fault,
    incident_pipeline,
)
from tests.serve.test_http import _get


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
