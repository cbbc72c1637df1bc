"""Batch-native ingest: how a stream is cut into batches changes nothing.

``FleetMonitor.ingest`` groups a batch by context and drains each
context's run of ticks in one visit to its lane.  Per-tick semantics must
not move: one batch and the same ticks as one-tick batches give the same
events, counts, lane states, tick indices and flight-ring snapshots.
"""

from __future__ import annotations

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OperationContext
from repro.core.online import DiagnosisEvent
from repro.obs.bridge import reset_warn_once
from repro.serve import FleetMonitor, Tick

from tests.obs.test_blackbox import committed_dirs, incident_pipeline

CONTEXTS = [
    OperationContext("wordcount", f"node-{i}", ip=f"10.0.0.{i}")
    for i in range(5)
]
UNTRAINED = OperationContext("grep", "node-9")
LANES = CONTEXTS + [UNTRAINED]  # at most 6 contexts, one untrained
MONITOR_KW = dict(window_ticks=8, warmup_ticks=4, cooldown_ticks=2)

@pytest.fixture(autouse=True)
def unspent_warn_once():
    """The untrained lane's warning fires once per process: leave it
    unspent for the tests that assert it."""
    yield
    reset_warn_once()


#: One drawn tick: (lane index, CPI jump?, malformed kind).  Lanes 0-2
#: are drawn most, and jumps often, so that streams reach alarms and
#: diagnoses.
TICK = st.tuples(
    st.sampled_from([0, 0, 1, 1, 2, 3, 4, 5]),
    st.sampled_from([True, True, False]),
    st.sampled_from(["ok"] * 10 + ["nan_cpi", "short_row"]),
)


def _stream(drawn) -> list[Tick]:
    """Ticks from the drawn tuples: each lane's CPI climbs by 1 on a
    jump (3 in a row raise the alarm); rows encode the batch position."""
    level = [1.0] * len(LANES)
    ticks = []
    for pos, (lane, jump, kind) in enumerate(drawn):
        level[lane] += 1.0 if jump else 0.0
        cpi = float("nan") if kind == "nan_cpi" else level[lane]
        width = 3 if kind == "short_row" else 4
        metrics = np.arange(width, dtype=float) + pos + 0.25 * lane
        ticks.append(Tick(LANES[lane], metrics, cpi))
    return ticks


def _outcome(stream: list[Tick], batch_size: int) -> dict:
    """Everything observable after ingesting ``stream`` in batches."""
    with tempfile.TemporaryDirectory() as tmp:
        fleet = FleetMonitor(
            incident_pipeline(CONTEXTS),
            shards=2,
            blackbox_dir=tmp,
            **MONITOR_KW,
        )
        result = fleet.run_stream(stream, batch_size=batch_size)
        bundles = [p.name for p in committed_dirs(fleet.blackbox_dir)]
    lanes = {
        key: fleet.lane(OperationContext(*key)) for key in fleet.contexts()
    }
    return {
        "events": [
            (
                e.index,
                str(e.context),
                e.event.to_dict()
                if isinstance(e.event, DiagnosisEvent)
                else e.event,
                json.dumps(e.flight.to_json()) if e.flight else None,
            )
            for e in result.events
        ],
        "accepted": result.accepted,
        "rejected": result.rejected,
        "rejected_total": fleet.rejected_total,
        "states": fleet.states(),
        "ticks": {key: lane.tick for key, lane in lanes.items()},
        "flights": {
            key: json.dumps(lane.recorder.snapshot().to_json())
            for key, lane in lanes.items()
        },
        "bundles": bundles,
    }


class TestBatchingDoesNotChangeOutcomes:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(TICK, min_size=40, max_size=120))
    def test_one_batch_equals_one_tick_batches(self, drawn):
        stream = _stream(drawn)
        whole = _outcome(stream, batch_size=len(stream))
        single = _outcome(stream, batch_size=1)
        assert whole == single

    def test_a_long_interleaved_stream_diagnoses(self):
        """The property's streams reach the diagnosis path: two lanes
        ramp, interleaved with a malformed and an untrained tick."""
        drawn = []
        for t in range(30):
            drawn += [(0, t >= 6, "ok"), (1, t >= 9, "ok")]
            drawn.append((5, False, "ok"))
            if t == 10:
                drawn += [(0, False, "short_row"), (1, False, "nan_cpi")]
        stream = _stream(drawn)
        whole = _outcome(stream, batch_size=len(stream))
        assert whole == _outcome(stream, batch_size=1)
        diagnoses = [e for e in whole["events"] if isinstance(e[2], dict)]
        assert len(diagnoses) >= 2
        assert all(e[3] is not None for e in diagnoses)
        assert whole["bundles"]
        assert whole["rejected"] == 30 + 2


class TestOneLaneVisitPerBatch:
    def test_lane_lookup_runs_once_per_distinct_context(self, monkeypatch):
        calls: list[tuple[str, str]] = []
        lane_for = FleetMonitor._lane_for

        def spy(self, shard, context):
            calls.append(context.key())
            return lane_for(self, shard, context)

        monkeypatch.setattr(FleetMonitor, "_lane_for", spy)
        fleet = FleetMonitor(
            incident_pipeline(CONTEXTS), shards=2, **MONITOR_KW
        )
        drawn = [
            (lane, False, "ok") for _ in range(10) for lane in (0, 1, 2, 5)
        ]
        result = fleet.ingest(_stream(drawn))
        assert result.accepted == 30 and result.rejected == 10
        assert sorted(calls) == sorted(
            LANES[lane].key() for lane in (0, 1, 2, 5)
        )
