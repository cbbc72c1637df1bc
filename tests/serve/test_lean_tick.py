"""The steady lane tick does only the detector's work.

Two rails:

- **lean tick** — a steady, obs-on :class:`FleetMonitor` batch makes no
  metric-registry lookup and validates each accepted tick exactly once;
- **exported values** — one scripted stream (warm-up, an alarm, a
  diagnosis, malformed and untrained ticks, an ``obs.reset()`` partway
  and an ``obs.configure(enabled=False/True)`` toggle) through a fleet
  and through a standalone :class:`OnlineMonitor` exports exactly the
  counter values pinned below.  Per-tick work moved off the registry
  must not change one exported number.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core import OperationContext
from repro.core.online import OnlineMonitor
from repro.obs.metrics import MetricsRegistry
from repro.serve import FleetMonitor, Tick, shard_index

from tests.serve.conftest import build_pipeline

MONITOR_KW = dict(window_ticks=8, warmup_ticks=12, cooldown_ticks=4)

A = OperationContext("wordcount", "node-0")
B = OperationContext("wordcount", "node-4")
UNTRAINED = OperationContext("grep", "node-9")
ROW = np.full(4, 0.5)
SHORT_ROW = np.zeros(3)
INF_ROW = np.array([0.5, np.inf, 0.5, 0.5])
NAN = float("nan")


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call bumps the returned counter."""
    calls = [0]
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestLeanTick:
    LANES = 16

    def test_steady_tick_makes_no_lookup_and_one_validation(
        self, monkeypatch
    ):
        contexts = [
            OperationContext("wordcount", f"node-{i}")
            for i in range(self.LANES)
        ]
        fleet = FleetMonitor(build_pipeline(contexts), shards=4, **MONITOR_KW)
        obs.configure(enabled=True)

        def batch():
            return [Tick(c, ROW, 1.0) for c in contexts]

        for _ in range(MONITOR_KW["warmup_ticks"] + 2):
            fleet.ingest(batch())  # warm-up done, every lane monitoring
        assert set(fleet.states().values()) == {"monitoring"}

        lookups = _counting(monkeypatch, MetricsRegistry, "_get_or_create")
        validations = _counting(monkeypatch, OnlineMonitor, "accepts")
        ticks = 0
        for _ in range(5):
            result = fleet.ingest(batch())
            assert result.rejected == 0 and not result.events
            ticks += result.accepted
        assert ticks == 5 * self.LANES
        assert lookups[0] / ticks == 0
        assert validations[0] / ticks == 1

    def test_reset_rebinds_the_lane_series(self):
        fleet = FleetMonitor(build_pipeline([A]), shards=1, **MONITOR_KW)
        obs.configure(enabled=True)
        fleet.ingest([Tick(A, ROW, 1.0)])
        obs.reset()
        fleet.ingest([Tick(A, ROW, 1.0)])
        ticks = obs.metrics_registry().counter(
            "invarnetx_monitor_state_ticks_total",
            labelnames=("context", "state"),
        )
        assert ticks.samples() == [
            ({"context": str(A), "state": "warmup"}, 1.0)
        ]


# -- exported-value rail ------------------------------------------------

def _script():
    """The scripted stream: batches of ``(context, row, cpi)`` ticks and
    the commands ``"snapshot"``, ``"reset"``, ``"off"`` and ``"on"``."""
    steps: list = []

    def flat(n, a_cpi=1.0, a_row=ROW):
        steps.extend([[(A, a_row, a_cpi), (B, ROW, 1.0)]] * n)

    flat(14)  # warm-up (12), then two monitoring ticks
    steps.append([(A, ROW, NAN), (B, SHORT_ROW, 1.0), (UNTRAINED, ROW, 1.0)])
    steps.append([(A, INF_ROW, 1.0)])
    for cpi in (2.0, 3.0, 4.0):  # a 3-tick ramp: the alarm
        flat(1, a_cpi=cpi)
    flat(1, a_cpi=4.0)  # collecting
    steps += ["snapshot", "reset"]
    steps.append([(A, SHORT_ROW, 4.0)])  # malformed while collecting
    flat(2, a_cpi=4.0)  # the window fills: the diagnosis
    steps.append("off")
    flat(2, a_cpi=4.0)  # cool-down, uncounted
    steps.append([(A, ROW, NAN), (UNTRAINED, ROW, 1.0)])
    steps.append("on")
    flat(4, a_cpi=4.0)  # the rest of the cool-down, then re-armed
    steps.append("snapshot")
    return steps


def _counter_lines() -> list[str]:
    """The sample lines of the exposition, ``*_seconds`` excluded."""
    return [
        line
        for line in obs.metrics_registry().render_prometheus().splitlines()
        if not line.startswith("#") and "_seconds" not in line
    ]


def _run(steps, feed) -> list[list[str]]:
    snapshots = []
    obs.configure(enabled=True)
    for step in steps:
        if step == "snapshot":
            snapshots.append(_counter_lines())
        elif step == "reset":
            obs.reset()
        elif step in ("off", "on"):
            obs.configure(enabled=step == "on")
        else:
            feed(step)
    return snapshots


def _fleet_snapshots() -> list[list[str]]:
    assert shard_index(A.key(), 2) != shard_index(B.key(), 2)
    fleet = FleetMonitor(build_pipeline([A, B]), shards=2, **MONITOR_KW)
    return _run(
        _script(),
        lambda ticks: fleet.ingest([Tick(c, r, v) for c, r, v in ticks]),
    )


def _standalone_snapshots() -> list[list[str]]:
    monitor = OnlineMonitor(build_pipeline([A]), A, **MONITOR_KW)

    def feed(ticks):
        for context, row, cpi in ticks:
            if context != A:
                continue
            try:
                monitor.observe(row, cpi)
            except ValueError:
                pass  # refused, as the fleet counts it malformed

    return _run(_script(), feed)


#: Generated from the registry-lookup implementation this replaced:
#: the values a lean tick must keep exporting.  The first snapshot is
#: taken just before the ``obs.reset()``, the second at the end.
FLEET_EXPECTED = [
    [
        'invarnetx_alarms_total{context="wordcount@node-0"} 1',
        'invarnetx_fleet_rejected_total{shard="0",reason="malformed"} 2',
        'invarnetx_fleet_rejected_total{shard="0",reason="untrained"} 1',
        'invarnetx_fleet_rejected_total{shard="1",reason="malformed"} 1',
        'invarnetx_fleet_ticks_total{shard="0"} 18',
        'invarnetx_fleet_ticks_total{shard="1"} 18',
        'invarnetx_monitor_checks_total{context="wordcount@node-0"} 5',
        'invarnetx_monitor_checks_total{context="wordcount@node-4"} 6',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="collecting"} 1',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="monitoring"} 5',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="warmup"} 12',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-4",state="monitoring"} 6',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-4",state="warmup"} 12',
        'invarnetx_monitor_transitions_total{context="wordcount@node-0",from="monitoring",to="collecting"} 1',
        'invarnetx_monitor_transitions_total{context="wordcount@node-0",from="warmup",to="monitoring"} 1',
        'invarnetx_monitor_transitions_total{context="wordcount@node-4",from="warmup",to="monitoring"} 1',
    ],
    [
        'invarnetx_diagnoses_total{context="wordcount@node-0"} 1',
        'invarnetx_fleet_rejected_total{shard="0",reason="malformed"} 1',
        'invarnetx_fleet_ticks_total{shard="0"} 6',
        'invarnetx_fleet_ticks_total{shard="1"} 6',
        'invarnetx_monitor_checks_total{context="wordcount@node-0"} 2',
        'invarnetx_monitor_checks_total{context="wordcount@node-4"} 6',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="collecting"} 2',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="cooldown"} 2',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="monitoring"} 2',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-4",state="monitoring"} 6',
        'invarnetx_monitor_transitions_total{context="wordcount@node-0",from="collecting",to="cooldown"} 1',
        'invarnetx_monitor_transitions_total{context="wordcount@node-0",from="cooldown",to="monitoring"} 1',
    ],
]

STANDALONE_EXPECTED = [
    [
        'invarnetx_alarms_total{context="wordcount@node-0"} 1',
        'invarnetx_monitor_checks_total{context="wordcount@node-0"} 5',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="collecting"} 1',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="monitoring"} 5',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="warmup"} 12',
        'invarnetx_monitor_transitions_total{context="wordcount@node-0",from="monitoring",to="collecting"} 1',
        'invarnetx_monitor_transitions_total{context="wordcount@node-0",from="warmup",to="monitoring"} 1',
    ],
    [
        'invarnetx_diagnoses_total{context="wordcount@node-0"} 1',
        'invarnetx_monitor_checks_total{context="wordcount@node-0"} 2',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="collecting"} 2',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="cooldown"} 2',
        'invarnetx_monitor_state_ticks_total{context="wordcount@node-0",state="monitoring"} 2',
        'invarnetx_monitor_transitions_total{context="wordcount@node-0",from="collecting",to="cooldown"} 1',
        'invarnetx_monitor_transitions_total{context="wordcount@node-0",from="cooldown",to="monitoring"} 1',
    ],
]


class TestExportedValueRail:
    def test_fleet_exports_pinned_values(self):
        assert _fleet_snapshots() == FLEET_EXPECTED

    def test_standalone_exports_pinned_values(self):
        assert _standalone_snapshots() == STANDALONE_EXPECTED
