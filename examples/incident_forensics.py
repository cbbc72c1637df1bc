#!/usr/bin/env python
"""Incident forensics: the flight recorder, correlation, and replay.

Demonstrates the observability capstone (``repro.obs.blackbox`` +
``repro.serve.incidents``):

- a :class:`FleetMonitor` runs with a **blackbox directory**: every lane
  carries a bounded flight ring of raw ticks, drift verdicts and
  state-machine transitions, and every diagnosis is committed as a
  content-fingerprinted **incident bundle** (manifest written last — the
  atomic commit point);
- a platform fault hitting several nodes at once produces one bundle per
  diagnosed lane; the **correlator** stitches them back into a single
  classified *platform incident* (the same view ``invarnetx incidents
  list`` prints);
- ``replay_bundle`` rebuilds the whole pipeline *from one bundle alone*
  and proves the diagnosis reproduces byte for byte — twice — exactly
  what ``invarnetx replay <bundle>`` does.

The models are hand-built so the example runs in about a second.

Run with:  python examples/incident_forensics.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.invariants import InvariantSet
from repro.obs.blackbox import load_bundle, replay_bundle
from repro.serve import FleetMonitor, Tick
from repro.serve.incidents import (
    correlate,
    render_incident_list,
    render_incident_show,
    scan_bundles,
    summarize,
)
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.store import ContextModels
from repro.telemetry.metrics import MetricCatalog

NODES = [f"slave-{i}" for i in range(1, 5)]
FAULTY = {"slave-1", "slave-2", "slave-3"}  # one healthy bystander
CATALOG = MetricCatalog(names=("cpu_user", "mem_used", "disk_rd", "net_rx"))


def build_registry() -> InvarNetX:
    """One trained context per node: a "same as last tick" ARIMA drift
    detector, two likely invariants, and a disk-hog signature."""
    pipeline = InvarNetX(catalog=CATALOG)
    model = ARIMAModel(
        order=ARIMAOrder(0, 1, 0),
        ar=np.empty(0),
        ma=np.empty(0),
        intercept=0.0,
        sigma2=1.0,
    )
    for node in NODES:
        context = OperationContext("wordcount", node)
        detector = AnomalyDetector.from_artifacts(
            model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5)
        )
        invariants = InvariantSet(
            pairs=[(0, 1), (2, 3)],
            baseline=np.array([0.9, 0.8]),
            catalog=CATALOG,
        )
        models = ContextModels(
            context=context, detector=detector, invariants=invariants
        )
        models.database.add(
            np.array([True, False]), "disk-hog", workload="wordcount"
        )
        pipeline.store.adopt(context.key(), models)
    return pipeline


def batch(tick: int) -> list[Tick]:
    """One fleet-wide telemetry batch; the fault starts at tick 14."""
    ticks = []
    for node in NODES:
        fault = node in FAULTY and tick >= 14
        cpi = 1.0 + (tick - 13) * 1.0 if fault else 1.0
        ticks.append(
            Tick(
                context=OperationContext("wordcount", node),
                metrics=np.array([0.3, 0.5, 0.2, 0.4]) + tick * 0.01,
                cpi=cpi,
            )
        )
    return ticks


def main() -> None:
    incidents_dir = Path(tempfile.mkdtemp(prefix="invarnetx-")) / "incidents"
    fleet = FleetMonitor(
        build_registry(),
        shards=2,
        window_ticks=8,
        warmup_ticks=12,
        cooldown_ticks=30,
        blackbox_dir=incidents_dir,
    )

    # ------------------------------------------- the platform fault
    print("== ingesting 22 ticks; CPI ramp on 3 of 4 nodes from tick 14")
    for tick in range(22):
        result = fleet.ingest(batch(tick), request_id=f"req-{tick:03d}")
        for event in result.events:
            name = type(event.event).__name__
            print(f"tick {tick:>2d}: {name} on {event.context}")
    print(f"incident bundles committed: {fleet.bundles_committed}")

    # --------------------------------- fleet-wide incident correlation
    records = scan_bundles(incidents_dir)
    incidents = correlate(records)
    print("\n== invarnetx incidents list")
    print(render_incident_list(incidents))
    print("\n== invarnetx incidents show P01")
    print(render_incident_show(incidents[0]))
    summary = summarize(records)
    print(
        f"\n{summary['bundles']} bundles -> "
        f"{summary['platform_incidents']} platform incident(s), "
        f"classes {summary['classes']}"
    )

    # -------------------------------------------- deterministic replay
    bundle_path = records[0].path
    bundle = load_bundle(bundle_path)
    print(f"\n== invarnetx replay {bundle.bundle_id}")
    print(f"flight ring: {len(bundle.load_flight().ticks)} ticks recorded")
    result = replay_bundle(bundle_path)  # two independent passes
    print(result.render_text())
    assert result.ok, result.mismatches
    print("\ndone: the alarm is now a shippable, reproducible test case")


if __name__ == "__main__":
    main()
