#!/usr/bin/env python
"""Fleet serving: one process multiplexing many monitored contexts.

Demonstrates the production-shaped serving layer (``repro.serve``):

- a :class:`FleetMonitor` lazily builds one streaming monitor per
  ``(workload, node)`` context from a shared model store, sharded for
  concurrent ingest;
- the stdlib HTTP/JSON API (the same one ``invarnetx serve`` runs) is
  driven end to end: telemetry batches through ``POST /ingest``, fleet
  introspection through ``GET /health`` and ``GET /contexts``, and the
  full incident evidence report through ``GET /explain/<context>``;
- a staggered fault across the fleet shows per-context alarms and
  diagnoses coming back in the ingest replies.

The models are hand-built (an ARIMA "same as last tick" drift detector
per node) so the example runs in about a second; swap the store for a
trained :class:`DirectoryStore` registry to serve real models.

Run with:  python examples/fleet_serving.py
"""

import json
import threading
import urllib.request

import numpy as np

from repro import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.invariants import InvariantSet
from repro.serve import FleetMonitor, build_server
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.store import ContextModels
from repro.telemetry.metrics import MetricCatalog

NODES = [f"slave-{i}" for i in range(1, 7)]
CATALOG = MetricCatalog(names=("cpu_user", "mem_used", "disk_rd", "net_rx"))


def build_registry() -> InvarNetX:
    """A pipeline whose store holds one trained context per node."""
    pipeline = InvarNetX(catalog=CATALOG)
    model = ARIMAModel(
        order=ARIMAOrder(0, 1, 0),
        ar=np.empty(0),
        ma=np.empty(0),
        intercept=0.0,
        sigma2=1.0,
    )
    detector = AnomalyDetector.from_artifacts(
        model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5)
    )
    invariants = InvariantSet(
        pairs=[(0, 1), (2, 3)],
        baseline=np.array([0.9, 0.8]),
        catalog=CATALOG,
    )
    for node in NODES:
        context = OperationContext("wordcount", node)
        pipeline.store.adopt(
            context.key(),
            ContextModels(
                context=context, detector=detector, invariants=invariants
            ),
        )
    return pipeline


def post(base: str, path: str, payload: dict) -> dict:
    req = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def get(base: str, path: str) -> bytes:
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.read()


def tick_json(node: str, tick: int, cpi: float) -> dict:
    rng = np.random.default_rng(tick)
    return {
        "workload": "wordcount",
        "node": node,
        "metrics": list(np.round(rng.uniform(0.2, 0.8, size=4), 3)),
        "cpi": cpi,
    }


def main() -> None:
    fleet = FleetMonitor(
        build_registry(),
        shards=4,
        window_ticks=8,
        warmup_ticks=12,
        cooldown_ticks=6,
    )
    server = build_server(fleet)  # ephemeral port
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"== fleet service listening on {base}")

    # ------------------------------------------------- healthy telemetry
    for tick in range(14):
        post(
            base,
            "/ingest",
            {"ticks": [tick_json(node, tick, 1.0) for node in NODES]},
        )
    health = json.loads(get(base, "/health"))
    print(
        f"after warm-up: {health['contexts']} contexts resident on "
        f"{health['shards']} shards"
    )
    states = json.loads(get(base, "/contexts"))["contexts"]
    print(f"lane states: {sorted(set(states.values()))}")

    # --------------------------------------- a CPI ramp on slave-3 only
    print("\n== injecting a CPI ramp on wordcount@slave-3")
    faulty = "slave-3"
    value = 1.0
    for tick in range(14, 26):
        value += 1.0
        ticks = [
            tick_json(node, tick, value if node == faulty else 1.0)
            for node in NODES
        ]
        reply = post(base, "/ingest", {"ticks": ticks})
        for event in reply["events"]:
            if event["type"] == "alarm":
                print(f"tick {event['tick']:>2d}: ALARM on {event['context']}")
            else:
                print(
                    f"tick {event['tick']:>2d}: diagnosis on "
                    f"{event['context']} (alarm was tick "
                    f"{event['alarm_tick']})"
                )

    # ---------------------------------------------- evidence on demand
    print(f"\n== GET /explain/wordcount@{faulty}")
    report = get(base, f"/explain/wordcount@{faulty}").decode()
    print("\n".join(report.splitlines()[:12]))

    server.shutdown()
    server.server_close()
    print("\ndone: fleet served", health["contexts"], "contexts in-process")


if __name__ == "__main__":
    main()
