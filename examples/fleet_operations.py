#!/usr/bin/env python
"""Operating a serving fleet: metrics, profiling, SLO burn, top.

Picks up where ``examples/fleet_serving.py`` left off — same hand-built
per-node models, same stdlib HTTP server — but this time the point is
the *operations* surface that ships with it (DESIGN.md §14):

- ``GET /metrics``: RED instrumentation of every endpoint in Prometheus
  text format, plus ``X-Request-Id`` request tracing;
- ``GET /debug/prof``: the stdlib sampling profiler aimed at the live
  process, returning a speedscope-loadable profile over HTTP;
- :class:`~repro.obs.slo.SLOTracker`: multi-window burn-rate alerting
  driven here with an injected clock so the burn → recovery transition
  is reproduced deterministically in a few milliseconds;
- ``invarnetx top``: one ``--once`` dashboard frame rendered in-process
  from the same registry the server is writing to.

Run with:  python examples/fleet_operations.py
"""

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np

from repro import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.invariants import InvariantSet
from repro.obs import configure, metrics_registry
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BurnWindow,
    SLOTracker,
    default_objectives,
)
from repro.serve import FleetMonitor, RegistrySource, TopApp, build_server
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.store import ContextModels
from repro.telemetry.metrics import MetricCatalog

NODES = [f"slave-{i}" for i in range(1, 5)]
CATALOG = MetricCatalog(names=("cpu_user", "mem_used", "disk_rd", "net_rx"))


def build_registry() -> InvarNetX:
    """One trained context per node (same drift detector as the
    serving example)."""
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


def fetch(base: str, path: str) -> tuple[bytes, dict]:
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.read(), dict(resp.headers)


def post_ticks(base: str, ticks: list[dict]) -> None:
    req = urllib.request.Request(
        base + "/ingest",
        data=json.dumps({"ticks": ticks}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        resp.read()


def tick_json(node: str, tick: int) -> dict:
    rng = np.random.default_rng(tick)
    return {
        "workload": "wordcount",
        "node": node,
        "metrics": list(np.round(rng.uniform(0.2, 0.8, size=4), 3)),
        "cpi": 1.0,
    }


def demo_slo_burn(ledger_dir: Path) -> None:
    """Reproduce a burn → recovery transition deterministically: a
    private registry, an injected clock, and windows shrunk from the
    production 5m/1h pair down to seconds."""
    registry = MetricsRegistry(enabled=True)
    requests = registry.counter(
        "invarnetx_http_requests_total",
        "requests",
        ("endpoint", "method", "status"),
    )
    ledger = RunLedger(ledger_dir / "ledger.jsonl", clock=lambda: 0.0)
    now = {"t": 0.0}
    tracker = SLOTracker(
        objectives=[
            o for o in default_objectives() if o.name == "http-errors"
        ],
        registry=registry,
        ledger=ledger,
        windows=(BurnWindow(10.0, 2.0), BurnWindow(60.0, 1.0)),
        clock=lambda: now["t"],
    )
    for _ in range(20):  # healthy baseline
        requests.inc(endpoint="/ingest", method="POST", status="200")
        now["t"] += 1.0
        tracker.observe()
    for _ in range(20):  # an outage: every second request is a 500
        requests.inc(endpoint="/ingest", method="POST", status="200")
        requests.inc(endpoint="/ingest", method="POST", status="500")
        now["t"] += 1.0
        tracker.observe()
        if tracker.burning():
            break
    print(f"  burning objectives during the outage: {tracker.burning()}")
    for _ in range(90):  # recovery: clean traffic until windows drain
        requests.inc(endpoint="/ingest", method="POST", status="200")
        now["t"] += 1.0
        tracker.observe()
    print(f"  burning objectives after recovery:    {tracker.burning()}")
    kinds = [e["kind"] for e in ledger.entries() if "slo" in e["kind"]]
    print(f"  ledger transitions (edge-triggered):  {kinds}")


def main() -> None:
    configure(enabled=True)  # the ops surface *is* the point here
    fleet = FleetMonitor(
        build_registry(),
        shards=2,
        window_ticks=8,
        warmup_ticks=12,
        cooldown_ticks=6,
    )
    server = build_server(fleet)  # ephemeral port
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"== fleet service listening on {base}")

    # ---------------------------------------- traffic + request tracing
    for tick in range(10):
        post_ticks(base, [tick_json(node, tick) for node in NODES])
    body, headers = fetch(base, "/health")
    print(f"request traced as X-Request-Id: {headers['X-Request-Id']}")

    # --------------------------------------------------- GET /metrics
    print("\n== GET /metrics (RED lines for the traffic above)")
    text = fetch(base, "/metrics")[0].decode()
    for line in text.splitlines():
        if line.startswith("invarnetx_http_requests_total"):
            print(f"  {line}")

    # ------------------------------------------------ GET /debug/prof
    print("\n== GET /debug/prof?seconds=0.5 while /ingest is pounded")
    stop = threading.Event()

    def pound() -> None:
        tick = 100
        while not stop.is_set():
            post_ticks(base, [tick_json(node, tick) for node in NODES])
            tick += 1

    pounder = threading.Thread(target=pound, daemon=True)
    pounder.start()
    profile = json.loads(fetch(base, "/debug/prof?seconds=0.5")[0])
    stop.set()
    pounder.join()
    print(
        f"  speedscope schema: {profile['$schema'].rsplit('/', 1)[-1]}, "
        f"{len(profile['profiles'])} thread profiles"
    )

    # ------------------------------------------------- SLO burn rates
    print("\n== SLO burn-rate alerting (injected clock, shrunk windows)")
    with tempfile.TemporaryDirectory() as tmp:
        demo_slo_burn(Path(tmp))

    # --------------------------------------------- one `top` frame
    print("\n== invarnetx top --once (in-process registry source)")
    app = TopApp(RegistrySource(metrics_registry(), fleet=fleet))
    print(app.frame())

    server.shutdown()
    server.server_close()
    configure(enabled=False)
    print("done: operations surface exercised end to end")


if __name__ == "__main__":
    main()
