"""Load-generator benchmark: fleet serving vs naive monitor loop.

Not part of tier-1 (``testpaths = ["tests"]``); run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_serve.py -q -s

The naive baseline is the obvious per-tick algorithm: one
:class:`~repro.core.online.OnlineMonitor` per context, ``observe`` called
in a loop, with every MONITORING tick's verdict computed by
:meth:`AnomalyDetector.check_next` — the full ARMA recursion over the
lane's whole (<= 600-sample) CPI history, O(history) python-loop work
per tick per context — and handed in through ``observe(anomalous=...)``.
That is how monitors checked drift before they carried a streaming
predictor; the plain ``observe`` loop now runs the same O(p + d + q)
check as the fleet, so it can no longer serve as the baseline.  The
verdict is pinned explicitly here, as ``_mic_reference`` anchors the MIC
engine benchmark, so the ratio keeps measuring what the committed
``BENCH_serve.json`` recorded.  The fleet's streaming check gives the
bit-identical verdict for this pure-AR model, which is where the
required >= 3x multiplexing headroom comes from; both sides run the same
state machine, so the event streams must match exactly.

The full benchmark drives 512 contexts x 64 ticks (the PR acceptance
shape, recorded to ``BENCH_serve.json``); the ``smoke`` test is a
down-scaled CI version that checks parity and direction without pinning
a ratio load-sensitive runners would flake on.
"""

import time
from collections import deque

import numpy as np

from repro.core import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.inference import InferenceResult
from repro.core.invariants import InvariantSet
from repro.core.online import MonitorState, OnlineMonitor
from repro.serve import FleetMonitor, Tick
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.store import ContextModels
from repro.telemetry.metrics import MetricCatalog

#: Required full-benchmark speedup (PR acceptance criterion).
REQUIRED_SPEEDUP = 3.0

#: CPI history the naive baseline recomputes over (the bound monitors
#: kept before they streamed their predictions).
NAIVE_HISTORY = 600

MONITOR_KW = dict(window_ticks=8, warmup_ticks=12, cooldown_ticks=4)
CATALOG = MetricCatalog(names=("m0", "m1", "m2", "m3"))


def _detector() -> AnomalyDetector:
    """AR(2, 1, 0): on flat history it predicts "same as last tick"
    (all differences are zero), so the streams below are hand-checkable
    — yet the full path still pays the O(history) ARMA recursion."""
    model = ARIMAModel(
        order=ARIMAOrder(2, 1, 0),
        ar=np.array([0.3, -0.1]),
        ma=np.empty(0),
        intercept=0.0,
        sigma2=1.0,
    )
    return AnomalyDetector.from_artifacts(
        model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5)
    )


def _pipeline(contexts) -> InvarNetX:
    pipe = InvarNetX(catalog=CATALOG)
    detector = _detector()
    invariants = InvariantSet(
        pairs=[(0, 1)], baseline=np.array([0.9]), catalog=CATALOG
    )
    for context in contexts:
        pipe.store.adopt(
            context.key(),
            ContextModels(
                context=context, detector=detector, invariants=invariants
            ),
        )
    pipe.infer = lambda ctx, window, top_k=3: InferenceResult(
        causes=[], violations=np.zeros(1, dtype=bool)
    )
    return pipe


def _cpi(tick, i, n_contexts):
    """Flat 1.0 everywhere; every 16th context ramps +2/tick from tick
    20 so the run exercises alarms, collection and cool-down too."""
    if i % 16 == 0 and tick >= 20:
        return 1.0 + 2.0 * (tick - 19)
    return 1.0


def _naive_check(monitor, history, cpi):
    """The O(history) per-tick drift check: the full recursion over the
    lane's whole CPI history, with the monitor's gates."""
    if monitor.state is not MonitorState.MONITORING:
        return None
    p, d, q = monitor.detector.model.order
    if len(history) <= d + max(p, q):
        return False
    return monitor.detector.check_next(np.asarray(history), cpi)


def _run_naive(contexts, ticks, rows):
    pipe = _pipeline(contexts)
    monitors = [
        OnlineMonitor(pipe, c, **MONITOR_KW) for c in contexts
    ]
    histories = [deque(maxlen=NAIVE_HISTORY) for _ in contexts]
    events = []
    start = time.perf_counter()
    for t in range(ticks):
        row = rows[t]
        for i, monitor in enumerate(monitors):
            cpi = _cpi(t, i, len(contexts))
            history = histories[i]
            collecting = monitor.state is MonitorState.COLLECTING
            ev = monitor.observe(
                row, cpi, anomalous=_naive_check(monitor, history, cpi)
            )
            if not collecting:  # collection CPI is quarantined
                history.append(cpi)
            if ev is not None:
                events.append((i, type(ev).__name__, ev.tick))
    return events, time.perf_counter() - start


def _run_fleet(contexts, ticks, rows):
    fleet = FleetMonitor(
        _pipeline(contexts), shards=8, workers=0, **MONITOR_KW
    )
    index_of = {c.key(): i for i, c in enumerate(contexts)}
    events = []
    start = time.perf_counter()
    for t in range(ticks):
        row = rows[t]
        batch = [
            Tick(c, row, _cpi(t, i, len(contexts)))
            for i, c in enumerate(contexts)
        ]
        for fe in fleet.ingest(batch).events:
            events.append(
                (index_of[fe.context.key()], type(fe.event).__name__,
                 fe.event.tick)
            )
    elapsed = time.perf_counter() - start
    fleet.close()
    return events, elapsed


def _drive(n_contexts, ticks):
    contexts = [
        OperationContext("wordcount", f"node-{i}") for i in range(n_contexts)
    ]
    rows = [np.full(4, float(t)) for t in range(ticks)]
    naive_events, naive_t = _run_naive(contexts, ticks, rows)
    fleet_events, fleet_t = _run_fleet(contexts, ticks, rows)
    assert sorted(fleet_events) == sorted(naive_events)
    assert naive_events  # the ramped contexts really produced incidents
    return naive_t, fleet_t


class TestServeBenchmark:
    def test_smoke_fleet_not_slower_with_parity(self, bench_record):
        n_contexts, ticks = 48, 40
        naive_t, fleet_t = _drive(n_contexts, ticks)
        throughput = n_contexts * ticks / fleet_t
        print(
            f"\n[smoke] fleet {fleet_t:.3f}s  naive {naive_t:.3f}s  "
            f"speedup {naive_t / fleet_t:.2f}x  "
            f"throughput {throughput:,.0f} context-ticks/s"
        )
        bench_record(
            "serve",
            "smoke_48x40",
            contexts=n_contexts,
            ticks=ticks,
            fleet_seconds=round(fleet_t, 4),
            naive_seconds=round(naive_t, 4),
            speedup=round(naive_t / fleet_t, 2),
            throughput_context_ticks_per_s=round(throughput, 1),
        )
        # direction only: CI runners are too load-sensitive for a ratio
        assert fleet_t <= naive_t * 1.2

    def test_full_fleet_multiplexes_512_contexts(self, bench_record):
        n_contexts, ticks = 512, 64
        naive_t, fleet_t = _drive(n_contexts, ticks)
        speedup = naive_t / fleet_t
        throughput = n_contexts * ticks / fleet_t
        print(
            f"\n[full] fleet {fleet_t:.3f}s  naive {naive_t:.3f}s  "
            f"speedup {speedup:.2f}x  "
            f"throughput {throughput:,.0f} context-ticks/s"
        )
        bench_record(
            "serve",
            "fleet_512x64",
            contexts=n_contexts,
            ticks=ticks,
            fleet_seconds=round(fleet_t, 4),
            naive_seconds=round(naive_t, 4),
            speedup=round(speedup, 2),
            throughput_context_ticks_per_s=round(throughput, 1),
            required_speedup=REQUIRED_SPEEDUP,
        )
        assert n_contexts >= 500
        assert speedup >= REQUIRED_SPEEDUP, (
            f"fleet fast lane only {speedup:.2f}x over the naive loop"
        )
