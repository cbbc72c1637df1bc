"""Observability overhead — the off switch must actually be free.

Three contracts from DESIGN.md §10/§15:

- **disabled path is allocation-free** — a disabled tracer hands back the
  ``NOOP_SPAN`` singleton and a disabled registry bails on one attribute
  check, so instrumented hot loops allocate nothing inside ``repro.obs``;
- **infer() overhead is within noise** — turning the full layer on
  (spans, counters, histograms) must not move online inference latency
  beyond run-to-run measurement noise;
- **the blackbox honours both** — a fleet without a blackbox (no
  recorder on any lane) allocates zero bytes in blackbox frames while it
  ingests, and recording every tick into the bounded ring keeps
  steady-state fleet ingest within 1.15x of running without it;
- **a steady lane tick stays lean with obs on** — the per-tick counters
  are written through series bound once per lane, so turning obs on
  costs the fleet tick little (``fleet_tick_enabled_vs_disabled``).
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np
import pytest

import repro.obs as obs
from repro.core import InvarNetX, OperationContext
from repro.faults.spec import FaultSpec, build_fault


#: Lanes of :func:`steady_fleet`.
STEADY_CONTEXTS = 8


@pytest.fixture(autouse=True)
def obs_off():
    obs.configure(enabled=False)
    obs.reset()
    yield
    obs.configure(enabled=False)
    obs.reset()


class TestDisabledPathAllocationFree:
    def test_disabled_span_and_metric_writes_allocate_nothing(self):
        tracer = obs.tracer()
        registry = obs.metrics_registry()
        counter = registry.counter("bench_total", "", ("k",))
        series = counter.series(k="v")  # pre-bound hot-path handle
        with tracer.span("warmup") as sp:
            if sp:
                sp.set(x=1)
        series.inc()

        tracemalloc.start()
        for _ in range(2000):
            with tracer.span("hot") as sp:
                if sp:
                    sp.set(x=1)
            if obs.enabled():
                counter.inc(k="v")
            series.inc()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()

        obs_bytes = sum(
            trace.size
            for trace in snapshot.traces
            if any("repro/obs" in f.filename for f in trace.traceback)
        )
        assert obs_bytes == 0

    def test_record_disabled_path_bytes(self, bench_record):
        """Persist the zero-allocation measurement for the CI artifact."""
        tracer = obs.tracer()
        registry = obs.metrics_registry()
        series = registry.counter("bench_rec_total", "", ("k",)).series(k="v")
        with tracer.span("warmup"):
            pass
        series.inc()
        tracemalloc.start()
        for _ in range(2000):
            with tracer.span("hot") as sp:
                if sp:
                    sp.set(x=1)
            series.inc()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        obs_bytes = sum(
            trace.size
            for trace in snapshot.traces
            if any("repro/obs" in f.filename for f in trace.traceback)
        )
        bench_record(
            "obs_overhead",
            "disabled_path_2000_iterations",
            obs_bytes=obs_bytes,
            iterations=2000,
        )
        assert obs_bytes == 0

    def test_record_profiler_disabled_path_bytes(self, bench_record):
        """A constructed-but-stopped profiler must cost the workload
        nothing: zero bytes allocated in ``repro.obs.prof`` frames."""
        from repro.obs.prof import SamplingProfiler

        tracer = obs.tracer()
        registry = obs.metrics_registry()
        series = (
            registry.counter("bench_prof_total", "", ("k",)).series(k="v")
        )
        profiler = SamplingProfiler(hz=97.0)  # never started
        with tracer.span("warmup"):
            pass
        series.inc()
        tracemalloc.start()
        for _ in range(2000):
            with tracer.span("hot") as sp:
                if sp:
                    sp.set(x=1)
            series.inc()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        prof_bytes = sum(
            trace.size
            for trace in snapshot.traces
            if any("repro/obs/prof" in f.filename for f in trace.traceback)
        )
        bench_record(
            "obs_overhead",
            "profiler_disabled_2000_iterations",
            obs_prof_bytes=prof_bytes,
            iterations=2000,
        )
        assert not profiler.running
        assert prof_bytes == 0

    def test_record_blackbox_disabled_path_bytes(self, bench_record):
        """A fleet built without ``blackbox_dir`` carries no recorder on
        its lanes and must allocate zero bytes in ``repro.obs.blackbox``
        frames over 2000 ingested ticks."""
        from repro.serve import Tick

        fleet, contexts = steady_fleet(None)
        row = np.array([0.3, 0.5, 0.2, 0.4])
        batch = [Tick(context=c, metrics=row, cpi=1.0) for c in contexts]
        iterations = 2000
        fleet.ingest(batch)  # warmup: builds the lanes
        tracemalloc.start()
        for _ in range(iterations // len(batch)):
            fleet.ingest(batch)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        lanes = [fleet.lane(c) for c in contexts]
        blackbox_bytes = sum(
            trace.size
            for trace in snapshot.traces
            if any(
                "repro/obs/blackbox" in f.filename
                for f in trace.traceback
            )
        )
        bench_record(
            "obs_overhead",
            "blackbox_disabled_2000_iterations",
            obs_blackbox_bytes=blackbox_bytes,
            iterations=iterations,
        )
        assert all(lane.recorder is None for lane in lanes)
        assert blackbox_bytes == 0

    def test_disabled_span_peak_within_loop_noise(self):
        tracer = obs.tracer()

        def measure(body) -> int:
            tracemalloc.start()
            for _ in range(5000):
                body()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        def empty() -> None:
            pass

        def spanned() -> None:
            with tracer.span("hot"):
                pass

        baseline = measure(empty)
        instrumented = measure(spanned)
        assert instrumented <= baseline + 512


class TestInferOverhead:
    @pytest.fixture(scope="class")
    def infer_setup(self, cluster):
        runs = [cluster.run("wordcount", seed=9000 + i) for i in range(3)]
        ctx = OperationContext(
            "wordcount", "slave-1", cluster.ip_of("slave-1")
        )
        pipe = InvarNetX()
        pipe.train_from_runs(ctx, runs)
        signature = cluster.run(
            "wordcount",
            faults=[build_fault("CPU-hog", FaultSpec("slave-1", 40, 30))],
            seed=9050,
        )
        pipe.train_signature_from_run(ctx, "CPU-hog", signature)
        incident = cluster.run(
            "wordcount",
            faults=[build_fault("CPU-hog", FaultSpec("slave-1", 40, 30))],
            seed=9051,
        )
        window = incident.node("slave-1").metrics[40:64]
        return pipe, ctx, window

    @staticmethod
    def _median_seconds(pipe, ctx, window, reps: int = 9) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            pipe.infer(ctx, window)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def test_enabled_infer_within_noise_of_disabled(
        self, infer_setup, bench_record
    ):
        pipe, ctx, window = infer_setup
        pipe.infer(ctx, window)  # warm the MIC cache for both passes
        disabled = self._median_seconds(pipe, ctx, window)
        obs.configure(enabled=True)
        enabled = self._median_seconds(pipe, ctx, window)
        obs.configure(enabled=False)
        bench_record(
            "obs_overhead",
            "infer_enabled_vs_disabled",
            disabled_median_seconds=round(disabled, 6),
            enabled_median_seconds=round(enabled, 6),
            overhead_ratio=round(enabled / disabled, 3) if disabled else None,
        )
        # full instrumentation stays within run-to-run noise (generous
        # bound: 1.5x + 5 ms absolute slack for tiny baselines)
        assert enabled <= disabled * 1.5 + 0.005


def steady_fleet(blackbox_dir=None):
    """A fleet of :data:`STEADY_CONTEXTS` lanes on a last-value
    ARIMA(0,1,0) detector; returns the fleet and its contexts."""
    from repro.core.anomaly import (
        AnomalyDetector,
        DriftThreshold,
        ThresholdRule,
    )
    from repro.core.invariants import InvariantSet
    from repro.serve import FleetMonitor
    from repro.stats.arima import ARIMAModel, ARIMAOrder
    from repro.store import ContextModels
    from repro.telemetry.metrics import MetricCatalog

    catalog = MetricCatalog(names=("m0", "m1", "m2", "m3"))
    pipe = InvarNetX(catalog=catalog)
    model = ARIMAModel(
        order=ARIMAOrder(0, 1, 0),
        ar=np.empty(0),
        ma=np.empty(0),
        intercept=0.0,
        sigma2=1.0,
    )
    contexts = []
    for i in range(STEADY_CONTEXTS):
        context = OperationContext("wordcount", f"node-{i}")
        contexts.append(context)
        pipe.store.adopt(
            context.key(),
            ContextModels(
                context=context,
                detector=AnomalyDetector.from_artifacts(
                    model,
                    DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5),
                ),
                invariants=InvariantSet(
                    pairs=[(0, 1)],
                    baseline=np.array([0.9]),
                    catalog=catalog,
                ),
            ),
        )
    fleet = FleetMonitor(
        pipe,
        shards=2,
        window_ticks=8,
        warmup_ticks=12,
        cooldown_ticks=30,
        blackbox_dir=blackbox_dir,
    )
    return fleet, contexts


class TestBlackboxSteadyStateOverhead:
    """Recording every tick into the flight ring must cost the fleet
    little next to running it without a blackbox (no alarms fire, so no
    bundle commits are in the measured path).

    A recorded tick appends one tuple of its columns; its metric row is
    already in the lane's row ring.  When each tick built a
    ``TickRecord`` from ``tuple(row.tolist())`` under a lock this ratio
    read 1.42x; :attr:`BUDGET` holds it at 1.15x.  Reps are interleaved
    and each side takes its best, as in :class:`TestFleetTickOverhead`.
    """

    CONTEXTS = STEADY_CONTEXTS
    TICKS = 150
    REPS = 9
    BUDGET = 1.15

    def _ingest_seconds(self, blackbox_dir=None) -> float:
        from repro.serve import Tick

        row = np.array([0.3, 0.5, 0.2, 0.4])
        fleet, contexts = steady_fleet(blackbox_dir)
        batches = [
            [Tick(context=c, metrics=row, cpi=1.0) for c in contexts]
            for _ in range(self.TICKS)
        ]
        t0 = time.perf_counter()
        for batch in batches:
            fleet.ingest(batch)
        return time.perf_counter() - t0

    def test_enabled_recorder_within_budget_of_disabled(
        self, bench_record, tmp_path
    ):
        times: dict[bool, list[float]] = {True: [], False: []}
        for rep in range(self.REPS):
            for enabled in (rep % 2 == 0, rep % 2 == 1):
                incidents = tmp_path / f"incidents-{rep}"
                times[enabled].append(
                    self._ingest_seconds(incidents if enabled else None)
                )
        # best of REPS per side: a burst of host noise only slows a rep
        disabled = min(times[False])
        enabled = min(times[True])
        ratio = enabled / disabled
        bench_record(
            "obs_overhead",
            "blackbox_steady_state_ingest",
            disabled_min_seconds=round(disabled, 6),
            enabled_min_seconds=round(enabled, 6),
            overhead_ratio=round(ratio, 3),
            budget=self.BUDGET,
            contexts=self.CONTEXTS,
            ticks=self.TICKS,
        )
        assert ratio <= self.BUDGET


class TestFleetTickOverhead:
    """A steady fleet tick with obs on vs off, reps interleaved in one
    process so host drift hits both sides alike.

    Every measured tick is a MONITORING tick of a warmed-up lane: one
    drift check, one ``observe``, and with obs on one write each to the
    lane's state-tick and check counters.  Those writes go through series
    bound once per lane; when each tick looked its two families up in
    the registry and validated the tick twice, this ratio measured
    ~1.9-2.0x (best of 15, 2-vCPU host), and ~1.3x since.  The two locked
    counter writes, ~1 us together, stay above the ROADMAP budget of
    1.05x on a lane tick this light (~7 us); :attr:`BOUND` asserts the
    reachable figure with headroom for host noise.
    """

    WARMUP_BATCHES = 14  # 12 warm-up ticks, then monitoring
    BATCHES = 150
    REPS = 15
    BOUND = 1.5

    def _ingest_seconds(self, enabled: bool) -> float:
        from repro.serve import Tick

        obs.reset()
        obs.configure(enabled=enabled)
        fleet, contexts = steady_fleet(None)
        row = np.array([0.3, 0.5, 0.2, 0.4])
        batches = [
            [Tick(context=c, metrics=row, cpi=1.0) for c in contexts]
            for _ in range(self.WARMUP_BATCHES + self.BATCHES)
        ]
        for batch in batches[: self.WARMUP_BATCHES]:
            fleet.ingest(batch)
        t0 = time.perf_counter()
        for batch in batches[self.WARMUP_BATCHES :]:
            fleet.ingest(batch)
        elapsed = time.perf_counter() - t0
        obs.configure(enabled=False)
        assert set(fleet.states().values()) == {"monitoring"}
        return elapsed

    def test_enabled_tick_within_budget_of_disabled(self, bench_record):
        times: dict[bool, list[float]] = {True: [], False: []}
        for rep in range(self.REPS):
            for enabled in (rep % 2 == 0, rep % 2 == 1):
                times[enabled].append(self._ingest_seconds(enabled))
        # best of REPS per side: a burst of host noise only slows a rep
        disabled = min(times[False])
        enabled = min(times[True])
        ratio = enabled / disabled
        bench_record(
            "obs_overhead",
            "fleet_tick_enabled_vs_disabled",
            disabled_min_seconds=round(disabled, 6),
            enabled_min_seconds=round(enabled, 6),
            overhead_ratio=round(ratio, 3),
            contexts=STEADY_CONTEXTS,
            ticks=self.BATCHES,
        )
        assert ratio <= self.BOUND
