"""Per-layer counters for the traced run, recorded from outside the program.

:func:`install` replaces public functions and methods of each layer with
timing wrappers (module attributes are patched where the caller looks
them up, e.g. ``repro.serve.fleet.fast_check``).  Nothing under ``src/``
changes, and an untraced run never imports this module, so the untraced
and traced runs execute the same program; the difference between them is
the tracing overhead, which :func:`layer_metrics` also estimates from a
calibrated per-call wrapper cost (:func:`wrapper_cost_s`).

Names follow the program's own span names (``pipeline.detect``,
``fleet.ingest``, ``http.request`` ...), so the benchmark and the live
system share one vocabulary.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Layer metrics every traced run prints: (unit, which way is better).
#: Counts of work done in a fixed time read "higher"; busy time, waste
#: and shares of a stage to cut read "lower".  Metrics a workload does
#: not exercise read 0.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "micfast.matrices": ("count", "lower"),
    "micfast.busy_s": ("s", "lower"),
    "micfast.cache_hit_ratio": ("ratio", "higher"),
    "arima.select_order_s": ("s", "lower"),
    "arima.predict_next_calls": ("count", "lower"),
    "arima.predict_next_s": ("s", "lower"),
    "arima.contexts_q0": ("count", "higher"),
    "arima.contexts_q_gt0": ("count", "lower"),
    "pipeline.train_performance_model_s": ("s", "lower"),
    "pipeline.build_invariants_s": ("s", "lower"),
    "pipeline.train_signature_s": ("s", "lower"),
    "pipeline.detect_s": ("s", "lower"),
    "pipeline.detect_calls_per_diagnosis": ("ratio", "lower"),
    "pipeline.infer_s": ("s", "lower"),
    "pipeline.infer_calls": ("count", "higher"),
    "stage_share.select_order": ("ratio", "lower"),
    "stage_share.train_performance_model": ("ratio", "lower"),
    "stage_share.build_invariants": ("ratio", "lower"),
    "stage_share.train_signature": ("ratio", "lower"),
    "stage_share.store_persist": ("ratio", "lower"),
    "stage_share.ledger_append": ("ratio", "lower"),
    "online.observe_calls": ("count", "higher"),
    "online.observe_s": ("s", "lower"),
    "online.ticks_by_state.warmup": ("count", "lower"),
    "online.ticks_by_state.monitoring": ("count", "higher"),
    "online.ticks_by_state.collecting": ("count", "lower"),
    "online.ticks_by_state.cooldown": ("count", "lower"),
    "online.alarms": ("count", "lower"),
    "online.diagnoses": ("count", "higher"),
    "fastpath.fast_check_calls": ("count", "higher"),
    "fastpath.fast_check_s": ("s", "lower"),
    "fastpath.served_ratio": ("ratio", "higher"),
    "fleet.ingest_calls": ("count", "higher"),
    "fleet.ingest_s": ("s", "lower"),
    "fleet.accepted": ("count", "higher"),
    "fleet.rejected": ("count", "lower"),
    "fleet.events": ("count", "lower"),
    "fleet.lanes": ("count", "higher"),
    "fleet.first_batch_s": ("s", "lower"),
    "http.requests": ("count", "higher"),
    "http.failed": ("count", "lower"),
    "http.body_bytes": ("bytes", "lower"),
    "http.overhead_ms_p50": ("ms", "lower"),
    "http.explain_overhead_ms_p50": ("ms", "lower"),
    "blackbox.record_calls": ("count", "higher"),
    "blackbox.record_s": ("s", "lower"),
    "blackbox.bundles": ("count", "higher"),
    "blackbox.commit_bundle_s": ("s", "lower"),
    "ledger.entries": ("count", "higher"),
    "ledger.append_s": ("s", "lower"),
    "explain.explain_window_s": ("s", "lower"),
    "store.persist_calls": ("count", "lower"),
    "store.persist_s": ("s", "lower"),
    "store.load_s": ("s", "lower"),
    "loadgen.lateness_ms_max": ("ms", "lower"),
    "loadgen.sent": ("count", "higher"),
    "loadgen.answered": ("count", "higher"),
    "trace.wrapper_calls": ("count", "lower"),
    "trace.overhead_est_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

#: Per-layer metrics that cannot be measured from outside the program,
#: with the reason (printed by every traced run).
UNMEASURED = {
    "fleet path split parse/route": (
        "HTTP body parsing and shard routing run inside private helpers "
        "(_route_post, _parse_tick, shard_index calls inside ingest); "
        "http.overhead_ms_p50 carries their sum with the socket time"
    ),
    "pipeline.build_invariants in train_from_runs": (
        "train_from_runs inlines Algorithm 1 instead of calling "
        "build_invariants; the stage is timed as run_association_matrix "
        "plus select_invariants"
    ),
    "waiting time per layer": (
        "shard-lock and ingest-pool queue waits happen inside "
        "FleetMonitor.ingest and are not separable from its busy time"
    ),
}


class Recorder:
    """Thread-safe call counts and busy seconds per layer name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count: defaultdict[str, float] = defaultdict(float)
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.ingest_by_request: dict[str, float] = {}
        self.handler_by_request: dict[str, float] = {}
        self.first_batch_s: float | None = None
        self.wrapper_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_base = (0, 0)

    def add(self, name: str, seconds: float, n: float = 1) -> None:
        with self._lock:
            self.count[name] += n
            self.seconds[name] += seconds
            self.wrapper_calls += 1

    def bump(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.count[name] += n

    # -- MIC cache accounting ------------------------------------------
    def absorb_cache(self, clearing: bool) -> None:
        """Fold the process-wide MIC cache counters in; call before each
        ``clear_association_cache()`` (which resets them) and at the end."""
        from repro.stats.micfast import association_cache

        stats = association_cache().stats()
        hits0, misses0 = self._cache_base
        with self._lock:
            self.cache_hits += stats["hits"] - hits0
            self.cache_misses += stats["misses"] - misses0
        self._cache_base = (0, 0) if clearing else (
            stats["hits"], stats["misses"],
        )

    def reset(self) -> None:
        """Start a new phase (the MIC cache baseline moves to now)."""
        self.absorb_cache(clearing=False)
        with self._lock:
            self.count.clear()
            self.seconds.clear()
            self.ingest_by_request.clear()
            self.handler_by_request.clear()
            self.wrapper_calls = 0
            self.cache_hits = 0
            self.cache_misses = 0

    def snapshot(self) -> dict:
        self.absorb_cache(clearing=False)
        with self._lock:
            return {
                "count": dict(self.count),
                "seconds": dict(self.seconds),
                "ingest_by_request": dict(self.ingest_by_request),
                "handler_by_request": dict(self.handler_by_request),
                "first_batch_s": self.first_batch_s,
                "wrapper_calls": self.wrapper_calls,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
            }


def wrapper_cost_s() -> float:
    """Calibrated extra cost of one timing wrapper call (seconds)."""
    rec = Recorder()

    def plain(x):
        return x

    wrapped = _timed(rec, plain, "calibration")
    n = 20000
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(n):
            plain(i)
        t1 = time.perf_counter()
        for i in range(n):
            wrapped(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def _timed(rec: Recorder, fn, name: str, after=None):
    """``fn`` wrapped to add its wall time under ``name``; ``after`` gets
    ``(args, kwargs, result, seconds)`` for extra counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        rec.add(name, dt)
        if after is not None:
            after(args, kwargs, result, dt)
        return result

    return wrapper


def _patch(rec: Recorder, owner, attr: str, name: str, after=None) -> None:
    setattr(owner, attr, _timed(rec, getattr(owner, attr), name, after))


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points with ``rec`` counters."""
    import repro.core.anomaly as anomaly
    import repro.core.pipeline as pipeline_mod
    import repro.obs.explain as explain_mod
    import repro.serve.fleet as fleet_mod
    import repro.store.directory as directory_mod
    from repro.core.online import DiagnosisEvent, MonitorState, OnlineMonitor
    from repro.core.pipeline import InvarNetX
    from repro.obs.blackbox import FlightRecorder
    from repro.obs.ledger import RunLedger
    from repro.serve.fleet import FleetMonitor
    from repro.serve.http import FleetRequestHandler
    from repro.stats.arima import ARIMAModel

    # repro.stats.micfast — every association matrix goes through here
    _patch(rec, InvarNetX, "association_matrix", "micfast.association_matrix")

    # repro.stats.arima
    _patch(rec, anomaly, "select_order", "arima.select_order")
    _patch(rec, ARIMAModel, "predict_next", "arima.predict_next")

    # repro.core.pipeline (Table 1 stages)
    _patch(rec, InvarNetX, "train_performance_model",
           "pipeline.train_performance_model")
    _patch(rec, InvarNetX, "run_association_matrix",
           "pipeline.build_invariants")
    _patch(rec, pipeline_mod, "select_invariants", "pipeline.build_invariants")
    _patch(rec, InvarNetX, "train_signature", "pipeline.train_signature")
    _patch(rec, InvarNetX, "detect", "pipeline.detect")
    _patch(rec, InvarNetX, "infer", "pipeline.infer")

    diagnose = InvarNetX.diagnose_run

    @functools.wraps(diagnose)
    def diagnose_run(*args, **kwargs):
        before = rec.count.get("pipeline.detect", 0)
        result = diagnose(*args, **kwargs)
        rec.bump("pipeline.diagnose_run")
        rec.bump("pipeline.detect_in_diagnose",
                 rec.count.get("pipeline.detect", 0) - before)
        return result

    InvarNetX.diagnose_run = diagnose_run

    # repro.core.online
    observe = OnlineMonitor.observe

    @functools.wraps(observe)
    def observe_wrapper(self, *args, **kwargs):
        state = self.state.value
        t0 = time.perf_counter()
        event = observe(self, *args, **kwargs)
        rec.add("online.observe", time.perf_counter() - t0)
        rec.bump(f"online.ticks_by_state.{state}")
        if event is not None:
            rec.bump("online.diagnoses" if isinstance(event, DiagnosisEvent)
                     else "online.alarms")
        return event

    OnlineMonitor.observe = observe_wrapper

    # repro.serve.fastpath, looked up by the fleet's drain loop
    fast_check = fleet_mod.fast_check

    @functools.wraps(fast_check)
    def fast_check_wrapper(monitor, cpi):
        monitoring = monitor.state is MonitorState.MONITORING
        t0 = time.perf_counter()
        verdict = fast_check(monitor, cpi)
        rec.add("fastpath.fast_check", time.perf_counter() - t0)
        if monitoring:
            rec.bump("fastpath.monitoring_calls")
            if verdict is not None:
                rec.bump("fastpath.served")
        return verdict

    fleet_mod.fast_check = fast_check_wrapper

    # repro.serve.fleet
    ingest = FleetMonitor.ingest

    @functools.wraps(ingest)
    def ingest_wrapper(self, batch, request_id=""):
        t0 = time.perf_counter()
        result = ingest(self, batch, request_id)
        dt = time.perf_counter() - t0
        rec.add("fleet.ingest", dt)
        rec.bump("fleet.accepted", result.accepted)
        rec.bump("fleet.rejected", result.rejected)
        rec.bump("fleet.events", len(result.events))
        with rec._lock:
            if rec.first_batch_s is None:
                rec.first_batch_s = dt
            if request_id:
                rec.ingest_by_request[request_id] = dt
        return result

    FleetMonitor.ingest = ingest_wrapper

    # repro.serve.http — statuses come through the stdlib send_response;
    # handler times are keyed by the client's X-Request-Id so the client
    # can subtract them from its round trips
    def handled(args, kwargs, result, dt):
        handler = args[0]
        rid = handler.headers.get("X-Request-Id", "")
        with rec._lock:
            if rid:
                rec.handler_by_request[rid] = dt
        if handler.command == "POST":
            try:
                rec.bump("http.body_bytes",
                         int(handler.headers.get("Content-Length", "0")))
            except ValueError:
                pass

    _patch(rec, FleetRequestHandler, "do_GET", "http.request", after=handled)
    _patch(rec, FleetRequestHandler, "do_POST", "http.request",
           after=handled)
    send_response = FleetRequestHandler.send_response

    @functools.wraps(send_response)
    def send_response_wrapper(self, code, message=None):
        if code != 200:
            rec.bump("http.failed")
        return send_response(self, code, message)

    FleetRequestHandler.send_response = send_response_wrapper

    # repro.obs.blackbox
    _patch(rec, FlightRecorder, "record", "blackbox.record")
    _patch(rec, fleet_mod, "commit_bundle", "blackbox.commit_bundle")

    # repro.obs.ledger
    _patch(rec, RunLedger, "append", "ledger.append")

    # repro.obs.explain, imported by FleetMonitor.explain at call time
    _patch(rec, explain_mod, "explain_window", "explain.explain_window")

    # repro.store
    _patch(rec, directory_mod.DirectoryStore, "persist", "store.persist")
    for loader in ("load_performance_model", "load_invariants",
                   "load_signatures"):
        _patch(rec, directory_mod, loader, "store.load")


def layer_metrics(
    timed: dict, setup: dict, per_call_s: float, timed_wall_s: float,
) -> dict[str, float]:
    """The :data:`LAYER_METRICS` values from a timed-phase snapshot (and
    the set-up snapshot, for lazy lane builds and store loads)."""
    n, s = timed["count"], timed["seconds"]

    def c(name):
        return float(n.get(name, 0.0))

    def t(name):
        return float(s.get(name, 0.0))

    lookups = timed["cache_hits"] + timed["cache_misses"]
    monitoring = c("fastpath.monitoring_calls")
    diagnoses = c("pipeline.diagnose_run")
    out = {
        "micfast.matrices": float(timed["cache_misses"]),
        "micfast.busy_s": t("micfast.association_matrix"),
        "micfast.cache_hit_ratio": (
            timed["cache_hits"] / lookups if lookups else 0.0),
        "arima.select_order_s": t("arima.select_order"),
        "arima.predict_next_calls": c("arima.predict_next"),
        "arima.predict_next_s": t("arima.predict_next"),
        "pipeline.train_performance_model_s": t(
            "pipeline.train_performance_model"),
        "pipeline.build_invariants_s": t("pipeline.build_invariants"),
        "pipeline.train_signature_s": t("pipeline.train_signature"),
        "pipeline.detect_s": t("pipeline.detect"),
        "pipeline.detect_calls_per_diagnosis": (
            c("pipeline.detect_in_diagnose") / diagnoses if diagnoses else 0.0),
        "pipeline.infer_s": t("pipeline.infer"),
        "pipeline.infer_calls": c("pipeline.infer"),
        "online.observe_calls": c("online.observe"),
        "online.observe_s": t("online.observe"),
        "online.alarms": c("online.alarms"),
        "online.diagnoses": c("online.diagnoses"),
        "fastpath.fast_check_calls": c("fastpath.fast_check"),
        "fastpath.fast_check_s": t("fastpath.fast_check"),
        "fastpath.served_ratio": (
            c("fastpath.served") / monitoring if monitoring else 0.0),
        "fleet.ingest_calls": c("fleet.ingest"),
        "fleet.ingest_s": t("fleet.ingest"),
        "fleet.accepted": c("fleet.accepted"),
        "fleet.rejected": c("fleet.rejected"),
        "fleet.events": c("fleet.events"),
        "fleet.first_batch_s": float(setup.get("first_batch_s") or 0.0),
        "http.requests": c("http.request"),
        "http.failed": c("http.failed"),
        "http.body_bytes": c("http.body_bytes"),
        "blackbox.record_calls": c("blackbox.record"),
        "blackbox.record_s": t("blackbox.record"),
        "blackbox.bundles": c("blackbox.commit_bundle"),
        "blackbox.commit_bundle_s": t("blackbox.commit_bundle"),
        "ledger.entries": c("ledger.append"),
        "ledger.append_s": t("ledger.append"),
        "explain.explain_window_s": t("explain.explain_window"),
        "store.persist_calls": c("store.persist"),
        "store.persist_s": t("store.persist"),
        "store.load_s": t("store.load") + float(
            setup["seconds"].get("store.load", 0.0)),
    }
    for state in ("warmup", "monitoring", "collecting", "cooldown"):
        out[f"online.ticks_by_state.{state}"] = c(
            f"online.ticks_by_state.{state}")
    calls = timed["wrapper_calls"]
    out["trace.wrapper_calls"] = float(calls)
    out["trace.overhead_est_s"] = calls * per_call_s
    out["trace.overhead_share"] = (
        calls * per_call_s / timed_wall_s if timed_wall_s > 0 else 0.0)
    return out
