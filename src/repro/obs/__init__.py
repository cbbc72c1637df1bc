"""``repro.obs`` — observability for the reproduction itself.

The rest of :mod:`repro` models a *monitored* Hadoop cluster
(:mod:`repro.telemetry` is the cluster's collectl/perf data).  This
package watches the *diagnoser*: structured spans over every pipeline
stage, a runtime-metrics registry with JSON and Prometheus exports, a
stdlib-``logging`` bridge, and incident explainability — the report an
operator reads to see *why* a cause ranked first.

Everything is off by default and free when off: the tracer returns a
no-op singleton span, metric writes bail on one attribute check, and no
logging handler is installed.  One call turns it on::

    import repro.obs as obs

    obs.configure(enabled=True, log_level="info")
    ...                      # train / diagnose as usual
    print(obs.metrics_registry().render_prometheus())
    print(obs.render_trace())

Layout:

- :mod:`repro.obs.tracing` — spans, :class:`Tracer`, injectable clock;
- :mod:`repro.obs.metrics` — counters/gauges/histograms + exports;
- :mod:`repro.obs.bridge` — loggers, ``log_event``, ``warn_once``;
- :mod:`repro.obs.ledger` — the append-only JSONL run ledger;
- :mod:`repro.obs.traceexport` — Chrome ``trace_event`` span export;
- :mod:`repro.obs.explain` — incident explanation reports (imported
  lazily: it depends on :mod:`repro.core`, which itself emits into this
  package — eager import would be a cycle);
- :mod:`repro.obs.health` — the model drift watchdog (lazy for the same
  reason as explain);
- :mod:`repro.obs.prof` — stdlib sampling profiler with collapsed-stack
  and speedscope exports, span-attributed (lazy: only pay for it when
  profiling);
- :mod:`repro.obs.slo` — multi-window burn-rate SLO tracking over the
  HTTP metrics, edge-triggered ledger transitions (lazy likewise);
- :mod:`repro.obs.blackbox` — per-lane incident flight recorder,
  content-fingerprinted incident bundles, and deterministic bundle
  replay (lazy: it drives the full :mod:`repro.core` pipeline).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, TextIO

from repro.obs.bridge import (
    get_logger,
    install_handler,
    log_event,
    remove_handler,
    warn_once,
)
from repro.obs.ledger import (
    LEDGER_NAME,
    RunLedger,
    config_fingerprint,
    stage_timings,
    summarize_residuals,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.traceexport import chrome_trace, write_chrome_trace
from repro.obs.tracing import NOOP_SPAN, Span, Tracer, render_spans

__all__ = [
    "configure",
    "enabled",
    "span",
    "tracer",
    "metrics_registry",
    "render_trace",
    "reset",
    "get_logger",
    "log_event",
    "warn_once",
    "install_handler",
    "remove_handler",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "MetricsRegistry",
    "RunLedger",
    "LEDGER_NAME",
    "config_fingerprint",
    "stage_timings",
    "summarize_residuals",
    "chrome_trace",
    "write_chrome_trace",
    "export_chrome_trace",
    # lazy (repro.obs.explain):
    "explain_run",
    "explain_window",
    "IncidentExplanation",
    # lazy (repro.obs.health):
    "HealthThresholds",
    "HealthReport",
    "score_store",
    "score_context",
    # lazy (repro.obs.prof):
    "SamplingProfiler",
    "ProfileReport",
    "capture_profile",
    # lazy (repro.obs.slo):
    "SLOTracker",
    "SLOObjective",
    "SLOStatus",
    "BurnWindow",
    "default_objectives",
    # lazy (repro.obs.blackbox):
    "FlightRecorder",
    "FlightSnapshot",
    "IncidentBundle",
    "commit_bundle",
    "load_bundle",
    "replay_bundle",
    "ReplayResult",
]

#: Process-wide singletons.  They are mutated in place and never replaced,
#: so instrument sites and pre-bound metric series stay valid across
#: :func:`configure` calls.
_TRACER = Tracer()
_REGISTRY = MetricsRegistry()


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def metrics_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def enabled() -> bool:
    """Is observability collection on?  Hot paths check this once and
    skip all metric/span work when False."""
    return _REGISTRY.enabled


def span(name: str):
    """A span on the process tracer; :data:`NOOP_SPAN` when disabled.

    Name-only by design — see :meth:`Tracer.span` for why attributes are
    attached behind an ``if sp:`` guard instead.
    """
    return _TRACER.span(name)


def configure(
    enabled: bool | None = None,
    log_level: int | str | None = None,
    trace: bool | None = None,
    clock: Callable[[], float] | None = None,
    stream: TextIO | None = None,
) -> None:
    """Configure process-wide observability.

    Args:
        enabled: master switch for spans *and* metrics (None = leave).
        log_level: install the logging bridge's stream handler on the
            ``repro`` hierarchy at this level (None = leave handlers).
        trace: override just the tracer (``--trace`` without metrics, or
            metrics without span retention).  Applied after ``enabled``.
        clock: replace the tracer's monotonic clock (tests inject fakes).
        stream: destination for the log handler (default stderr).
    """
    if enabled is not None:
        _REGISTRY.enabled = enabled
        _TRACER.enabled = enabled
    if trace is not None:
        _TRACER.enabled = trace
    if clock is not None:
        _TRACER.clock = clock
    if log_level is not None:
        install_handler(log_level, stream=stream)


def render_trace() -> str:
    """Text rendering of every completed root span (oldest first)."""
    return render_spans(_TRACER.roots())


def export_chrome_trace(path: str | Path) -> Path:
    """Write the process tracer's finished spans as a Chrome trace file.

    Args:
        path: destination; parent directories are created.

    Returns:
        The path written.
    """
    return write_chrome_trace(path, _TRACER.roots())


def reset() -> None:
    """Drop collected spans and metric families (enabled flags, clock
    and logging handlers are left as configured)."""
    _TRACER.reset()
    _REGISTRY.reset()


#: Symbols resolved on first access from modules that import
#: :mod:`repro.core` (which emits into this package — eager import would
#: be a cycle).
_LAZY = {
    "explain_run": "repro.obs.explain",
    "explain_window": "repro.obs.explain",
    "IncidentExplanation": "repro.obs.explain",
    "HealthThresholds": "repro.obs.health",
    "HealthReport": "repro.obs.health",
    "score_store": "repro.obs.health",
    "score_context": "repro.obs.health",
    "SamplingProfiler": "repro.obs.prof",
    "ProfileReport": "repro.obs.prof",
    "capture_profile": "repro.obs.prof",
    "SLOTracker": "repro.obs.slo",
    "SLOObjective": "repro.obs.slo",
    "SLOStatus": "repro.obs.slo",
    "BurnWindow": "repro.obs.slo",
    "default_objectives": "repro.obs.slo",
    "FlightRecorder": "repro.obs.blackbox",
    "FlightSnapshot": "repro.obs.blackbox",
    "IncidentBundle": "repro.obs.blackbox",
    "commit_bundle": "repro.obs.blackbox",
    "load_bundle": "repro.obs.blackbox",
    "replay_bundle": "repro.obs.blackbox",
    "ReplayResult": "repro.obs.blackbox",
}

#: Lazy names whose source symbol differs from the exported name.
_LAZY_ALIASES = {"capture_profile": "capture"}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        source = _LAZY_ALIASES.get(name, name)
        return getattr(importlib.import_module(module_name), source)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
