"""Runtime metrics: counters, gauges and histograms with two exports.

A :class:`MetricsRegistry` owns named metric *families*; a family plus a
set of label values is one *series*.  The catalogue the instrumented
layers emit (see DESIGN.md §10 for the full table):

========================================  =========  ====================
name                                      type       labels
========================================  =========  ====================
``invarnetx_mic_cache_hits_total``        counter    —
``invarnetx_mic_cache_misses_total``      counter    —
``invarnetx_mic_pairs_scored_total``      counter    —
``invarnetx_anomaly_ticks_total``         counter    ``context``
``invarnetx_problems_detected_total``     counter    ``context``
``invarnetx_alarms_total``                counter    ``context``
``invarnetx_diagnoses_total``             counter    ``context``
``invarnetx_inference_seconds``           histogram  ``context``
``invarnetx_detect_seconds``              histogram  ``context``
``invarnetx_monitor_state_ticks_total``   counter    ``context``, ``state``
``invarnetx_monitor_transitions_total``   counter    ``context``, ``from``, ``to``
``invarnetx_store_publishes_total``       counter    ``backend``
``invarnetx_store_loads_total``           counter    ``backend``
========================================  =========  ====================

Exports:

- :meth:`MetricsRegistry.to_json` — a plain dict (families, series,
  histogram buckets) that round-trips through ``json.dumps``;
- :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, ``_bucket`` /
  ``_sum`` / ``_count`` histogram series with cumulative ``le`` labels).

A disabled registry (the default) makes every write a no-op after a
single attribute check, and the pre-bound series handles returned by
``family.series(...)`` write with *zero allocations* on the disabled
path — the same contract the tracer's no-op span keeps.

A hot path that writes one owner's series every call (a monitor lane's
per-tick counters) holds a :class:`CounterBinding` from
:meth:`MetricsRegistry.bind_counter` instead of re-requesting the family:
it creates each series on first write and binds again after
:meth:`MetricsRegistry.reset`.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

__all__ = [
    "Counter",
    "CounterBinding",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-flavoured; +Inf is
#: implicit).  Chosen to straddle the pipeline's observed latencies:
#: detection ~1 ms, inference 10 ms – 1 s depending on window size.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

_LabelKey = tuple[str, ...]


def _format_value(value: float) -> str:
    """Prometheus-style number: integers bare, floats as repr."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labelnames: tuple[str, ...], key: _LabelKey) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, key)
    )
    return "{" + pairs + "}"


class _Family:
    """Common machinery of one named metric family."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._series: dict[_LabelKey, Any] = {}  # repro: guarded-by=_lock
        self._lock = threading.Lock()

    def _key(self, labels: dict[str, str]) -> _LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def series(self, **labels: str):
        """The pre-bound series handle for one label-value assignment.

        Handles are cached per label key, so hot paths bind once (e.g. at
        monitor construction) and write through an allocation-free call.
        """
        key = self._key(labels)
        with self._lock:
            handle = self._series.get(key)
            if handle is None:
                handle = self._new_series(key)
                self._series[key] = handle
        return handle

    def _new_series(self, key: _LabelKey):
        raise NotImplementedError

    def _snapshot(self) -> list[tuple[_LabelKey, Any]]:
        with self._lock:
            return sorted(self._series.items())

    # rendering hooks ---------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        raise NotImplementedError

    def render(self) -> list[str]:
        raise NotImplementedError


class _CounterSeries:
    __slots__ = ("_registry", "_lock", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.value = 0.0  # repro: guarded-by=_lock

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self.value += amount


class Counter(_Family):
    """Monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def _new_series(self, key: _LabelKey) -> _CounterSeries:
        return _CounterSeries(self._registry)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Convenience: increment the series for ``labels`` by ``amount``."""
        if not self._registry.enabled:
            return
        self.series(**labels).inc(amount)

    def value(self, **labels: str) -> float:
        """Current value of one series (0.0 if never written)."""
        return float(self.series(**labels).value)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """Every series as ``(labels, value)``, sorted by label key.

        The public read surface consumers like the SLO tracker and
        ``invarnetx top`` aggregate over.
        """
        return [
            (dict(zip(self.labelnames, key)), float(s.value))
            for key, s in self._snapshot()
        ]

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "series": [
                {"labels": dict(zip(self.labelnames, key)), "value": s.value}
                for key, s in self._snapshot()
            ],
        }

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, s in self._snapshot():
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(s.value)}")
        return lines


class _GaugeSeries:
    __slots__ = ("_registry", "_lock", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.value = 0.0  # repro: guarded-by=_lock

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(Counter):
    """A value that can go up and down (resident slots, queue depth)."""

    kind = "gauge"

    def _new_series(self, key: _LabelKey) -> _GaugeSeries:
        return _GaugeSeries(self._registry)

    def set(self, value: float, **labels: str) -> None:
        """Convenience: set the series for ``labels`` to ``value``."""
        if not self._registry.enabled:
            return
        self.series(**labels).set(value)


class _HistogramSeries:
    __slots__ = ("_registry", "_lock", "buckets", "counts", "sum", "count")

    def __init__(
        self, registry: "MetricsRegistry", buckets: tuple[float, ...]
    ) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +Inf slot; repro: guarded-by=_lock
        self.sum = 0.0  # repro: guarded-by=_lock
        self.count = 0  # repro: guarded-by=_lock

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1


class Histogram(_Family):
    """Distribution of observations over fixed cumulative buckets."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def _new_series(self, key: _LabelKey) -> _HistogramSeries:
        return _HistogramSeries(self._registry, self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        """Convenience: record one observation on the series for
        ``labels``."""
        if not self._registry.enabled:
            return
        self.series(**labels).observe(value)

    def samples(
        self,
    ) -> list[tuple[dict[str, str], float, int, list[tuple[float, int]]]]:
        """Every series as ``(labels, sum, count, cumulative buckets)``.

        Buckets are ``(upper_bound, cumulative_count)`` in bound order,
        excluding the implicit ``+Inf`` (whose cumulative count is
        ``count``).
        """
        out = []
        for key, s in self._snapshot():
            cumulative = 0
            buckets: list[tuple[float, int]] = []
            for bound, n in zip(self.buckets, s.counts):
                cumulative += n
                buckets.append((bound, cumulative))
            out.append(
                (dict(zip(self.labelnames, key)), s.sum, s.count, buckets)
            )
        return out

    def to_json(self) -> dict[str, Any]:
        series = []
        for key, s in self._snapshot():
            cumulative = 0
            buckets = []
            for bound, n in zip(self.buckets, s.counts):
                cumulative += n
                buckets.append({"le": bound, "count": cumulative})
            buckets.append({"le": "+Inf", "count": s.count})
            series.append(
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "sum": s.sum,
                    "count": s.count,
                    "buckets": buckets,
                }
            )
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "series": series,
        }

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        bucket_names = self.labelnames + ("le",)
        for key, s in self._snapshot():
            cumulative = 0
            for bound, n in zip(self.buckets, s.counts):
                cumulative += n
                labels = _render_labels(
                    bucket_names, key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _render_labels(bucket_names, key + ("+Inf",))
            lines.append(f"{self.name}_bucket{labels} {s.count}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(s.sum)}")
            lines.append(f"{self.name}_count{plain} {s.count}")
        return lines


class CounterBinding:
    """One owner's series of one counter family, bound on first write.

    ``series(*values)`` takes the values of the labels not fixed at bind
    time, in family order, and returns the cached series handle.  The
    family and each series are created on first use, so nothing is
    exported before the first write.  A :meth:`MetricsRegistry.reset`
    drops every family and bumps the registry's generation; the next
    call notices the new generation (one int compare) and binds again.
    A write racing the reset itself may land in the dropped family, as a
    get-or-create lookup racing it would.

    Not thread-safe on its own: the owner serialises its calls (a fleet
    lane under its shard lock, a standalone monitor on its one thread).
    """

    __slots__ = (
        "_registry", "_name", "_help", "_labelnames", "_fixed", "_free",
        "_generation", "_handles",
    )

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        fixed: dict[str, str],
    ) -> None:
        self._registry = registry
        self._name = name
        self._help = help
        self._labelnames = labelnames
        self._fixed = fixed
        self._free = tuple(n for n in labelnames if n not in fixed)
        self._generation = -1
        self._handles: dict[_LabelKey, _CounterSeries] = {}

    def series(self, *values: str) -> _CounterSeries:
        """The series for the free label ``values`` (created if new)."""
        generation = self._registry.generation
        if generation != self._generation:
            self._handles = {}
            self._generation = generation
        handle = self._handles.get(values)
        if handle is None:
            family = self._registry.counter(
                self._name, self._help, self._labelnames
            )
            labels = dict(zip(self._free, values), **self._fixed)
            handle = family.series(**labels)
            self._handles[values] = handle
        return handle


class MetricsRegistry:
    """Named metric families with get-or-create semantics.

    Re-requesting a name returns the existing family; requesting it with
    a different kind or label set is an error (two call sites silently
    writing incompatible series is exactly the confusion a registry
    exists to prevent).

    Args:
        enabled: collect immediately (default off; every write is then a
            cheap no-op).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._families: dict[str, _Family] = {}  # repro: guarded-by=_lock
        #: Bumped by every :meth:`reset`; bindings compare it per write.
        self.generation = 0  # repro: guarded-by=_lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(
        self, cls: type, name: str, help: str, labelnames: tuple[str, ...],
        **kwargs: Any,
    ) -> Any:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(self, name, help, labelnames, **kwargs)
                self._families[name] = family
                return family
        if type(family) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        if family.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{family.labelnames}, requested {labelnames}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        """Get or create the counter family ``name``."""
        return self._get_or_create(Counter, name, help, tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        """Get or create the gauge family ``name``."""
        return self._get_or_create(Gauge, name, help, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram family ``name``."""
        return self._get_or_create(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    def bind_counter(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        **fixed: str,
    ) -> CounterBinding:
        """A :class:`CounterBinding` of the counter ``name`` with the
        ``fixed`` label values; creates nothing until its first write."""
        return CounterBinding(self, name, help, tuple(labelnames), fixed)

    # ------------------------------------------------------------------
    def families(self) -> list[_Family]:
        """Registered families, sorted by name."""
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    def family(self, name: str) -> Any:
        """The registered family named ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    # repro: deterministic
    def to_json(self) -> dict[str, Any]:
        """All families and series as a JSON-ready dict."""
        return {f.name: f.to_json() for f in self.families()}

    # repro: deterministic
    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every family."""
        lines: list[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every family (tests; a fresh process worth of metrics).
        Bindings notice the new :attr:`generation` and bind again."""
        with self._lock:
            self._families.clear()
            self.generation += 1
