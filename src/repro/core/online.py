"""Streaming deployment of the online part (Fig. 3, right half).

A real deployment does not see whole runs: collectl/perf deliver one
sample every 10 seconds.  :class:`OnlineMonitor` is the stateful wrapper
an agent would run per operation context:

1. **monitoring** — each new CPI sample is checked against the ARIMA
   one-step prediction; three consecutive anomalies raise the alarm
   (§3.2's robustness rule).  The prediction is streamed by a
   :class:`~repro.stats.arima.OneStepPredictor` (O(p + d + q) per tick
   for every order; DESIGN.md §13.2);
2. **collecting** — after the alarm, metric samples are gathered until the
   abnormal window is full (the alarm's lead-in samples are included,
   matching :meth:`InvarNetX.extract_abnormal_window`);
3. **diagnosing** — cause inference runs on the collected window and a
   :class:`DiagnosisEvent` is emitted, after which the monitor holds a
   cool-down before re-arming (one incident, one report).

Diagnosis goes through :meth:`InvarNetX.infer`, so the collected window's
association matrix is computed once, by the batched MIC engine
(:mod:`repro.stats.micfast`); the event's explain report and incident
bundle are projections of that one :class:`InferenceResult`.

Each tick is validated once, by :meth:`OnlineMonitor.accepts`, inside
:meth:`OnlineMonitor.observe`, which refuses a bad tick with
:class:`MalformedTick` before anything is recorded.  The drift check
(:meth:`OnlineMonitor.check`) is pure, so a caller may run it ahead of
``observe`` and hand the verdict in; ``observe`` counts the verdict it
consumes.  The per-tick counters are written through series bound once
per monitor (:meth:`repro.obs.metrics.MetricsRegistry.bind_counter`), not
looked up in the registry per tick.

Each accepted metric row is copied once, into a preallocated row ring
(tick ``t`` at row ``t % capacity``): the alarm's lead-in is its last
``CONSECUTIVE + 2`` rows and the abnormal window a copy of its last
``window_ticks`` rows.  A monitor may carry its lane's flight ring
(:attr:`OnlineMonitor.recorder`, a
:class:`~repro.obs.blackbox.FlightRecorder`, see :meth:`attach`), which
reads its metric rows from the row ring; the monitor notes its own state
transitions into it, the feeder records each tick's other columns after
:meth:`OnlineMonitor.observe`.  No blackbox means no recorder.
"""

from __future__ import annotations

import enum
import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

import repro.obs as obs
from repro.core.context import OperationContext
from repro.core.inference import InferenceResult, read_ranking
from repro.core.pipeline import ABNORMAL_WINDOW_TICKS, InvarNetX
from repro.stats.arima import OneStepPredictor

if TYPE_CHECKING:  # pragma: no cover - repro.obs.blackbox imports this module
    from repro.obs.blackbox import FlightRecorder

__all__ = [
    "MonitorState",
    "AlarmEvent",
    "DiagnosisEvent",
    "read_summary",
    "MalformedTick",
    "OnlineMonitor",
]

_log = obs.get_logger("core.online")


class MonitorState(enum.Enum):
    """Lifecycle of the streaming monitor."""

    WARMUP = "warmup"
    MONITORING = "monitoring"
    COLLECTING = "collecting"
    COOLDOWN = "cooldown"


@dataclass(frozen=True)
class AlarmEvent:
    """Raised at the third consecutive anomalous CPI sample."""

    tick: int


@dataclass(frozen=True)
class DiagnosisEvent:
    """Emitted when the abnormal window has been collected and inferred.

    Attributes:
        tick: tick the window filled and inference ran.
        alarm_tick: tick the alarm was raised.
        inference: the cause-inference result.
        window: the collected abnormal metric window the inference ran
            on — the evidence an incident bundle stores and replay
            re-infers from (explanations project ``inference``).
    """

    tick: int
    alarm_tick: int
    inference: InferenceResult
    window: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def root_cause(self) -> str | None:
        """The top-ranked matched cause, or None."""
        return self.inference.top_cause

    def to_dict(self) -> dict[str, Any]:
        """The one recorded form of this diagnosis: its ticks plus
        :meth:`InferenceResult.to_dict`.  A bundle's ``report.json`` is
        this record; every other record projects it (:meth:`summary`)."""
        return {
            "tick": self.tick,
            "alarm_tick": self.alarm_tick,
            **self.inference.to_dict(),
        }

    def id_fields(self) -> dict[str, Any]:
        """What an incident bundle's id fingerprints: the ticks and the
        ranking as ``[problem, score]`` pairs, scores to 6 places."""
        ranking, _ = read_ranking(self.to_dict())
        return {
            "tick": self.tick,
            "alarm_tick": self.alarm_tick,
            "causes": [[p, round(s, 6)] for p, s in ranking],
        }

    def summary(self) -> dict[str, Any]:
        """The head of :meth:`to_dict` that the bundle manifest, the
        ``fleet-diagnose`` ledger entry and the HTTP event carry: the
        ticks, ``cause`` (the matched top cause, or None) and
        ``matched``."""
        return read_summary({**self.to_dict(), "cause": self.root_cause})


def read_summary(record: Mapping[str, Any]) -> dict[str, Any]:
    """The :meth:`DiagnosisEvent.summary` fields of any record of a
    diagnosis (a bundle manifest, a ledger entry, an HTTP event)."""
    return {k: record[k] for k in ("tick", "alarm_tick", "cause", "matched")}


class MalformedTick(ValueError):
    """A tick :meth:`OnlineMonitor.observe` refuses (see
    :meth:`OnlineMonitor.accepts`); the fleet counts it as malformed."""


class OnlineMonitor:
    """Per-context streaming monitor.

    Args:
        pipeline: a trained :class:`InvarNetX` (performance model and
            invariants for ``context`` must exist; signatures optional).
            A pipeline attached to a populated model store qualifies: the
            context's artifacts are rehydrated on construction, so a
            monitor can start warm in a process that never trained.
        context: the operation context being monitored.
        window_ticks: abnormal-window length for cause inference.
        warmup_ticks: samples to buffer before drift checks begin (the
            ARIMA recursion needs history).
        cooldown_ticks: ticks to stay silent after emitting a diagnosis.
    """

    #: Consecutive anomalous samples required to raise the alarm (§3.2).
    CONSECUTIVE = 3

    def __init__(
        self,
        pipeline: InvarNetX,
        context: OperationContext,
        window_ticks: int = ABNORMAL_WINDOW_TICKS,
        warmup_ticks: int = 12,
        cooldown_ticks: int = 30,
    ) -> None:
        if window_ticks < 8:
            raise ValueError("window_ticks must be >= 8")
        models = pipeline.context_models(context)
        if not models.trained:
            raise RuntimeError(
                f"pipeline is not trained for {context} "
                "(performance model and invariants required)"
            )
        self.pipeline = pipeline
        self.context = context
        self.window_ticks = window_ticks
        self.warmup_ticks = warmup_ticks
        self.cooldown_ticks = cooldown_ticks
        # The monitor runs on the models it was armed with: the slot is
        # resolved once here, not per tick, so a store that later evicts
        # or reloads the context cannot swap the detector mid-stream
        # (and the hot path never touches shared registry state).
        self._models = models
        # The detector history (every CPI sample outside COLLECTING) is
        # buffered only until the first drift check is due, then seeds
        # the streaming predictor and is dropped.
        p, d, q = models.detector.model.order
        self._seed_len = max(warmup_ticks, d + max(p, q) + 1)
        self._seed: list[float] = []
        self._predictor: OneStepPredictor | None = None
        self._cpi_len = 0
        self._shape = (len(models.invariants.catalog),)
        self._rows = np.empty((window_ticks, self.width))  # the row ring
        self._tick = -1
        self._streak = 0
        self._alarm_tick: int | None = None
        self._cooldown_left = 0
        self.state = MonitorState.WARMUP
        self._label = str(context)
        # the per-tick counters, bound once and created on first write
        registry = obs.metrics_registry()
        self._state_ticks = registry.bind_counter(
            "invarnetx_monitor_state_ticks_total",
            "Ticks the monitor spent in each state",
            ("context", "state"),
            context=self._label,
        )
        self._checks = registry.bind_counter(
            "invarnetx_monitor_checks_total",
            "One-step ARIMA drift checks actually run",
            ("context",),
            context=self._label,
        )
        #: The lane's flight ring (:meth:`attach`), or None (no
        #: blackbox).  The monitor notes its own state changes into it;
        #: whoever feeds the lane (the fleet's drain loop) records ticks.
        self.recorder: FlightRecorder | None = None

    def attach(self, recorder: FlightRecorder) -> None:
        """Carry ``recorder`` as the lane's flight ring (before the first
        tick): the row ring grows to ``max(window_ticks,
        recorder.capacity)`` rows, and the recorder reads its ticks'
        metric rows from it."""
        capacity = max(self.window_ticks, recorder.capacity)
        self._rows = recorder.rows = np.empty((capacity, self.width))
        self.recorder = recorder

    # ------------------------------------------------------------------
    @property
    def detector(self):
        """The armed performance model (read-only; never None)."""
        return self._models.detector

    @property
    def width(self) -> int:
        """Metric-row width of the lane (its invariants' catalog)."""
        return self._shape[0]

    @property
    def tick(self) -> int:
        """The index of the last observed tick (-1 before any)."""
        return self._tick

    @property
    def cpi_len(self) -> int:
        """Samples the detector's CPI history has taken in (quarantined
        COLLECTING samples are not counted)."""
        return self._cpi_len

    def accepts(self, metrics_row: np.ndarray, cpi: float) -> bool:
        """Whether a tick is usable: a finite CPI and a finite metric row
        of the lane's catalog width.  Anything else would poison the ARIMA
        history or the MIC window.  This is the one tick rule:
        :meth:`observe` applies it once per tick and raises
        :class:`MalformedTick` when it fails."""
        row = np.asarray(metrics_row, dtype=float)
        return (
            row.shape == self._shape
            and math.isfinite(cpi)
            # count_nonzero is one C call; ndarray.all() is ~2x slower
            and bool(np.count_nonzero(np.isfinite(row)) == row.size)
        )

    # ------------------------------------------------------------------
    def _transition(self, new: MonitorState) -> None:
        """Move to ``new``, counting and logging the state change."""
        old = self.state
        if old is new:
            return
        self.state = new
        if self.recorder is not None:
            self.recorder.note_transition(self._tick, old.value, new.value)
        if obs.enabled():
            obs.metrics_registry().counter(
                "invarnetx_monitor_transitions_total",
                "Monitor state-machine transitions",
                ("context", "from", "to"),
            ).inc(
                **{"context": self._label, "from": old.value, "to": new.value}
            )
            obs.log_event(
                _log,
                logging.DEBUG,
                "monitor-transition",
                context=self._label,
                tick=self._tick,
                src=old.value,
                dst=new.value,
            )

    # ------------------------------------------------------------------
    def check(self, cpi: float) -> bool | None:
        """The §3.2 drift verdict for ``cpi`` against the one-step
        prediction from the detector history before it.

        Pure: it reads the predictor and changes nothing, so a caller may
        run it ahead of :meth:`observe` (even on a tick ``observe`` will
        refuse) and hand the verdict in.  ``observe`` counts the verdicts
        it consumes in ``invarnetx_monitor_checks_total``.

        Returns:
            None outside MONITORING (MONITORING starts only after the
            warm-up, so this is also the warm-up gate); False while the
            history is too short for the model order; otherwise whether
            the residual crosses the detector's threshold.
        """
        if self.state is not MonitorState.MONITORING:
            return None
        if self._predictor is None:
            return False  # history still too short for the order
        residual = abs(float(cpi) - self._predictor.prediction)
        return self._models.detector.threshold.is_anomalous(residual)

    def _extend_history(self, cpi: float) -> None:
        """Append one sample to the detector history."""
        self._cpi_len += 1
        if self._predictor is not None:
            self._predictor.push(cpi)
            return
        self._seed.append(cpi)
        if len(self._seed) >= self._seed_len:
            self._predictor = OneStepPredictor(
                self._models.detector.model, self._seed
            )
            self._seed = []

    def observe(
        self,
        metrics_row: np.ndarray,
        cpi: float,
        anomalous: bool | None = None,
    ) -> AlarmEvent | DiagnosisEvent | None:
        """Feed one tick of telemetry.

        Args:
            metrics_row: the 26-metric sample of this tick.
            cpi: the CPI sample of this tick.
            anomalous: pre-computed drift verdict for this tick.  When
                None (the default) the monitor runs its own
                :meth:`check`; a caller that already computed the
                verdict (the fleet also records it in the lane's flight
                ring) passes it here.  Ignored outside MONITORING.

        Returns:
            An :class:`AlarmEvent` at the tick the problem is reported, a
            :class:`DiagnosisEvent` once the abnormal window has been
            collected and inferred, or None.

        Raises:
            MalformedTick: the tick fails :meth:`accepts`.  It is refused
                before anything is recorded or counted: one such CPI
                would break every later drift check, one such row the
                abnormal window.
        """
        if not self.accepts(metrics_row, cpi):
            raise MalformedTick(
                f"refusing tick: need a finite CPI and a finite "
                f"({self.width},) metric row, got CPI {cpi!r} and a row "
                f"of shape {np.shape(metrics_row)}"
            )
        self._tick += 1
        self._rows[self._tick % len(self._rows)] = metrics_row
        state = self.state
        if obs.enabled():
            self._state_ticks.series(state.value).inc()
            if state is MonitorState.MONITORING:
                self._checks.series().inc()  # the verdict consumed below

        if state is MonitorState.COLLECTING:
            # fault-window CPI is quarantined (this branch never extends
            # the history): folding it into the detector history would
            # teach it the faulty level and mask an identical
            # back-to-back incident after the cool-down
            assert self._alarm_tick is not None
            # the window starts 2 ticks before the alarm's first
            # anomalous tick (or at tick 0) and ends when it is full
            start = max(0, self._alarm_tick - self.CONSECUTIVE - 1)
            if self._tick - start + 1 >= self.window_ticks:
                window = self._rows.take(
                    range(self._tick + 1 - self.window_ticks, self._tick + 1),
                    axis=0,
                    mode="wrap",
                )
                inference = self.pipeline.infer(self.context, window)
                event = DiagnosisEvent(
                    tick=self._tick,
                    alarm_tick=self._alarm_tick,
                    inference=inference,
                    window=window,
                )
                self._alarm_tick = None
                self._streak = 0
                self._cooldown_left = self.cooldown_ticks
                self._transition(MonitorState.COOLDOWN)
                if obs.enabled():
                    obs.metrics_registry().counter(
                        "invarnetx_diagnoses_total",
                        "Diagnosis events emitted by online monitors",
                        ("context",),
                    ).inc(context=self._label)
                    obs.log_event(
                        _log,
                        logging.INFO,
                        "diagnosis",
                        context=self._label,
                        tick=self._tick,
                        alarm_tick=event.alarm_tick,
                        cause=event.root_cause or "-",
                    )
                return event
            return None

        # the drift check compares this tick's CPI against a prediction
        # from the history *before* it, so it must run pre-append
        if anomalous is None:
            anomalous = self.check(cpi)
        self._extend_history(float(cpi))

        if state is MonitorState.WARMUP:
            if self._cpi_len >= self.warmup_ticks:
                self._transition(MonitorState.MONITORING)
            return None
        if state is MonitorState.COOLDOWN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self._transition(MonitorState.MONITORING)
            return None

        # MONITORING
        self._streak = self._streak + 1 if anomalous else 0
        if self._streak >= self.CONSECUTIVE:
            self._alarm_tick = self._tick
            self._transition(MonitorState.COLLECTING)
            if obs.enabled():
                obs.metrics_registry().counter(
                    "invarnetx_alarms_total",
                    "Alarms raised by online monitors",
                    ("context",),
                ).inc(context=self._label)
                obs.log_event(
                    _log,
                    logging.WARNING,
                    "alarm",
                    context=self._label,
                    tick=self._tick,
                )
            return AlarmEvent(tick=self._tick)
        return None

    def run_stream(
        self, metrics: np.ndarray, cpi: np.ndarray
    ) -> list[AlarmEvent | DiagnosisEvent]:
        """Convenience: feed a whole trace and collect every event."""
        metrics = np.asarray(metrics)
        cpi = np.asarray(cpi, dtype=float)
        if metrics.shape[0] != cpi.size:
            raise ValueError("metrics and cpi lengths differ")
        events: list[AlarmEvent | DiagnosisEvent] = []
        for t in range(cpi.size):
            event = self.observe(metrics[t], float(cpi[t]))
            if event is not None:
                events.append(event)
        return events
