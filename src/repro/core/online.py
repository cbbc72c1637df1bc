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
   abnormal window is full (the alarm's lead-in samples are included from
   the ring buffer, matching :meth:`InvarNetX.extract_abnormal_window`);
3. **diagnosing** — cause inference runs on the collected window and a
   :class:`DiagnosisEvent` is emitted, after which the monitor holds a
   cool-down before re-arming (one incident, one report).

Diagnosis goes through :meth:`InvarNetX.infer`, so the collected window's
association matrix is computed by the batched MIC engine behind
the process-wide content-hash cache (:mod:`repro.stats.micfast`): if the
same window is ever re-scored — a replayed incident, or several monitors
watching mirrored telemetry — the MIC sweep is not repeated.
"""

from __future__ import annotations

import enum
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.obs as obs
from repro.core.context import OperationContext
from repro.core.inference import InferenceResult
from repro.core.pipeline import ABNORMAL_WINDOW_TICKS, InvarNetX
from repro.stats.arima import OneStepPredictor

__all__ = ["MonitorState", "AlarmEvent", "DiagnosisEvent", "OnlineMonitor"]

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
            on — kept on the event so a serving layer can re-explain the
            incident on demand (:func:`repro.obs.explain_window`).
    """

    tick: int
    alarm_tick: int
    inference: InferenceResult
    window: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def root_cause(self) -> str | None:
        """The top-ranked matched cause, or None."""
        return self.inference.top_cause

    def summary(self) -> dict[str, Any]:
        """Fields every record of the diagnosis carries (HTTP event,
        ledger entry, bundle manifest)."""
        return {
            "tick": self.tick,
            "alarm_tick": self.alarm_tick,
            "cause": self.root_cause,
            "matched": self.inference.matched,
        }


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
        # CPI observed while the abnormal window is being collected —
        # quarantined from the detector history so the ARIMA detector
        # never resumes on fault-contaminated history after the cool-down.
        self._incident_cpi: list[float] = []
        # lead-in buffer: the alarm fires CONSECUTIVE ticks into the
        # problem, and the window starts 2 ticks before the alarm
        self._recent_metrics: deque[np.ndarray] = deque(
            maxlen=self.CONSECUTIVE + 2
        )
        self._collected: list[np.ndarray] = []
        self._tick = -1
        self._streak = 0
        self._alarm_tick: int | None = None
        self._cooldown_left = 0
        self.state = MonitorState.WARMUP
        self._label = str(context)
        #: Optional ``(tick, src, dst)`` callback fired on every state
        #: change — the flight recorder's hook
        #: (:class:`repro.obs.blackbox.FlightRecorder`).  Exceptions
        #: propagate: a broken observer should fail loudly in tests, not
        #: silently stop recording.
        self.on_transition: Callable[[int, str, str], None] | None = None

    # ------------------------------------------------------------------
    @property
    def detector(self):
        """The armed performance model (read-only; never None)."""
        return self._models.detector

    @property
    def width(self) -> int:
        """Metric-row width of the lane (its invariants' catalog)."""
        return len(self._models.invariants.catalog)

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
        history or the MIC window; :meth:`observe` refuses it and the
        fleet counts it as malformed."""
        row = np.asarray(metrics_row, dtype=float)
        return (
            row.shape == (self.width,)
            and math.isfinite(cpi)
            and bool(np.isfinite(row).all())
        )

    # ------------------------------------------------------------------
    def _transition(self, new: MonitorState) -> None:
        """Move to ``new``, counting and logging the state change."""
        old = self.state
        if old is new:
            return
        self.state = new
        if self.on_transition is not None:
            self.on_transition(self._tick, old.value, new.value)
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

        Returns:
            None outside MONITORING (MONITORING starts only after the
            warm-up, so this is also the warm-up gate); False while the
            history is too short for the model order; otherwise whether
            the residual crosses the detector's threshold.
        """
        if self.state is not MonitorState.MONITORING:
            return None
        if obs.enabled():
            obs.metrics_registry().counter(
                "invarnetx_monitor_checks_total",
                "One-step ARIMA drift checks actually run",
                ("context",),
            ).inc(context=self._label)
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
                verdict (the fleet records it in the flight ring first)
                passes it here.  Ignored outside MONITORING.

        Returns:
            An :class:`AlarmEvent` at the tick the problem is reported, a
            :class:`DiagnosisEvent` once the abnormal window has been
            collected and inferred, or None.

        Raises:
            ValueError: the tick fails :meth:`accepts`.  It is refused
                before anything is recorded: one such CPI would break
                every later drift check, one such row the abnormal window.
        """
        row = np.asarray(metrics_row, dtype=float)
        if not self.accepts(row, cpi):
            raise ValueError(
                f"refusing tick: need a finite CPI and a finite "
                f"({self.width},) metric row, got CPI {cpi!r} and a row "
                f"of shape {row.shape}"
            )
        self._tick += 1
        if obs.enabled():
            obs.metrics_registry().counter(
                "invarnetx_monitor_state_ticks_total",
                "Ticks the monitor spent in each state",
                ("context", "state"),
            ).inc(context=self._label, state=self.state.value)

        if self.state is MonitorState.COLLECTING:
            self._collected.append(row)
            # keep the lead-in ring current so a prompt second alarm
            # seeds its window with these rows, not pre-incident ones
            self._recent_metrics.append(row)
            # fault-window CPI is quarantined: folding it into the
            # detector history would teach it the faulty level and mask an
            # identical back-to-back incident after the cool-down
            self._incident_cpi.append(float(cpi))
            if len(self._collected) >= self.window_ticks:
                window = np.asarray(self._collected)
                inference = self.pipeline.infer(self.context, window)
                assert self._alarm_tick is not None
                event = DiagnosisEvent(
                    tick=self._tick,
                    alarm_tick=self._alarm_tick,
                    inference=inference,
                    window=window,
                )
                self._collected = []
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
        self._recent_metrics.append(row)

        if self.state is MonitorState.WARMUP:
            if self._cpi_len >= self.warmup_ticks:
                self._transition(MonitorState.MONITORING)
            return None
        if self.state is MonitorState.COOLDOWN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self._incident_cpi.clear()
                self._transition(MonitorState.MONITORING)
            return None

        # MONITORING
        self._streak = self._streak + 1 if anomalous else 0
        if self._streak >= self.CONSECUTIVE:
            self._alarm_tick = self._tick
            # seed the window with the lead-in samples already buffered
            self._collected = list(self._recent_metrics)
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
