"""The incident flight recorder and deterministic incident bundles.

The fleet's ``fleet-diagnose`` ledger lines say *that* a context was
diagnosed; the raw evidence — the exact ticks, drift verdicts,
state-machine transitions and model revision that produced the diagnosis
— dies with the process.  This module keeps it:

- :class:`FlightRecorder` — a per-lane bounded ring of
  :class:`TickRecord`\\ s (raw metric row, CPI, drift verdict, monitor
  state, active request id) plus the recent state transitions.  Like the
  tracer and the profiler it has a proven zero-allocation disabled path:
  when the blackbox is off the fleet holds the falsy :data:`NOOP_RECORDER`
  singleton and hot loops skip it behind one truthiness check
  (``benchmarks/test_perf_obs_overhead.py`` holds it to zero bytes).

- **Incident bundles** — on diagnosis, :func:`commit_bundle` writes a
  content-fingerprinted ``incidents/<id>/`` directory holding the flight
  ring, the abnormal window, the inference report, the
  :func:`~repro.obs.explain.explain_window` evidence, the context's model
  artifacts, and environment/config fingerprints, committed by its
  manifest (DESIGN.md §9).

- :func:`replay_bundle` — re-runs detection and diagnosis *from the
  bundle alone* (the models travel inside it) and asserts the reproduced
  cause ranking and explain report match the originals byte for byte,
  turning every production alarm into a deterministic, shippable test
  case (``invarnetx replay <bundle>``).

Like :mod:`repro.obs.explain` this module imports :mod:`repro.core`, so
it is lazily re-exported from the package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.anomaly import ThresholdRule
from repro.core.context import OperationContext
from repro.core.online import DiagnosisEvent
from repro.core.persistence import (
    MANIFEST_NAME,
    atomic_write_text,
    begin_commit,
    canonical_json,
    commit_manifest,
    read_manifest,
)
from repro.core.pipeline import (
    RETIRED_CONFIG_FIELDS,
    InvarNetX,
    InvarNetXConfig,
)
from repro.obs.ledger import config_fingerprint
from repro.telemetry.metrics import MetricCatalog

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_MANIFEST",
    "DEFAULT_CAPACITY",
    "REPLAY_TOP_K",
    "TickRecord",
    "TransitionRecord",
    "FlightSnapshot",
    "FlightRecorder",
    "NOOP_RECORDER",
    "IncidentBundle",
    "commit_bundle",
    "load_bundle",
    "ReplayResult",
    "replay_bundle",
]

#: Bundle schema version; bump on incompatible layout changes.
BUNDLE_FORMAT = 1

#: The commit point: a bundle directory without it is an aborted attempt.
BUNDLE_MANIFEST = MANIFEST_NAME

#: Default flight-ring length — comfortably covers the abnormal window
#: (24 ticks) plus the lead-in and the pre-alarm monitoring history.
DEFAULT_CAPACITY = 64

#: Cause-list length the online monitor diagnoses with
#: (:meth:`InvarNetX.infer` default); recorded in every bundle so replay
#: asks for exactly the ranking the original diagnosis produced.
REPLAY_TOP_K = 3

#: Transition ring length (state changes are rare next to ticks).
_TRANSITION_CAPACITY = 16


@dataclass(frozen=True)
class TickRecord:
    """One recorded telemetry tick of one lane.

    Attributes:
        tick: the monitor's tick index.
        metrics: the raw metric row (catalog order).
        cpi: the CPI sample.
        verdict: the drift verdict handed to ``observe`` (None when the
            lane was not MONITORING).
        state: the monitor state the tick was processed in.
        request_id: the HTTP request id that carried the tick ("" for
            in-process ingest).
    """

    tick: int
    metrics: tuple[float, ...]
    cpi: float
    verdict: bool | None
    state: str
    request_id: str = ""

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "TickRecord":
        return cls(
            tick=int(data["tick"]),
            metrics=tuple(float(v) for v in data["metrics"]),
            cpi=float(data["cpi"]),
            verdict=data["verdict"],
            state=str(data["state"]),
            request_id=str(data.get("request_id", "")),
        )


@dataclass(frozen=True)
class TransitionRecord:
    """One monitor state-machine transition."""

    tick: int
    src: str
    dst: str

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "TransitionRecord":
        return cls(
            tick=int(data["tick"]),
            src=str(data["src"]),
            dst=str(data["dst"]),
        )


@dataclass(frozen=True)
class FlightSnapshot:
    """An immutable copy of one lane's flight ring at one instant."""

    context: tuple[str, str]
    capacity: int
    model_revision: int
    ticks: tuple[TickRecord, ...]
    transitions: tuple[TransitionRecord, ...]

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FlightSnapshot":
        return cls(
            context=(str(data["context"][0]), str(data["context"][1])),
            capacity=int(data["capacity"]),
            model_revision=int(data["model_revision"]),
            ticks=tuple(
                TickRecord.from_json(t) for t in data["ticks"]
            ),
            transitions=tuple(
                TransitionRecord.from_json(t) for t in data["transitions"]
            ),
        )


class _NoopFlightRecorder:
    """Falsy, allocation-free stand-in when the blackbox is off.

    Mirrors :data:`repro.obs.tracing.NOOP_SPAN`: hot loops hold one
    process-wide singleton and guard all recording work behind
    ``if recorder:`` — the disabled path is one truthiness check and, at
    worst, a method call that allocates nothing.
    """

    __slots__ = ()

    enabled = False

    def __bool__(self) -> bool:
        return False

    def record(
        self,
        tick: int,
        metrics: Any,
        cpi: float,
        verdict: bool | None,
        state: str,
        request_id: str = "",
    ) -> None:
        return None

    def note_transition(self, tick: int, src: str, dst: str) -> None:
        return None


#: The process-wide disabled recorder.
NOOP_RECORDER = _NoopFlightRecorder()


class FlightRecorder:
    """Bounded flight ring of one monitor lane.

    Appends happen on ingest threads under the owning shard's lock;
    snapshots happen on whichever thread commits the bundle — so the
    ring carries its own (leaf) lock rather than borrowing the shard's.

    Args:
        context: the operation context the lane watches.
        capacity: tick-ring length.
        model_revision: the store's publish counter for the context's
            models at lane construction (recorded in every bundle).
    """

    enabled = True

    def __init__(
        self,
        context: OperationContext,
        capacity: int = DEFAULT_CAPACITY,
        model_revision: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.context = context
        self.capacity = capacity
        self.model_revision = model_revision
        self._lock = threading.Lock()
        self._ticks: deque[TickRecord] = deque(maxlen=capacity)  # repro: guarded-by=_lock
        self._transitions: deque[TransitionRecord] = deque(  # repro: guarded-by=_lock
            maxlen=_TRANSITION_CAPACITY
        )

    def __bool__(self) -> bool:
        return True

    def record(
        self,
        tick: int,
        metrics: Any,
        cpi: float,
        verdict: bool | None,
        state: str,
        request_id: str = "",
    ) -> None:
        """Append one tick to the ring."""
        # ndarray.tolist() is one C call; per-element float() would
        # dominate the fleet's steady-state recording cost
        if isinstance(metrics, np.ndarray):
            values = tuple(metrics.tolist())
        else:
            values = tuple(float(v) for v in metrics)
        entry = TickRecord(
            tick=tick,
            metrics=values,
            cpi=float(cpi),
            verdict=verdict,
            state=state,
            request_id=request_id,
        )
        with self._lock:
            self._ticks.append(entry)

    def note_transition(self, tick: int, src: str, dst: str) -> None:
        """Append one state-machine transition (monitor hook)."""
        entry = TransitionRecord(tick=tick, src=src, dst=dst)
        with self._lock:
            self._transitions.append(entry)

    def snapshot(self) -> FlightSnapshot:
        """An immutable copy of the ring's current contents."""
        with self._lock:
            ticks = tuple(self._ticks)
            transitions = tuple(self._transitions)
        return FlightSnapshot(
            context=self.context.key(),
            capacity=self.capacity,
            model_revision=self.model_revision,
            ticks=ticks,
            transitions=transitions,
        )


# ----------------------------------------------------------------------
# bundle commit
# ----------------------------------------------------------------------
def _config_to_json(config: InvarNetXConfig) -> dict[str, Any]:
    data = {**dataclasses.asdict(config), **RETIRED_CONFIG_FIELDS}
    data["rule"] = config.rule.value
    if data["arima_order"] is not None:
        data["arima_order"] = list(data["arima_order"])
    return data


def _config_from_json(data: dict[str, Any]) -> InvarNetXConfig:
    names = {f.name for f in dataclasses.fields(InvarNetXConfig)}
    kwargs = {k: v for k, v in data.items() if k in names}
    kwargs["rule"] = ThresholdRule(kwargs["rule"])
    if kwargs.get("arima_order") is not None:
        kwargs["arima_order"] = tuple(
            int(v) for v in kwargs["arima_order"]
        )
    return InvarNetXConfig(**kwargs)


def _window_sha256(window: np.ndarray) -> str:
    arr = np.ascontiguousarray(np.asarray(window, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _bundle_id(
    key: tuple[str, str], event: DiagnosisEvent, window: np.ndarray
) -> str:
    """Content fingerprint of one incident (identical incident content
    maps to the identical id, so commits are idempotent)."""
    payload = {
        "context": list(key),
        "alarm_tick": event.alarm_tick,
        "tick": event.tick,
        "causes": [
            [c.problem, round(float(c.score), 6)]
            for c in event.inference.causes
        ],
        "window_sha256": _window_sha256(window),
    }
    return f"inc-{config_fingerprint(payload)}"


@dataclass(frozen=True)
class IncidentBundle:
    """A committed ``incidents/<id>/`` directory plus its manifest."""

    path: Path
    manifest: dict[str, Any]

    @property
    def bundle_id(self) -> str:
        return str(self.manifest["bundle_id"])

    @property
    def context(self) -> OperationContext:
        ctx = self.manifest["context"]
        return OperationContext(
            ctx["workload"], ctx["node_id"], ctx.get("ip", "")
        )

    def _load(self, name: str) -> Any:
        return json.loads((self.path / name).read_text(encoding="utf-8"))

    def load_window(self) -> np.ndarray:
        return np.asarray(self._load("window.json")["window"], dtype=float)

    def load_report(self) -> dict[str, Any]:
        return self._load("report.json")

    def load_flight(self) -> FlightSnapshot:
        return FlightSnapshot.from_json(self._load("flight.json"))

    def load_environment(self) -> dict[str, Any]:
        return self._load("environment.json")

    def explain_text(self) -> str:
        return (self.path / "explain.txt").read_text(encoding="utf-8")


def commit_bundle(
    root: str | Path,
    pipeline: InvarNetX,
    context: OperationContext,
    event: DiagnosisEvent,
    snapshot: FlightSnapshot,
    request_id: str = "",
) -> IncidentBundle:
    """Commit one diagnosis as an incident bundle under ``root``.

    Every file is written atomically and the manifest goes last
    (DESIGN.md §9), so a crashed commit leaves no readable bundle.  An id
    already committed (identical incident content) is returned as-is
    without rewriting.

    Args:
        root: the incidents directory (created on demand).
        pipeline: the trained pipeline that produced the diagnosis.
        context: the diagnosed operation context.
        event: the diagnosis (must carry its abnormal window).
        snapshot: the lane's flight ring at diagnosis time.
        request_id: the request id of the batch that completed the
            window ("" outside HTTP ingest).

    Returns:
        The committed (or pre-existing) :class:`IncidentBundle`.
    """
    if event.window is None:
        raise ValueError("diagnosis event carries no abnormal window")
    window = np.asarray(event.window, dtype=float)
    key = context.key()
    bundle_id = _bundle_id(key, event, window)
    bundle_dir = Path(root) / bundle_id
    existing = read_manifest(bundle_dir)
    if existing is not None:
        return IncidentBundle(path=bundle_dir, manifest=existing)
    begin_commit(bundle_dir)

    from repro.obs.explain import explain_window

    explanation = explain_window(
        pipeline, context, window, top_k=REPLAY_TOP_K,
        request_id=request_id or None,
    )
    inference = event.inference
    texts = {
        "flight.json": canonical_json(snapshot.to_json()),
        "window.json": canonical_json({"window": window.tolist()}),
        "report.json": canonical_json(
            {
                "tick": event.tick,
                "alarm_tick": event.alarm_tick,
                "top_k": REPLAY_TOP_K,
                "causes": [
                    {"problem": c.problem, "score": float(c.score)}
                    for c in inference.causes
                ],
                "matched": inference.matched,
                "violations": [bool(v) for v in inference.violations],
                "hints": [list(pair) for pair in inference.hints],
            }
        ),
        "explain.txt": explanation.render_text(),
        "explain.json": canonical_json(explanation.to_json()),
        "environment.json": canonical_json(
            {
                "config": _config_to_json(pipeline.config),
                "config_fingerprint": pipeline.fingerprint,
                "catalog": list(pipeline.catalog.names),
                "python": sys.version.split()[0],
                "platform": platform.platform(),
                "numpy": np.__version__,
            }
        ),
    }
    for name, text in texts.items():
        atomic_write_text(bundle_dir / name, text)
    model_files = pipeline.save_context(context, bundle_dir / "models")
    manifest = {
        **event.summary(),
        "format": BUNDLE_FORMAT,
        "bundle_id": bundle_id,
        "context": {
            "workload": context.workload,
            "node_id": context.node_id,
            "ip": context.ip,
        },
        "request_id": request_id,
        "model_revision": snapshot.model_revision,
        "config_fingerprint": pipeline.fingerprint,
        "window_sha256": _window_sha256(window),
        "files": sorted(
            list(texts) + [f"models/{p.name}" for p in model_files]
        ),
    }
    commit_manifest(bundle_dir, manifest)
    return IncidentBundle(path=bundle_dir, manifest=manifest)


def load_bundle(path: str | Path) -> IncidentBundle:
    """Open one committed bundle directory.

    Raises:
        FileNotFoundError: no manifest — the directory is missing or is
            an aborted (uncommitted) bundle attempt.
        ValueError: the manifest's format is not readable.
    """
    path = Path(path)
    manifest = read_manifest(path)
    if manifest is None:
        raise FileNotFoundError(
            f"no committed incident bundle at {path} "
            f"(missing {BUNDLE_MANIFEST})"
        )
    fmt = int(manifest.get("format", 0))
    if fmt != BUNDLE_FORMAT:
        raise ValueError(
            f"bundle {path} has format {fmt}; this build reads "
            f"format {BUNDLE_FORMAT}"
        )
    return IncidentBundle(path=path, manifest=manifest)


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def _score_text(score: float) -> str:
    """The 4-decimal fixed-point form every report renders scores in."""
    return f"{float(score):.4f}"


@dataclass
class ReplayResult:
    """Outcome of replaying one bundle.

    Attributes:
        bundle_id: the replayed bundle.
        context: ``workload@node`` label.
        passes: full detection+diagnosis passes run (>= 2 proves the
            replay itself is deterministic, not just lucky once).
        causes_match: reproduced cause ranking (problems and 4-decimal
            scores) equals the recorded one on every pass.
        explain_match: reproduced explain report is byte-identical to the
            bundled ``explain.txt`` on every pass.
        verdicts_checked: recorded drift verdicts re-computed from the
            flight ring's own history.
        verdicts_match: every re-computed verdict equals the recording.
        verdict_note: why verdict re-checks were limited, when they were.
        mismatches: human-readable description of every divergence.
    """

    bundle_id: str
    context: str
    passes: int
    causes_match: bool
    explain_match: bool
    verdicts_checked: int
    verdicts_match: bool
    verdict_note: str = ""
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict[str, Any]:
        return {**dataclasses.asdict(self), "ok": self.ok}

    def render_text(self) -> str:
        verdict = "REPRODUCED" if self.ok else "DIVERGED"
        lines = [
            f"replay {self.bundle_id} ({self.context}): {verdict}",
            f"  passes             {self.passes}",
            f"  cause ranking      "
            f"{'match' if self.causes_match else 'MISMATCH'}",
            f"  explain report     "
            f"{'byte-identical' if self.explain_match else 'MISMATCH'}",
            f"  drift verdicts     {self.verdicts_checked} re-checked, "
            f"{'match' if self.verdicts_match else 'MISMATCH'}"
            + (f" ({self.verdict_note})" if self.verdict_note else ""),
        ]
        for problem in self.mismatches:
            lines.append(f"  ! {problem}")
        return "\n".join(lines)


def _replay_verdicts(
    pipeline: InvarNetX,
    context: OperationContext,
    snapshot: FlightSnapshot,
    result: ReplayResult,
) -> None:
    """Re-compute the recorded drift verdicts from the ring's history.

    The monitor's verdict at tick ``t`` is a pure function of the
    detector and the (quarantine-filtered) CPI history before ``t``.  For
    pure-AR models the one-step prediction depends only on the last
    ``p + d`` samples (:class:`~repro.stats.arima.OneStepPredictor`), so
    the bounded ring carries enough history once ``p + d``
    non-quarantined ticks precede the verdict.  For ``q != 0`` the lane
    also carries its last innovations, which the ring does not hold
    (recording them would change the bundle format): no re-check.
    """
    detector = pipeline.context_models(context).detector
    if detector is None or detector.model is None:
        result.verdict_note = "no performance model in the bundle"
        return
    order = detector.model.order
    if order.q != 0:
        result.verdict_note = (
            "MA terms need full off-ring history; re-check skipped"
        )
        return
    tail_needed = order.p + order.d
    history: list[float] = []
    for record in snapshot.ticks:
        if (
            record.state == "monitoring"
            and record.verdict is not None
            and len(history) > tail_needed
        ):
            redone = bool(
                detector.check_next(np.asarray(history), record.cpi)
            )
            result.verdicts_checked += 1
            if redone is not bool(record.verdict):
                result.verdicts_match = False
                result.mismatches.append(
                    f"tick {record.tick}: recorded verdict "
                    f"{record.verdict}, replay computed {redone}"
                )
        # COLLECTING CPI is quarantined from the detector history in the
        # live monitor; mirror that here or the recursion diverges
        if record.state != "collecting":
            history.append(record.cpi)


def replay_bundle(path: str | Path, passes: int = 2) -> ReplayResult:
    """Re-run detection + diagnosis from a bundle and diff the outcome.

    A fresh pipeline is rebuilt from nothing but the bundle: the config
    and catalog from ``environment.json``, the context's models from
    ``models/``.  Each pass re-runs :meth:`InvarNetX.infer` on the
    bundled window and :func:`~repro.obs.explain.explain_window` on the
    result, comparing the cause ranking and the rendered report bytes
    against the originals; recorded drift verdicts are re-computed from
    the flight ring.  Two passes by default: the second proves the
    reproduction is deterministic, not a cache accident.

    Args:
        path: a committed bundle directory.
        passes: detection+diagnosis passes to run (>= 1).

    Returns:
        The :class:`ReplayResult`; ``result.ok`` is the verdict.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    bundle = load_bundle(path)
    environment = bundle.load_environment()
    config = _config_from_json(environment["config"])
    catalog = MetricCatalog(
        names=tuple(str(n) for n in environment["catalog"])
    )
    pipeline = InvarNetX(config=config, catalog=catalog, ledger=False)
    context = bundle.context
    pipeline.load_context(context, bundle.path / "models")
    window = bundle.load_window()
    report = bundle.load_report()
    snapshot = bundle.load_flight()

    result = ReplayResult(
        bundle_id=bundle.bundle_id,
        context=f"{context.workload}@{context.node_id}",
        passes=passes,
        causes_match=True,
        explain_match=True,
        verdicts_checked=0,
        verdicts_match=True,
    )
    if pipeline.fingerprint != environment.get("config_fingerprint"):
        result.mismatches.append(
            "config fingerprint drifted: bundle "
            f"{environment.get('config_fingerprint')}, rebuilt "
            f"{pipeline.fingerprint}"
        )
    if _window_sha256(window) != bundle.manifest.get("window_sha256"):
        result.mismatches.append("window bytes do not match the manifest")

    recorded_causes = [
        (c["problem"], _score_text(c["score"])) for c in report["causes"]
    ]
    recorded_explain = bundle.explain_text()

    from repro.obs.explain import explain_window

    for _ in range(passes):
        inference = pipeline.infer(
            context, window, top_k=int(report.get("top_k", REPLAY_TOP_K))
        )
        replayed = [
            (c.problem, _score_text(c.score)) for c in inference.causes
        ]
        if replayed != recorded_causes:
            result.causes_match = False
            result.mismatches.append(
                f"cause ranking diverged: recorded {recorded_causes}, "
                f"replayed {replayed}"
            )
        if bool(inference.matched) is not bool(report["matched"]):
            result.causes_match = False
            result.mismatches.append(
                f"matched flag diverged: recorded {report['matched']}, "
                f"replayed {inference.matched}"
            )
        explanation = explain_window(
            pipeline,
            context,
            window,
            top_k=int(report.get("top_k", REPLAY_TOP_K)),
            request_id=bundle.manifest.get("request_id") or None,
        )
        if explanation.render_text() != recorded_explain:
            result.explain_match = False
            result.mismatches.append(
                "explain report bytes diverged from explain.txt"
            )
    _replay_verdicts(pipeline, context, snapshot, result)
    # de-duplicate repeated per-pass messages, preserving order
    seen: set[str] = set()
    result.mismatches = [
        m for m in result.mismatches
        if not (m in seen or seen.add(m))
    ]
    return result
