"""Fleet-scale multiplexing of per-context streaming monitors.

One production process watches thousands of ``(workload, node)`` operation
contexts (§3.2's deployment unit).  :class:`FleetMonitor` owns them all:

- a **sharded registry** of :class:`~repro.core.online.OnlineMonitor`
  lanes — contexts hash to shards (:func:`shard_index`, crc32: python's
  ``hash`` is salted per process), each shard serialises its lanes behind
  its own lock, so concurrent callers of :meth:`FleetMonitor.ingest`
  (one HTTP handler thread per connection) make progress without a
  global lock, and each batch drains on the thread that delivered it;
- **lazy construction with warm start** — a context's monitor is built on
  its first tick from the pipeline's attached
  :class:`~repro.store.base.ModelStore` (a populated
  :class:`~repro.store.directory.DirectoryStore` makes the whole fleet
  start warm); untrained contexts are rejected and counted, not fatal;
- **LRU eviction** — each shard caps its resident lanes and evicts the
  least-recently-active monitor (models stay in the store, so an evicted
  context warm-starts again on its next tick);
- **one drift check, one validation** — each tick's verdict comes from
  the lane's own :meth:`~repro.core.online.OnlineMonitor.check`
  (O(p + d + q), every ARIMA order, pure) and goes to ``observe`` and the
  lane's flight ring; ``observe`` validates the tick, and the drain loop
  counts the :class:`~repro.core.online.MalformedTick` it raises as
  malformed;
- an **incident sink** — every alarm/diagnosis is counted, logged,
  ledger-recorded (when the pipeline has an active run ledger) and the
  diagnoses are retained in a bounded ring so
  :meth:`FleetMonitor.explain` can produce the full evidence report on
  demand by projecting the inference each diagnosis carries
  (:func:`repro.obs.explain.explain_inference`; no MIC sweep);
- the **blackbox** — pass ``blackbox_dir`` and every lane carries a
  :class:`~repro.obs.blackbox.FlightRecorder` as
  :attr:`OnlineMonitor.recorder` (bounded ring of raw ticks, drift
  verdicts, state transitions and request ids).  The drain loop cuts
  the ring at the diagnosing tick and the snapshot travels with the
  event (:attr:`FleetEvent.flight`), so each diagnosis is committed as
  a content-fingerprinted incident bundle whose bytes do not depend on
  batching, and that survives process exit, incident-ring eviction,
  and lane eviction; ``invarnetx replay`` re-runs it deterministically.

The store the pipeline carries is wrapped in a
:class:`~repro.store.locked.LockedStore` at construction: lane
construction and lazy loads from different shards would otherwise race on
the registry's resident dict.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core.context import OperationContext
from repro.core.online import (
    AlarmEvent,
    DiagnosisEvent,
    MalformedTick,
    OnlineMonitor,
)
from repro.core.pipeline import InvarNetX
from repro.obs.blackbox import FlightRecorder, FlightSnapshot, commit_bundle
from repro.obs.explain import IncidentExplanation, explain_inference
from repro.store import ContextKey, LockedStore

__all__ = [
    "Tick",
    "FleetEvent",
    "IngestResult",
    "RetainedIncident",
    "FleetMonitor",
    "shard_index",
]

_log = obs.get_logger("serve.fleet")

# the drain loop's check, by module name: perfbench/tracing.py wraps it
fast_check = OnlineMonitor.check


def shard_index(key: ContextKey, shards: int) -> int:
    """Deterministic shard of a context key (stable across processes)."""
    return zlib.crc32(f"{key[0]}@{key[1]}".encode("utf-8")) % shards


@dataclass(frozen=True)
class Tick:
    """One telemetry sample of one context.

    Attributes:
        context: the operation context the sample belongs to.
        metrics: the metric row of this tick (catalog order).
        cpi: the CPI sample of this tick.
    """

    context: OperationContext
    metrics: np.ndarray
    cpi: float


@dataclass(frozen=True)
class FleetEvent:
    """An event one lane emitted during an ingest batch.

    Attributes:
        index: position of the triggering tick in the ingest batch
            (events are returned sorted by it, so results do not
            depend on the order the shard slices drained in).
        context: the context whose monitor fired.
        event: the alarm or diagnosis.
        flight: the lane's flight ring cut at the diagnosing tick (a
            diagnosis on a blackbox fleet; None otherwise) — the
            evidence the incident bundle is committed from.
    """

    index: int
    context: OperationContext
    event: AlarmEvent | DiagnosisEvent
    flight: FlightSnapshot | None = field(
        default=None, compare=False, repr=False
    )


@dataclass
class IngestResult:
    """Outcome of one :meth:`FleetMonitor.ingest` call.

    Attributes:
        events: events emitted by the batch, in batch order.
        accepted: ticks routed to a (possibly new) monitor.
        rejected: ticks dropped as malformed (refused by
            :meth:`OnlineMonitor.observe`, see
            :meth:`OnlineMonitor.accepts`) or because their context has
            no trained models in the store.
    """

    events: list[FleetEvent] = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class RetainedIncident:
    """One diagnosis held in the fleet's bounded incident ring.

    Attributes:
        event: the diagnosis (window attached).
        request_id: HTTP request id of the batch that completed the
            window ("" for in-process ingest).
        bundle_id: the committed incident bundle, or None when the fleet
            runs without a blackbox directory.
    """

    event: DiagnosisEvent
    request_id: str = ""
    bundle_id: str | None = None


class _Shard:
    """One lock + its LRU-ordered monitor lanes + its bound counters."""

    def __init__(self, index: int, max_lanes: int | None) -> None:
        self.index = index
        self.max_lanes = max_lanes
        self._lock = threading.RLock()
        self._lanes: OrderedDict[ContextKey, OnlineMonitor] = OrderedDict()  # repro: guarded-by=_lock
        self.evictions = 0  # repro: guarded-by=_lock
        registry = obs.metrics_registry()
        shard = str(index)
        self.ticks = registry.bind_counter(
            "invarnetx_fleet_ticks_total",
            "Ticks ingested per registry shard",
            ("shard",),
            shard=shard,
        )
        self.rejected = registry.bind_counter(
            "invarnetx_fleet_rejected_total",
            "Ticks dropped: untrained (no trained models) or "
            "malformed (non-finite or wrong-width)",
            ("shard", "reason"),
            shard=shard,
        )
        self.evicted = registry.bind_counter(
            "invarnetx_fleet_evictions_total",
            "Idle monitor lanes evicted (LRU)",
            ("shard",),
            shard=shard,
        )


class FleetMonitor:
    """A fleet of per-context online monitors behind one ingest surface.

    Args:
        pipeline: the trained pipeline (attach it to a populated store
            for warm starts).  Its store is wrapped in a
            :class:`LockedStore` here; the pipeline object itself must
            not be shared with concurrent writers outside this fleet.
        shards: number of registry shards (bound on how many callers
            drain lanes at once).
        max_lanes_per_shard: resident-monitor cap per shard; the least
            recently active lane is evicted beyond it.  None = unbounded.
        max_incidents: diagnosis windows retained for :meth:`explain`.
        blackbox_dir: incidents directory; when set, every lane carries
            a flight ring (:attr:`OnlineMonitor.recorder`) and every
            diagnosis is committed there as an incident bundle.  None
            (default) disables the blackbox: no lane carries a recorder.
        **monitor_kwargs: forwarded to every :class:`OnlineMonitor`
            (``window_ticks``, ``warmup_ticks``, ``cooldown_ticks``).
    """

    def __init__(
        self,
        pipeline: InvarNetX,
        *,
        shards: int = 8,
        max_lanes_per_shard: int | None = None,
        max_incidents: int = 256,
        blackbox_dir: str | Path | None = None,
        **monitor_kwargs: int,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if max_lanes_per_shard is not None and max_lanes_per_shard < 1:
            raise ValueError("max_lanes_per_shard must be >= 1 or None")
        pipeline.store = LockedStore.wrap(pipeline.store)
        self.pipeline = pipeline
        self.monitor_kwargs = dict(monitor_kwargs)
        self.blackbox_dir = (
            Path(blackbox_dir) if blackbox_dir is not None else None
        )
        self._shards = [
            _Shard(i, max_lanes_per_shard) for i in range(shards)
        ]
        self._incident_lock = threading.Lock()
        self._incidents: OrderedDict[ContextKey, RetainedIncident] = OrderedDict()  # repro: guarded-by=_incident_lock
        self._max_incidents = max_incidents
        self.rejected_total = 0  # repro: guarded-by=_incident_lock
        self.bundles_committed = 0  # repro: guarded-by=_incident_lock

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self._shards)

    def contexts(self) -> list[ContextKey]:
        """Keys of every resident (non-evicted) lane, sorted."""
        keys: list[ContextKey] = []
        for shard in self._shards:
            with shard._lock:
                keys.extend(shard._lanes.keys())
        return sorted(keys)

    def lane(self, context: OperationContext) -> OnlineMonitor | None:
        """The resident monitor of a context, or None (evicted/unseen)."""
        key = context.key()
        shard = self._shards[shard_index(key, len(self._shards))]
        with shard._lock:
            return shard._lanes.get(key)

    def states(self) -> dict[str, str]:
        """``"workload@node" -> state`` for every resident lane."""
        out: dict[str, str] = {}
        for shard in self._shards:
            with shard._lock:
                for key, monitor in shard._lanes.items():
                    out[f"{key[0]}@{key[1]}"] = monitor.state.value
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    def ingest(
        self, batch: list[Tick], request_id: str = ""
    ) -> IngestResult:
        """Feed one batch of ticks, drained shard by shard on the
        calling thread.

        Per-context tick order inside the batch is preserved (a context
        lives on exactly one shard, and each shard processes its slice
        in batch order under its lock).  Events come back sorted by
        batch position.

        Args:
            batch: the ticks to route.
            request_id: id of the HTTP request that delivered the batch
                ("" for in-process ingest) — recorded on flight-ring
                ticks, incident bundles and ``fleet-diagnose`` ledger
                entries, so an HTTP-triggered incident is traceable end
                to end.
        """
        groups: dict[int, list[tuple[int, Tick]]] = {}
        for pos, tick in enumerate(batch):
            idx = shard_index(tick.context.key(), len(self._shards))
            groups.setdefault(idx, []).append((pos, tick))
        with obs.span("fleet.ingest"):
            slices = [
                self._drain(self._shards[idx], ticks, request_id)
                for idx, ticks in groups.items()
            ]
        result = IngestResult()
        for accepted, rejected, events in slices:
            result.accepted += accepted
            result.rejected += rejected
            result.events.extend(events)
        result.events.sort(key=lambda e: e.index)
        for fleet_event in result.events:
            self._sink(fleet_event, request_id)
        if result.rejected:
            with self._incident_lock:
                self.rejected_total += result.rejected
        return result

    def run_stream(
        self, ticks: list[Tick], batch_size: int = 256
    ) -> IngestResult:
        """Convenience: ingest a long tick list in fixed-size batches."""
        total = IngestResult()
        for start in range(0, len(ticks), batch_size):
            part = self.ingest(ticks[start : start + batch_size])
            offset = start
            total.events.extend(
                dataclasses.replace(e, index=e.index + offset)
                for e in part.events
            )
            total.accepted += part.accepted
            total.rejected += part.rejected
        return total

    # ------------------------------------------------------------------
    def _drain(
        self,
        shard: _Shard,
        ticks: list[tuple[int, Tick]],
        request_id: str = "",
    ) -> tuple[int, int, list[FleetEvent]]:
        """Process one shard's slice of the batch, in batch order.

        Each tick is validated once, by ``observe``: the pure check runs
        first (its verdict goes into ``observe`` and the flight ring),
        and a tick ``observe`` refuses with :class:`MalformedTick` is
        counted as malformed, having changed nothing.
        """
        accepted = 0
        rejected = {"untrained": 0, "malformed": 0}
        events: list[FleetEvent] = []
        with shard._lock:
            for pos, tick in ticks:
                monitor = self._lane_for(shard, tick.context)
                if monitor is None:
                    rejected["untrained"] += 1
                    continue
                cpi = float(tick.cpi)
                # the state *entering* the tick: replay needs it to tell
                # quarantined (collecting) CPI from detector history
                state = monitor.state.value
                verdict = fast_check(monitor, cpi)
                try:
                    event = monitor.observe(
                        tick.metrics, cpi, anomalous=verdict
                    )
                except MalformedTick:
                    rejected["malformed"] += 1
                    continue
                accepted += 1
                recorder = monitor.recorder
                if recorder is not None:
                    recorder.record(
                        monitor.tick,
                        tick.metrics,
                        cpi,
                        verdict,
                        state,
                        request_id,
                    )
                if event is None:
                    continue
                flight = None
                if recorder is not None and isinstance(event, DiagnosisEvent):
                    # cut the evidence at the diagnosing tick: later
                    # ticks of the batch, or the lane's eviction, must
                    # neither change nor lose it
                    flight = recorder.snapshot()
                events.append(FleetEvent(pos, tick.context, event, flight))
            # still under the lock: a binding serialises on its owner
            dropped = sum(rejected.values())
            if obs.enabled() and (accepted or dropped):
                shard.ticks.series().inc(accepted)
                for reason, count in rejected.items():
                    if count:
                        shard.rejected.series(reason).inc(count)
        return accepted, dropped, events

    def _lane_for(
        self, shard: _Shard, context: OperationContext
    ) -> OnlineMonitor | None:
        """Get-or-build the context's monitor (LRU touch; caller holds
        the shard lock)."""
        key = context.key()
        monitor = shard._lanes.get(key)
        if monitor is not None:
            shard._lanes.move_to_end(key)
            return monitor
        if not self.pipeline.is_trained(context):
            obs.warn_once(
                "fleet-untrained-context",
                f"fleet: dropping ticks for untrained context {context} "
                "(train or warm-start its models to accept them)",
            )
            return None
        monitor = OnlineMonitor(
            self.pipeline, context, **self.monitor_kwargs
        )
        shard._lanes[key] = monitor
        if self.blackbox_dir is not None:
            monitor.recorder = FlightRecorder(
                context,
                model_revision=int(self.pipeline.store.revision(key)),
            )
        if (
            shard.max_lanes is not None
            and len(shard._lanes) > shard.max_lanes
        ):
            evicted_key, _ = shard._lanes.popitem(last=False)
            shard.evictions += 1
            if obs.enabled():
                shard.evicted.series().inc()
                obs.log_event(
                    _log,
                    logging.DEBUG,
                    "fleet-evict",
                    shard=shard.index,
                    context=f"{evicted_key[0]}@{evicted_key[1]}",
                )
        return monitor

    # ------------------------------------------------------------------
    def _sink(self, fleet_event: FleetEvent, request_id: str = "") -> None:
        """Route one emitted event through obs/ledger/bundle/ring.

        Alarm/diagnosis counters are already incremented by the monitor
        itself; the fleet adds the cross-cutting record keeping.  The
        bundle is committed from the flight snapshot the event carries
        (no lane lookup, so a lane evicted since cannot lose it), and
        *before* the ring insert, so an incident evicted from the
        bounded ring has always already reached disk.
        """
        context = fleet_event.context
        event = fleet_event.event
        if not isinstance(event, DiagnosisEvent):
            return
        key = context.key()
        bundle_id: str | None = None
        if self.blackbox_dir is not None and fleet_event.flight is not None:
            bundle = commit_bundle(
                self.blackbox_dir,
                self.pipeline,
                context,
                event,
                fleet_event.flight,
                request_id=request_id,
            )
            bundle_id = bundle.bundle_id
            with self._incident_lock:
                self.bundles_committed += 1
            if obs.enabled():
                obs.metrics_registry().counter(
                    "invarnetx_incident_bundles_total",
                    "Incident bundles committed by the blackbox",
                    ("shard",),
                ).inc(shard=str(shard_index(key, len(self._shards))))
        with self._incident_lock:
            self._incidents[key] = RetainedIncident(
                event=event, request_id=request_id, bundle_id=bundle_id
            )
            self._incidents.move_to_end(key)
            while len(self._incidents) > self._max_incidents:
                self._incidents.popitem(last=False)
        ledger = self.pipeline.ledger
        if ledger is not None:
            fields = event.summary()
            if request_id:
                fields["request_id"] = request_id
            if bundle_id is not None:
                fields["bundle"] = bundle_id
            ledger.append(
                "fleet-diagnose",
                context=key,
                fingerprint=self.pipeline.fingerprint,
                **fields,
            )

    # ------------------------------------------------------------------
    def retained_incidents(
        self,
    ) -> list[tuple[ContextKey, RetainedIncident]]:
        """The bounded incident ring's contents, oldest first."""
        with self._incident_lock:
            return list(self._incidents.items())

    def explain(self, context: OperationContext) -> IncidentExplanation:
        """Full evidence report for the context's last diagnosis,
        stamped with the triggering request id when the incident arrived
        over HTTP.

        Raises:
            KeyError: no retained incident for the context.
        """
        with self._incident_lock:
            retained = self._incidents.get(context.key())
        if retained is None:
            raise KeyError(f"no retained incident for {context}")
        return explain_inference(
            self.pipeline,
            context,
            retained.event.inference,
            request_id=retained.request_id or None,
        )
