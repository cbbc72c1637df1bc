"""Fleet-wide incident correlation over committed incident bundles.

A platform fault (a failing switch, a saturated disk array, a bad
deploy) rarely stays inside one ``(workload, node)`` operation context —
it raises near-simultaneous alarms on many lanes.  The blackbox commits
one bundle per diagnosed lane (:mod:`repro.obs.blackbox`); this module
stitches those bundles back into **platform incidents**:

- :func:`scan_bundles` reads every committed bundle manifest under an
  ``incidents/`` directory (manifest-less directories are aborted
  commits and are skipped);
- :func:`correlate` groups records whose alarm ticks chain within a
  configurable ``horizon``, then classifies each group along the
  paper's context axes: ``single-context``, ``shared-workload`` (one
  workload across nodes — a workload regression), ``shared-node`` (one
  node across workloads — sick hardware), or ``fleet-wide``;
- :func:`summarize` reduces the groups to the counters ``invarnetx
  health`` and ``GET /health`` surface.

Everything here is a pure function of manifest data: orderings are
defined by (alarm tick, workload, node, bundle id) only, so ``invarnetx
incidents list|show`` renders byte-identically however the bundles were
produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.online import read_summary
from repro.core.persistence import committed_dirs

__all__ = [
    "DEFAULT_HORIZON",
    "IncidentRecord",
    "PlatformIncident",
    "scan_bundles",
    "classify",
    "correlate",
    "summarize",
    "render_incident_list",
    "render_incident_show",
]

#: Alarm ticks within which two bundles chain into one platform
#: incident.  30 ticks is one cool-down: alarms closer than a monitor's
#: own re-arm period are one event, not two.
DEFAULT_HORIZON = 30


@dataclass(frozen=True)
class IncidentRecord:
    """One diagnosed incident, as the correlator sees it.

    Attributes:
        bundle_id: the committed bundle id.
        workload: context workload.
        node: context node id.
        alarm_tick: tick the lane's alarm fired.
        tick: tick the diagnosis was emitted.
        cause: the matched root cause, or None.
        matched: did the signature ranking clear the similarity floor?
        request_id: HTTP request id of the triggering batch ("" outside
            HTTP ingest).
        path: the bundle directory (None for a record built by hand).

    ``tick``, ``alarm_tick``, ``cause`` and ``matched`` are the
    manifest's :meth:`~repro.core.online.DiagnosisEvent.summary` head.
    """

    bundle_id: str
    workload: str
    node: str
    alarm_tick: int
    tick: int
    cause: str | None
    matched: bool
    request_id: str = ""
    path: Path | None = None

    @property
    def context_label(self) -> str:
        return f"{self.workload}@{self.node}"

    def sort_key(self) -> tuple[int, str, str, str]:
        return (self.alarm_tick, self.workload, self.node, self.bundle_id)


@dataclass(frozen=True)
class PlatformIncident:
    """A correlated group of incident records.

    Attributes:
        incident_id: ``P01``, ``P02``, ... in first-alarm order.
        classification: ``single-context`` / ``shared-workload`` /
            ``shared-node`` / ``fleet-wide``.
        records: member records, (alarm tick, workload, node) order.
    """

    incident_id: str
    classification: str
    records: tuple[IncidentRecord, ...]

    @property
    def first_alarm(self) -> int:
        return self.records[0].alarm_tick

    @property
    def last_alarm(self) -> int:
        return self.records[-1].alarm_tick

    @property
    def contexts(self) -> list[str]:
        """Distinct member contexts, sorted."""
        return sorted({r.context_label for r in self.records})

    @property
    def causes(self) -> list[str]:
        """Distinct matched causes, sorted ('-' never appears here)."""
        return sorted({r.cause for r in self.records if r.cause})

    def to_json(self) -> dict[str, Any]:
        return {
            "incident_id": self.incident_id,
            "classification": self.classification,
            "first_alarm": self.first_alarm,
            "last_alarm": self.last_alarm,
            "contexts": self.contexts,
            "causes": self.causes,
            "bundles": [r.bundle_id for r in self.records],
        }


# ----------------------------------------------------------------------
def _record_from_manifest(
    manifest: dict[str, Any], path: Path
) -> IncidentRecord:
    context = manifest["context"]
    return IncidentRecord(
        bundle_id=str(manifest["bundle_id"]),
        workload=str(context["workload"]),
        node=str(context["node_id"]),
        request_id=str(manifest.get("request_id", "")),
        path=path,
        **read_summary(manifest),
    )


def scan_bundles(root: str | Path) -> list[IncidentRecord]:
    """Read every *committed* bundle under an incidents directory
    (DESIGN.md §9: aborted attempts are skipped; a missing or empty root
    yields an empty list).  Records come back in
    :meth:`IncidentRecord.sort_key` order.
    """
    records = [
        _record_from_manifest(manifest, entry)
        for entry, manifest in committed_dirs(root)
    ]
    return sorted(records, key=IncidentRecord.sort_key)


def classify(records: tuple[IncidentRecord, ...]) -> str:
    """Place one correlated group on the paper's context axes."""
    contexts = {(r.workload, r.node) for r in records}
    if len(contexts) <= 1:
        return "single-context"
    workloads = {w for w, _ in contexts}
    nodes = {n for _, n in contexts}
    if len(workloads) == 1:
        return "shared-workload"
    if len(nodes) == 1:
        return "shared-node"
    return "fleet-wide"


def correlate(
    records: list[IncidentRecord], horizon: int = DEFAULT_HORIZON
) -> list[PlatformIncident]:
    """Group temporally-chained records into platform incidents.

    Records are chained greedily in alarm-tick order: a record joins the
    open group when its alarm is within ``horizon`` ticks of the group's
    latest alarm (transitive — a slow-rolling fault that trips lanes one
    by one stays one incident), otherwise it opens a new group.

    Args:
        records: the incident records (any order).
        horizon: maximum alarm-tick gap inside one incident.

    Returns:
        Platform incidents in first-alarm order, ids ``P01``, ``P02``...
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    ordered = sorted(records, key=IncidentRecord.sort_key)
    groups: list[list[IncidentRecord]] = []
    for record in ordered:
        if (
            groups
            and record.alarm_tick - groups[-1][-1].alarm_tick <= horizon
        ):
            groups[-1].append(record)
        else:
            groups.append([record])
    return [
        PlatformIncident(
            incident_id=f"P{i:02d}",
            classification=classify(tuple(group)),
            records=tuple(group),
        )
        for i, group in enumerate(groups, start=1)
    ]


def summarize(
    records: list[IncidentRecord], horizon: int = DEFAULT_HORIZON
) -> dict[str, Any]:
    """The counters the health surfaces report.

    Returns:
        ``{"bundles", "platform_incidents", "multi_context",
        "classes"}`` — ``classes`` maps classification to incident
        count, sorted by name.
    """
    incidents = correlate(records, horizon)
    classes: dict[str, int] = {}
    for incident in incidents:
        classes[incident.classification] = (
            classes.get(incident.classification, 0) + 1
        )
    return {
        "bundles": len(records),
        "platform_incidents": len(incidents),
        "multi_context": sum(
            1 for i in incidents if len(i.contexts) > 1
        ),
        "classes": dict(sorted(classes.items())),
    }


# ----------------------------------------------------------------------
# repro: deterministic
def render_incident_list(incidents: list[PlatformIncident]) -> str:
    """One line per platform incident (byte-deterministic)."""
    if not incidents:
        return "no platform incidents"
    lines = []
    for incident in incidents:
        causes = ", ".join(incident.causes) or "-"
        lines.append(
            f"{incident.incident_id}  {incident.classification:<15s}  "
            f"{len(incident.records)} bundle(s)  "
            f"{len(incident.contexts)} context(s)  "
            f"alarms {incident.first_alarm}..{incident.last_alarm}  "
            f"cause {causes}"
        )
    return "\n".join(lines)


# repro: deterministic
def render_incident_show(incident: PlatformIncident) -> str:
    """Full member listing of one platform incident."""
    title = (
        f"{incident.incident_id} {incident.classification} — "
        f"{len(incident.records)} bundle(s), "
        f"alarms {incident.first_alarm}..{incident.last_alarm}"
    )
    lines = [title, "=" * len(title)]
    causes = ", ".join(incident.causes) or "-"
    lines.append(f"causes: {causes}")
    lines.append(f"contexts: {', '.join(incident.contexts)}")
    lines.append("")
    for record in incident.records:
        request = f"  request-id {record.request_id}" if record.request_id else ""
        lines.append(
            f"  {record.bundle_id}  {record.context_label:<24s} "
            f"alarm {record.alarm_tick:4d}  diagnosed {record.tick:4d}  "
            f"cause {record.cause or '-'}{request}"
        )
    return "\n".join(lines)
