"""One ``runs/<run_id>/`` directory per campaign execution.

Layout (``manifest.json`` is the commit point of DESIGN.md §9; a killed
campaign leaves event streams behind but never a manifest):

.. code-block:: text

    runs/<run_id>/
      spec.json          # the CampaignSpec as given
      events/            # per-(system, context) JSONL evidence streams
        <system>--<workload>@<node>.jsonl
      report.json        # full per-fault scores, confusion, timings
      report.md          # human summary
      run_table.csv      # one row per system x repetition (see below)
      manifest.json      # commit point: spec + summary + index payload

``run_table.csv`` is the campaign's core artifact — the accuracy
analogue of ``BENCH_*.json`` — with one row per system × repetition and
the columns documented in :data:`RUN_TABLE_COLUMNS` (and, prose-form,
in ``RUN_TABLE_COLUMNS.md`` at the repository root).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any
from urllib.parse import quote

from repro.core.persistence import (
    MANIFEST_NAME,
    commit_manifest,
    committed_dirs,
    read_manifest,
)

__all__ = [
    "EVENTS_DIR",
    "MANIFEST_NAME",
    "REPORT_JSON",
    "REPORT_MD",
    "RUN_FORMAT",
    "RUN_TABLE_COLUMNS",
    "RUN_TABLE_NAME",
    "SPEC_NAME",
    "RunRecorder",
    "commit_manifest",
    "committed_manifests",
    "format_run_table",
    "load_manifest",
    "load_report",
    "measurement_row",
    "render_report_md",
]

REPORT_JSON = "report.json"
REPORT_MD = "report.md"
RUN_TABLE_NAME = "run_table.csv"
SPEC_NAME = "spec.json"
EVENTS_DIR = "events"

#: Run-directory schema version; bump on incompatible layout changes.
RUN_FORMAT = 1

#: ``run_table.csv`` columns, in file order: name → one-line meaning.
#: The prose reference (meaning, source, units) is RUN_TABLE_COLUMNS.md.
RUN_TABLE_COLUMNS: tuple[tuple[str, str], ...] = (
    ("run_id", "registry run id (<spec name>-<spec fingerprint>)"),
    ("spec_name", "campaign family name from the spec"),
    ("spec_fingerprint", "12-hex config fingerprint of the spec"),
    ("system", "cohort label of the diagnosing system"),
    ("repetition", "0-based whole-campaign repetition index"),
    ("workload", "diagnosed workload"),
    ("node", "fault-target node id"),
    ("faults", "number of distinct faults injected"),
    ("outcomes", "held-out runs diagnosed (faults x test_reps)"),
    ("detected", "outcomes where the anomaly detector fired"),
    ("tp", "true positives summed over faults"),
    ("fp", "false positives summed over faults"),
    ("fn", "false negatives summed over faults"),
    ("precision", "unweighted mean per-fault precision"),
    ("recall", "unweighted mean per-fault recall"),
    ("f1", "harmonic mean of the average precision and recall"),
    ("train_seconds", "model+invariant training span wall time"),
    ("signature_seconds", "signature-learning span wall time"),
    ("diagnose_seconds", "held-out diagnosis span wall time"),
)

_COLUMN_NAMES = tuple(name for name, _ in RUN_TABLE_COLUMNS)

#: Stage-span names recorded by ``run_diagnosis_experiment`` → column.
_STAGE_COLUMNS = {
    "experiment.train": "train_seconds",
    "experiment.signatures": "signature_seconds",
    "experiment.diagnose": "diagnose_seconds",
}


class RunRecorder:
    """Streams one system pass's per-context JSONL evidence.

    One file per (system, context) under ``events/``; every call appends
    one JSON line with a recorder-local ``seq``.  Events are evidence,
    not the commit point: a crashed campaign leaves them behind and the
    re-run starts from a clean directory.

    Args:
        events_dir: the run's ``events/`` directory (created on demand).
        system: cohort label the events belong to.
        repetition: campaign repetition the events belong to.
    """

    def __init__(
        self, events_dir: str | Path, system: str, repetition: int = 0
    ) -> None:
        self.events_dir = Path(events_dir)
        self.system = system
        self.repetition = repetition
        self._seq = 0

    def _path(self, context_key: tuple[str, str]) -> Path:
        workload, node = context_key
        name = (
            f"{quote(self.system, safe='')}--"
            f"{quote(workload, safe='')}@{quote(node, safe='')}.jsonl"
        )
        return self.events_dir / name

    def record(
        self, context_key: tuple[str, str], kind: str, **fields: Any
    ) -> dict:
        """Append one event to the context's stream; returns the entry."""
        if not kind:
            raise ValueError("event kind must be non-empty")
        self._seq += 1
        entry: dict[str, Any] = dict(fields)
        entry["kind"] = kind
        entry["system"] = self.system
        entry["repetition"] = self.repetition
        entry["seq"] = self._seq
        line = json.dumps(
            entry, sort_keys=True, separators=(",", ":"), default=repr
        )
        self.events_dir.mkdir(parents=True, exist_ok=True)
        with open(self._path(context_key), "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return entry


# ----------------------------------------------------------------------
# run-table rows
# ----------------------------------------------------------------------
def measurement_row(
    spec: "CampaignSpec",
    system: str,
    repetition: int,
    result: "DiagnosisExperimentResult",
) -> dict[str, Any]:
    """One ``run_table.csv`` row (also the manifest/index payload).

    Args:
        spec: the campaign spec the measurement belongs to.
        system: cohort label.
        repetition: repetition index.
        result: the scored experiment outcome (carrying stage timings).
    """
    average = result.scores["average"]
    timings = result.stage_seconds
    row: dict[str, Any] = {
        "run_id": spec.run_id,
        "spec_name": spec.name,
        "spec_fingerprint": spec.fingerprint,
        "system": system,
        "repetition": repetition,
        "workload": spec.workload,
        "node": spec.node,
        "faults": len(spec.faults),
        "outcomes": len(result.outcomes),
        "detected": sum(1 for o in result.outcomes if o.detected),
        "tp": average.tp,
        "fp": average.fp,
        "fn": average.fn,
        "precision": round(average.precision, 6),
        "recall": round(average.recall, 6),
        "f1": round(average.f1, 6),
    }
    for span_name, column in _STAGE_COLUMNS.items():
        row[column] = round(timings.get(span_name, 0.0), 6)
    missing = set(_COLUMN_NAMES) - set(row)
    if missing:
        raise AssertionError(f"run-table row missing columns: {missing}")
    return row


def format_run_table(rows: list[dict[str, Any]]) -> str:
    """Render measurement rows as the ``run_table.csv`` text.

    Rows keep their given order (system order, then repetition), so the
    same measurements always produce the same bytes.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_COLUMN_NAMES)
    for row in rows:
        writer.writerow([row[name] for name in _COLUMN_NAMES])
    return buffer.getvalue()


# ----------------------------------------------------------------------
# reports and the manifest commit point
# ----------------------------------------------------------------------
def render_report_md(manifest: dict[str, Any]) -> str:
    """Markdown summary of one committed run (``report.md``)."""
    spec = manifest["spec"]
    lines = [
        f"# Campaign run `{manifest['run_id']}`",
        "",
        f"- spec: `{spec['name']}` (fingerprint "
        f"`{manifest['spec_fingerprint']}`)",
        f"- workload: `{spec['workload']}` on `{spec['node']}`",
        f"- faults: {len(spec['faults'])} "
        f"({', '.join(spec['faults'])})",
        f"- held-out runs per fault: {spec['test_reps']}; "
        f"repetitions: {spec['repetitions']}",
        "",
        "| system | repetition | outcomes | detected | precision "
        "| recall | f1 |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in manifest["table"]:
        lines.append(
            f"| {row['system']} | {row['repetition']} | {row['outcomes']} "
            f"| {row['detected']} | {row['precision']:.4f} "
            f"| {row['recall']:.4f} | {row['f1']:.4f} |"
        )
    lines.append("")
    lines.append(
        "Columns are documented in `RUN_TABLE_COLUMNS.md`; the full "
        "per-fault scores live in `report.json`."
    )
    return "\n".join(lines) + "\n"


def _checked(manifest: dict[str, Any], where: Path) -> dict[str, Any]:
    if "run_id" not in manifest:
        raise ValueError(f"{where / MANIFEST_NAME} is not a run manifest")
    return manifest


def load_manifest(run_dir: str | Path) -> dict[str, Any] | None:
    """The committed manifest of a run directory, or None for an
    aborted attempt; raises ``ValueError`` for an unreadable one."""
    manifest = read_manifest(run_dir)
    return None if manifest is None else _checked(manifest, Path(run_dir))


def committed_manifests(runs_root: str | Path) -> list[dict[str, Any]]:
    """Every committed run manifest under ``runs/``, by run id."""
    return [
        _checked(manifest, run_dir)
        for run_dir, manifest in committed_dirs(runs_root)
    ]


def load_report(run_dir: str | Path) -> dict[str, Any] | None:
    """The run's ``report.json``, or None when absent."""
    path = Path(run_dir) / REPORT_JSON
    if not path.exists():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a report object")
    return doc
