"""Campaign execution: specs in, committed run directories out.

Two layers:

- :func:`execute_spec` is the pure core — build each system, run
  :func:`repro.eval.experiments.run_diagnosis_experiment` once per
  (system, repetition) and return the in-memory results.  The exhibit
  runners (``run_fig7_tpcds_diagnosis`` and friends) are thin wrappers
  over it.
- :class:`RunRegistry` makes executions durable: one ``runs/<run_id>/``
  directory per spec fingerprint, committed by its manifest (DESIGN.md
  §9), an upserted SQLite index and a ``campaign-run`` entry in the
  registry's own run ledger.  Re-executing an already-committed spec is
  a no-op (``skipped=True``) unless forced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, TYPE_CHECKING

from repro.cluster.cluster import HadoopCluster
from repro.core.context import OperationContext
from repro.core.persistence import (
    atomic_write_text,
    begin_commit,
    canonical_json,
)
from repro.datagen.campaigns import FaultCampaign
from repro.obs.ledger import LEDGER_NAME, RunLedger
from repro.store import ModelStore
from repro.eval.registry.index import INDEX_NAME, RunIndex
from repro.eval.registry.run import (
    EVENTS_DIR,
    REPORT_JSON,
    RUN_FORMAT,
    RUN_TABLE_NAME,
    REPORT_MD,
    SPEC_NAME,
    RunRecorder,
    commit_manifest,
    committed_manifests,
    format_run_table,
    load_manifest,
    load_report,
    measurement_row,
    render_report_md,
)
from repro.eval.registry.systems import build_system

if TYPE_CHECKING:  # pragma: no cover
    from repro.eval.experiments import DiagnosisExperimentResult
    from repro.eval.registry.spec import CampaignSpec, SystemSpec

__all__ = ["CampaignRun", "RunRegistry", "execute_spec"]

#: Recorder factory signature: ``(system_label, repetition) -> recorder``.
RecorderFactory = Callable[[str, int], Any]


def _contexts_and_campaigns(
    spec: "CampaignSpec",
    system_spec: "SystemSpec",
    cluster: HadoopCluster,
    repetition: int,
) -> tuple[
    OperationContext,
    FaultCampaign,
    list[tuple[OperationContext, FaultCampaign]],
]:
    """The primary (context, campaign) and the system's extra training.

    Extra-workload campaigns reuse the primary shape with one held-out
    run and a ``+7`` seed shift — the Figs. 9/10 protocol for mixing
    Sort and TPC-DS into the no-operation-context ablation's one global
    model.  Fault lists come from the workload class (TPC-DS runs the
    interactive catalog, batch jobs drop Overload).
    """
    from repro.eval.experiments import (
        BATCH_FAULT_NAMES,
        INTERACTIVE_FAULT_NAMES,
    )

    config = spec.campaign_config(repetition)
    campaign = FaultCampaign(cluster, config, spec.faults)
    context = OperationContext(
        spec.workload, spec.node, cluster.ip_of(spec.node)
    )
    extra: list[tuple[OperationContext, FaultCampaign]] = []
    for workload in system_spec.extra_workloads:
        other_config = replace(
            config,
            workload=workload,
            test_reps=1,
            base_seed=config.base_seed + 7,
        )
        other_faults = (
            INTERACTIVE_FAULT_NAMES
            if workload == "tpcds"
            else BATCH_FAULT_NAMES
        )
        extra.append(
            (
                OperationContext(
                    workload, spec.node, cluster.ip_of(spec.node)
                ),
                FaultCampaign(cluster, other_config, other_faults),
            )
        )
    return context, campaign, extra


def execute_spec(
    spec: "CampaignSpec",
    cluster: HadoopCluster | None = None,
    store: ModelStore | None = None,
    recorder_factory: RecorderFactory | None = None,
) -> dict[str, list["DiagnosisExperimentResult"]]:
    """Run every (system, repetition) of a spec; no files are written.

    Args:
        spec: the campaign to execute.
        cluster: simulated cluster (fresh default when omitted).
        store: optional model registry — ``invarnet-x`` systems persist
            into it and warm-start from it (other kinds ignore it; the
            ablation must retrain its deliberately-shared slot).
        recorder_factory: optional ``(label, repetition) -> recorder``
            hook; each experiment streams its train/signature/diagnose
            events into the recorder it is handed.

    Returns:
        Cohort label → one scored result per repetition, in spec order.
    """
    from repro.eval.experiments import run_diagnosis_experiment

    cluster = cluster or HadoopCluster()
    out: dict[str, list["DiagnosisExperimentResult"]] = {}
    for system_spec in spec.systems:
        per_repetition: list["DiagnosisExperimentResult"] = []
        for repetition in range(spec.repetitions):
            context, campaign, extra = _contexts_and_campaigns(
                spec, system_spec, cluster, repetition
            )
            use_store = store if system_spec.kind == "invarnet-x" else None
            system = build_system(system_spec, store=use_store)
            recorder = None
            if recorder_factory is not None:
                recorder = recorder_factory(system_spec.label, repetition)
            per_repetition.append(
                run_diagnosis_experiment(
                    system,
                    campaign,
                    context,
                    system_label=system_spec.label,
                    extra_training=extra,
                    warm_start=use_store is not None,
                    recorder=recorder,
                )
            )
        out[system_spec.label] = per_repetition
    return out


@dataclass
class CampaignRun:
    """One registry execution (or the committed run it was elided by).

    Attributes:
        run_id: ``<spec name>-<spec fingerprint>``.
        run_dir: the run's directory under the registry's ``runs/``.
        manifest: the committed manifest document.
        skipped: True when an already-committed run satisfied the spec
            and nothing was executed.
        results: label → per-repetition results; empty for skipped runs
            (the durable equivalents live in ``report.json``).
    """

    run_id: str
    run_dir: Path
    manifest: dict[str, Any]
    skipped: bool = False
    results: dict[str, list["DiagnosisExperimentResult"]] = field(
        default_factory=dict, repr=False
    )


def _fault_score_rows(
    spec: "CampaignSpec",
    results: dict[str, list["DiagnosisExperimentResult"]],
) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for label, per_repetition in results.items():
        for repetition, result in enumerate(per_repetition):
            for fault, score in sorted(result.scores.items()):
                if fault == "average":
                    continue
                rows.append(
                    {
                        "run_id": spec.run_id,
                        "system": label,
                        "repetition": repetition,
                        "fault": fault,
                        "precision": round(score.precision, 6),
                        "recall": round(score.recall, 6),
                        "tp": score.tp,
                        "fp": score.fp,
                        "fn": score.fn,
                    }
                )
    return rows


def _report_document(
    spec: "CampaignSpec",
    results: dict[str, list["DiagnosisExperimentResult"]],
) -> dict[str, Any]:
    """The ``report.json`` body: everything the manifest has, plus
    per-fault confusion detail too bulky for the index."""
    measurements = []
    for label, per_repetition in results.items():
        for repetition, result in enumerate(per_repetition):
            confusion = [
                {"truth": truth, "predicted": predicted, "count": count}
                for (truth, predicted), count in sorted(
                    result.confusion().items()
                )
            ]
            measurements.append(
                {
                    "system": label,
                    "repetition": repetition,
                    "workload": result.workload,
                    "scores": {
                        fault: {
                            "precision": round(score.precision, 6),
                            "recall": round(score.recall, 6),
                            "tp": score.tp,
                            "fp": score.fp,
                            "fn": score.fn,
                        }
                        for fault, score in sorted(result.scores.items())
                    },
                    "confusion": confusion,
                    "stage_seconds": {
                        name: round(seconds, 6)
                        for name, seconds in sorted(
                            result.stage_seconds.items()
                        )
                    },
                }
            )
    return {
        "format": RUN_FORMAT,
        "run_id": spec.run_id,
        "measurements": measurements,
    }


class RunRegistry:
    """The durable campaign layer: a root directory holding ``runs/``,
    the cross-run SQLite index and the registry's own run ledger.

    Args:
        root: registry root (created on first execution).
        clock: wall-clock source for manifest/ledger timestamps;
            injectable so tests produce byte-stable artifacts.
    """

    def __init__(
        self,
        root: str | Path,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self._clock = clock
        self.index = RunIndex(self.root / INDEX_NAME)

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    def ledger(self) -> RunLedger:
        """The registry's append-only campaign history."""
        return RunLedger(self.root / LEDGER_NAME, clock=self._clock)

    def run_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id

    # ------------------------------------------------------------------
    def execute(
        self,
        spec: "CampaignSpec",
        cluster: HadoopCluster | None = None,
        store: ModelStore | None = None,
        force: bool = False,
    ) -> CampaignRun:
        """Execute a spec into a committed run directory.

        A run whose manifest is already committed is returned as-is
        (``skipped=True``) — the fingerprint in the run id guarantees it
        was produced by this exact spec.  ``force=True`` discards it and
        re-runs.  An uncommitted directory (a killed earlier attempt) is
        cleared like any other start of a commit.

        Args:
            spec: the campaign to execute.
            cluster: simulated cluster (fresh default when omitted).
            store: optional model registry for ``invarnet-x`` systems.
            force: re-run even over a committed run.
        """
        run_dir = self.run_dir(spec.run_id)
        committed = load_manifest(run_dir)
        if committed is not None and not force:
            return CampaignRun(
                run_id=spec.run_id,
                run_dir=run_dir,
                manifest=committed,
                skipped=True,
            )
        begin_commit(run_dir)
        atomic_write_text(run_dir / SPEC_NAME, canonical_json(spec.to_json()))

        events_dir = run_dir / EVENTS_DIR

        def recorder_factory(label: str, repetition: int) -> RunRecorder:
            return RunRecorder(events_dir, label, repetition)

        results = execute_spec(
            spec, cluster, store=store, recorder_factory=recorder_factory
        )

        table = [
            measurement_row(spec, label, repetition, result)
            for label, per_repetition in results.items()
            for repetition, result in enumerate(per_repetition)
        ]
        manifest = {
            "format": RUN_FORMAT,
            "run_id": spec.run_id,
            "spec": spec.to_json(),
            "spec_fingerprint": spec.fingerprint,
            "created": round(self._clock(), 6),
            "status": "ok",
            "table": table,
            "fault_scores": _fault_score_rows(spec, results),
        }
        atomic_write_text(
            run_dir / REPORT_JSON,
            canonical_json(_report_document(spec, results)),
        )
        atomic_write_text(run_dir / REPORT_MD, render_report_md(manifest))
        atomic_write_text(run_dir / RUN_TABLE_NAME, format_run_table(table))
        commit_manifest(run_dir, manifest)
        self.index.upsert(manifest)
        average = _overall_average(table)
        self.ledger().append(
            "campaign-run",
            run_id=spec.run_id,
            spec=spec.name,
            fingerprint=spec.fingerprint,
            systems=[s.label for s in spec.systems],
            measurements=len(table),
            precision=average.get("precision"),
            recall=average.get("recall"),
            forced=force,
        )
        return CampaignRun(
            run_id=spec.run_id,
            run_dir=run_dir,
            manifest=manifest,
            results=results,
        )

    # ------------------------------------------------------------------
    def manifests(self) -> list[dict[str, Any]]:
        """Committed manifests under ``runs/``, sorted by run id."""
        return committed_manifests(self.runs_dir)

    def manifest(self, run_id: str) -> dict[str, Any] | None:
        """One committed manifest, or None."""
        return load_manifest(self.run_dir(run_id))

    def report(self, run_id: str) -> dict[str, Any] | None:
        """One run's ``report.json``, or None."""
        return load_report(self.run_dir(run_id))

    def rebuild_index(self) -> int:
        """Recreate the SQLite index from the manifests alone."""
        return self.index.rebuild(self.runs_dir)


def _overall_average(table: list[dict[str, Any]]) -> dict[str, float]:
    if not table:
        return {}
    n = len(table)
    return {
        "precision": round(sum(r["precision"] for r in table) / n, 6),
        "recall": round(sum(r["recall"] for r in table) / n, 6),
    }
