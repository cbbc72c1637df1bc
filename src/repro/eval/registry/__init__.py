"""The campaign registry: spec → cohort → run → summarize → compare.

The experiment runners of :mod:`repro.eval.experiments` produce one
in-memory result per call; this package makes those executions durable
and queryable:

- :mod:`repro.eval.registry.spec` — :class:`CampaignSpec`, the
  declarative description of a campaign (workload, faults, systems,
  repetition counts, seeds) with a stable config fingerprint;
- :mod:`repro.eval.registry.systems` — builds the diagnosis system
  behind each :class:`SystemSpec` label (InvarNet-X, ARX, the
  no-operation-context ablation, a PeerWatch adapter);
- :mod:`repro.eval.registry.run` — one ``runs/<run_id>/`` directory per
  execution, committed by its ``manifest.json`` (DESIGN.md §9), with
  ``report.json`` / ``report.md``, per-context JSONL event streams and a
  ``run_table.csv`` with one documented row per system × repetition;
- :mod:`repro.eval.registry.index` — the cross-run SQLite index
  (stdlib ``sqlite3``), upserted on every commit and rebuildable from
  the manifests alone;
- :mod:`repro.eval.registry.executor` — :class:`RunRegistry`, the
  orchestration layer tying spec execution, run directories, the index
  and the registry's run ledger together;
- :mod:`repro.eval.registry.bakeoff` — byte-deterministic cohort
  comparisons (``invarnetx runs compare``) scored from the index alone.
"""

from repro.eval.registry.bakeoff import (
    BakeoffReport,
    CohortSummary,
    compare_cohorts,
    summarize_cohort,
)
from repro.eval.registry.executor import CampaignRun, RunRegistry, execute_spec
from repro.eval.registry.index import INDEX_NAME, RunIndex
from repro.eval.registry.run import (
    RUN_FORMAT,
    RUN_TABLE_COLUMNS,
    RUN_TABLE_NAME,
    RunRecorder,
    format_run_table,
    load_manifest,
    load_report,
)
from repro.eval.registry.spec import (
    BUILTIN_SPECS,
    CampaignSpec,
    SystemSpec,
    builtin_spec,
)
from repro.eval.registry.systems import PeerWatchSystem, build_system

__all__ = [
    "BUILTIN_SPECS",
    "BakeoffReport",
    "CampaignRun",
    "CampaignSpec",
    "CohortSummary",
    "INDEX_NAME",
    "PeerWatchSystem",
    "RUN_FORMAT",
    "RUN_TABLE_COLUMNS",
    "RUN_TABLE_NAME",
    "RunIndex",
    "RunRecorder",
    "RunRegistry",
    "SystemSpec",
    "build_system",
    "builtin_spec",
    "compare_cohorts",
    "execute_spec",
    "format_run_table",
    "load_manifest",
    "load_report",
    "summarize_cohort",
]
