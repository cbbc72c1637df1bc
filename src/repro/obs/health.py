"""The drift watchdog: longitudinal health scoring of stored contexts.

:mod:`repro.obs.explain` answers "why did this incident rank that
cause?"; this module answers the question operators need *between*
incidents: "can I still trust this context's models?"  Each stored
context is scored by five checks, every one tied to a failure mode the
paper's design is known to develop over time:

``residual-drift``
    The ARIMA performance model was calibrated on training residuals
    (§3.2); as the workload's normal regime shifts, online residuals on
    *healthy* ticks creep up until the beta-max threshold either fires
    constantly or never.  Compares the recent runs' normal-regime
    residual quantiles (from the run ledger) against the training
    summary.

``fragile-invariants``
    Algorithm 1 keeps a pair when its MIC spread over the training runs
    is below τ; a pair whose spread landed *just* under τ is one noisy
    run away from flipping in or out of the invariant set, destabilising
    every signature that indexes it.  Counts pairs within a configurable
    margin of τ.

``ambiguous-signatures``
    §4.3's "typical signature conflict" (Net-drop vs Net-delay): two
    problems whose signatures sit within a Hamming-distance floor of
    each other are indistinguishable to the ranker, eroding §3.4
    precision silently.  Reports the closest cross-problem pair.

``staleness``
    Runs diagnosed since the context was last retrained.  Models are
    snapshots of a training corpus; a context serving hundreds of runs
    on old models accumulates all three risks above.

``timing-regression``
    Span-derived stage timings from the ledger, latest entry vs a
    rolling-median baseline — the longitudinal complement of the Table 1
    overhead snapshot (a la change-point regression trackers).

One check is *fleet-level* rather than per-context:

``slo-burn``
    The serving fleet's SLO tracker (:mod:`repro.obs.slo`) appends
    ``slo-burn`` / ``slo-recovered`` ledger entries as objectives start
    and stop burning error budget; this check reports any objective
    whose most recent transition is still ``slo-burn`` — the fleet was
    burning budget when last observed, and nobody has seen it recover.

``platform-incidents``
    Correlated incident bundles (:mod:`repro.serve.incidents` feeds the
    summary in): a platform incident spanning several operation
    contexts is a platform-level fault — sick hardware or a workload
    regression — not a lane-local blip, and warrants a person.  Skips
    when no incident summary is supplied or no bundles exist.

Statuses are ``ok`` / ``warn`` / ``skip`` (insufficient data); a
context's *score* is the fraction of decidable checks that pass.  All
output is byte-deterministic for a fixed store + ledger: checks iterate
sorted keys and derive every number from persisted values.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.invariants import TAU
from repro.core.signatures import matching_similarity
from repro.obs.ledger import RunLedger
from repro.store.base import ContextKey, ContextModels, ModelStore

__all__ = [
    "OK",
    "WARN",
    "SKIP",
    "FLEET_CHECK_NAMES",
    "HealthThresholds",
    "HealthCheck",
    "ContextHealth",
    "HealthReport",
    "score_context",
    "score_store",
]

#: Check verdicts.
OK = "ok"
WARN = "warn"
SKIP = "skip"

#: Order of the checks in every report (fixed for determinism).
CHECK_NAMES = (
    "residual-drift",
    "fragile-invariants",
    "ambiguous-signatures",
    "staleness",
    "timing-regression",
)

#: Fleet-level checks (not tied to one context).
FLEET_CHECK_NAMES = ("slo-burn", "platform-incidents")


@dataclass(frozen=True)
class HealthThresholds:
    """Tunables of the watchdog (see DESIGN.md §11 for the rationale).

    Attributes:
        tau: Algorithm 1 stability threshold the fragility margin is
            measured against.
        fragility_margin: a pair with MIC spread >= ``tau - margin`` is
            fragile.
        ambiguity_floor: cross-problem signatures closer than this
            normalised Hamming distance are ambiguous.
        stale_runs: diagnoses since the last retrain before a context is
            stale.
        drift_ratio: recent normal-regime residual p90 above
            ``ratio * training p90`` is drift.
        drift_window: diagnose entries pooled for the recent residual
            estimate.
        timing_factor: latest stage time above ``factor * baseline``
            (rolling median) is a regression.
        timing_window: ledger entries forming the rolling baseline.
        timing_min_delta: absolute seconds a stage must regress by —
            sub-millisecond stages should not flap the check.
    """

    tau: float = TAU
    fragility_margin: float = 0.02
    ambiguity_floor: float = 0.1
    stale_runs: int = 50
    drift_ratio: float = 1.5
    drift_window: int = 5
    timing_factor: float = 3.0
    timing_window: int = 20
    timing_min_delta: float = 0.005

    def overridden(self, **overrides: Any) -> "HealthThresholds":
        """A copy with any non-None overrides applied (CLI plumbing)."""
        kept = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **kept) if kept else self


@dataclass(frozen=True)
class HealthCheck:
    """One check's verdict on one context.

    Attributes:
        name: check name (one of :data:`CHECK_NAMES`).
        status: ``ok`` / ``warn`` / ``skip``.
        detail: one human-readable sentence of evidence.
        value: the measured quantity the verdict rests on, when there is
            one.
        threshold: the bound ``value`` was compared against.
    """

    name: str
    status: str
    detail: str
    value: float | None = None
    threshold: float | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "value": self.value,
            "threshold": self.threshold,
        }


@dataclass
class ContextHealth:
    """All checks for one stored context."""

    key: ContextKey
    checks: list[HealthCheck] = field(default_factory=list)

    @property
    def status(self) -> str:
        """Worst verdict: warn beats ok; all-skip reports skip."""
        statuses = {c.status for c in self.checks}
        if WARN in statuses:
            return WARN
        if OK in statuses:
            return OK
        return SKIP

    @property
    def score(self) -> float:
        """Fraction of decidable (non-skip) checks that pass; 1.0 when
        nothing is decidable yet."""
        decided = [c for c in self.checks if c.status != SKIP]
        if not decided:
            return 1.0
        passed = sum(1 for c in decided if c.status == OK)
        return passed / len(decided)

    def check(self, name: str) -> HealthCheck:
        """The named check (raises KeyError when absent)."""
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict[str, Any]:
        return {
            "context": list(self.key),
            "status": self.status,
            "score": self.score,
            "checks": [c.to_json() for c in self.checks],
        }


@dataclass
class HealthReport:
    """The watchdog's verdict over a whole model registry."""

    contexts: list[ContextHealth] = field(default_factory=list)
    thresholds: HealthThresholds = field(default_factory=HealthThresholds)
    ledger_entries: int = 0
    fleet: list[HealthCheck] = field(default_factory=list)

    @property
    def warnings(self) -> int:
        """Total warn verdicts across all contexts and fleet checks."""
        return sum(
            1
            for ctx in self.contexts
            for c in ctx.checks
            if c.status == WARN
        ) + sum(1 for c in self.fleet if c.status == WARN)

    # repro: deterministic
    def to_json(self) -> dict[str, Any]:
        return {
            "contexts": [ctx.to_json() for ctx in self.contexts],
            "fleet": [c.to_json() for c in self.fleet],
            "thresholds": {
                "tau": self.thresholds.tau,
                "fragility_margin": self.thresholds.fragility_margin,
                "ambiguity_floor": self.thresholds.ambiguity_floor,
                "stale_runs": self.thresholds.stale_runs,
                "drift_ratio": self.thresholds.drift_ratio,
                "drift_window": self.thresholds.drift_window,
                "timing_factor": self.thresholds.timing_factor,
                "timing_window": self.thresholds.timing_window,
                "timing_min_delta": self.thresholds.timing_min_delta,
            },
            "ledger_entries": self.ledger_entries,
            "warnings": self.warnings,
        }

    # repro: deterministic
    def render_text(self) -> str:
        """Deterministic terminal rendering of the report."""
        lines = [
            f"model health: {len(self.contexts)} context(s), "
            f"{self.warnings} warning(s), "
            f"{self.ledger_entries} ledger entries"
        ]
        for ctx in self.contexts:
            lines.append(
                f"\n{ctx.key[0]}@{ctx.key[1]}  "
                f"status={ctx.status}  score={ctx.score:.2f}"
            )
            for check in ctx.checks:
                lines.append(
                    f"  {check.name:<22s} {check.status:<5s} {check.detail}"
                )
        if self.fleet:
            lines.append("\nfleet")
            for check in self.fleet:
                lines.append(
                    f"  {check.name:<22s} {check.status:<5s} {check.detail}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------
def _check_residual_drift(
    train_entry: dict | None,
    diagnose_entries: list[dict],
    t: HealthThresholds,
) -> HealthCheck:
    name = "residual-drift"
    trained = (train_entry or {}).get("residual_summary") or {}
    base = float(trained.get("p90", 0.0))
    if base <= 0.0:
        return HealthCheck(
            name, SKIP, "no training residual summary in the ledger"
        )
    recent = [
        float(e["residual_summary"]["p90"])
        for e in diagnose_entries[-t.drift_window :]
        if isinstance(e.get("residual_summary"), dict)
        and e["residual_summary"].get("count", 0)
    ]
    if not recent:
        return HealthCheck(
            name, SKIP, "no diagnosed runs with residual summaries yet"
        )
    ratio = statistics.median(recent) / base
    detail = (
        f"normal-regime residual p90 at {ratio:.2f}x the training level "
        f"over the last {len(recent)} run(s) (warn > {t.drift_ratio:g}x)"
    )
    status = WARN if ratio > t.drift_ratio else OK
    return HealthCheck(name, status, detail, ratio, t.drift_ratio)


def _check_fragile_invariants(
    train_entry: dict | None, t: HealthThresholds
) -> HealthCheck:
    name = "fragile-invariants"
    spreads = (train_entry or {}).get("invariant_spread")
    if not isinstance(spreads, list) or not spreads:
        return HealthCheck(
            name, SKIP, "no invariant spreads recorded at training time"
        )
    bound = t.tau - t.fragility_margin
    fragile = sum(1 for s in spreads if float(s) >= bound)
    detail = (
        f"{fragile}/{len(spreads)} invariant pair(s) with MIC spread "
        f"within {t.fragility_margin:g} of tau={t.tau:g}"
    )
    status = WARN if fragile else OK
    return HealthCheck(name, status, detail, float(fragile), 0.0)


def _check_ambiguous_signatures(
    models: ContextModels | None, t: HealthThresholds
) -> HealthCheck:
    name = "ambiguous-signatures"
    database = models.database if models is not None else None
    if database is None or len(database.problems) < 2:
        return HealthCheck(
            name, SKIP, "fewer than two distinct problems stored"
        )
    closest: tuple[float, str, str] | None = None
    signatures = database.signatures
    for i, a in enumerate(signatures):
        for b in signatures[i + 1 :]:
            if a.problem == b.problem:
                continue
            distance = 1.0 - matching_similarity(a.as_array(), b.as_array())
            pair = tuple(sorted((a.problem, b.problem)))
            if closest is None or distance < closest[0]:
                closest = (distance, pair[0], pair[1])
    assert closest is not None  # >=2 problems implies a cross pair
    distance, prob_a, prob_b = closest
    detail = (
        f"closest cross-problem pair {prob_a} vs {prob_b} at normalised "
        f"Hamming distance {distance:.3f} (warn < {t.ambiguity_floor:g})"
    )
    status = WARN if distance < t.ambiguity_floor else OK
    return HealthCheck(name, status, detail, distance, t.ambiguity_floor)


def _check_staleness(
    train_entry: dict | None,
    diagnose_entries: list[dict],
    t: HealthThresholds,
) -> HealthCheck:
    name = "staleness"
    if train_entry is None and not diagnose_entries:
        return HealthCheck(name, SKIP, "no ledger history for this context")
    train_seq = int(train_entry.get("seq", 0)) if train_entry else 0
    since = sum(
        1
        for e in diagnose_entries
        if int(e.get("seq", 0)) > train_seq
    )
    detail = (
        f"{since} run(s) diagnosed since the last retrain "
        f"(warn > {t.stale_runs})"
    )
    status = WARN if since > t.stale_runs else OK
    return HealthCheck(name, status, detail, float(since), float(t.stale_runs))


def _check_timing_regression(
    context_entries: list[dict], t: HealthThresholds
) -> HealthCheck:
    name = "timing-regression"
    timed = [
        e for e in context_entries if isinstance(e.get("stage_timings"), dict)
    ]
    min_baseline = 3
    if len(timed) < min_baseline + 1:
        return HealthCheck(
            name,
            SKIP,
            f"need {min_baseline + 1} timed ledger entries, "
            f"have {len(timed)}",
        )
    latest = timed[-1]["stage_timings"]
    window = timed[-(t.timing_window + 1) : -1]
    regressed: list[tuple[str, float]] = []
    worst = 0.0
    for stage in sorted(latest):
        current = float(latest[stage])
        history = [
            float(e["stage_timings"][stage])
            for e in window
            if stage in e["stage_timings"]
        ]
        if len(history) < min_baseline:
            continue
        baseline = statistics.median(history)
        if baseline <= 0.0:
            continue
        ratio = current / baseline
        worst = max(worst, ratio)
        if (
            ratio > t.timing_factor
            and current - baseline > t.timing_min_delta
        ):
            regressed.append((stage, ratio))
    if regressed:
        listing = ", ".join(f"{s} ({r:.1f}x)" for s, r in regressed)
        return HealthCheck(
            name,
            WARN,
            f"stage(s) above {t.timing_factor:g}x rolling median: {listing}",
            worst,
            t.timing_factor,
        )
    detail = (
        f"worst stage at {worst:.2f}x its rolling median "
        f"(warn > {t.timing_factor:g}x)"
    )
    return HealthCheck(name, OK, detail, worst, t.timing_factor)


def _check_slo_burn(entries: list[dict]) -> HealthCheck:
    """Fleet-level: objectives whose last SLO transition is still a burn."""
    name = "slo-burn"
    last_kind: dict[str, str] = {}
    for e in entries:
        if e.get("kind") in ("slo-burn", "slo-recovered"):
            objective = e.get("objective")
            if isinstance(objective, str):
                last_kind[objective] = e["kind"]
    if not last_kind:
        return HealthCheck(name, SKIP, "no SLO history in the ledger")
    burning = sorted(
        obj for obj, kind in last_kind.items() if kind == "slo-burn"
    )
    if burning:
        return HealthCheck(
            name,
            WARN,
            f"objective(s) burning error budget at last observation: "
            f"{', '.join(burning)}",
            float(len(burning)),
            0.0,
        )
    return HealthCheck(
        name,
        OK,
        f"{len(last_kind)} tracked objective(s), none burning",
        0.0,
        0.0,
    )


def _check_platform_incidents(
    summary: dict | None,
) -> HealthCheck:
    """Fleet-level: multi-context platform incidents among the bundles.

    ``summary`` is :func:`repro.serve.incidents.summarize` output — the
    serve layer computes it so this module stays free of serve imports.
    """
    name = "platform-incidents"
    if not isinstance(summary, dict) or not summary.get("bundles"):
        return HealthCheck(name, SKIP, "no incident bundles to correlate")
    bundles = int(summary["bundles"])
    platform = int(summary.get("platform_incidents", 0))
    multi = int(summary.get("multi_context", 0))
    classes = summary.get("classes") or {}
    listing = ", ".join(
        f"{cls}: {count}" for cls, count in sorted(classes.items())
    )
    if multi:
        return HealthCheck(
            name,
            WARN,
            f"{multi} of {platform} platform incident(s) span multiple "
            f"contexts ({listing}; {bundles} bundle(s))",
            float(multi),
            0.0,
        )
    return HealthCheck(
        name,
        OK,
        f"{platform} platform incident(s), all single-context "
        f"({bundles} bundle(s))",
        0.0,
        0.0,
    )


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------
# repro: deterministic
def score_context(
    key: ContextKey,
    models: ContextModels | None,
    ledger: RunLedger | None,
    thresholds: HealthThresholds | None = None,
) -> ContextHealth:
    """Run every check for one context.

    Args:
        key: the context key.
        models: the stored model slot (None when only the ledger knows
            the context).
        ledger: the run ledger, or None when the registry has none (all
            longitudinal checks then skip).
        thresholds: watchdog tunables (defaults when omitted).
    """
    t = thresholds or HealthThresholds()
    entries = ledger.entries(context=key) if ledger is not None else []
    train_entry = None
    for e in entries:
        if e.get("kind") == "train":
            train_entry = e
    diagnose_entries = [e for e in entries if e.get("kind") == "diagnose"]
    return ContextHealth(
        key=key,
        checks=[
            _check_residual_drift(train_entry, diagnose_entries, t),
            _check_fragile_invariants(train_entry, t),
            _check_ambiguous_signatures(models, t),
            _check_staleness(train_entry, diagnose_entries, t),
            _check_timing_regression(entries, t),
        ],
    )


# repro: deterministic
def score_store(
    store: ModelStore,
    ledger: RunLedger | None = None,
    thresholds: HealthThresholds | None = None,
    incident_summary: dict | None = None,
) -> HealthReport:
    """Score every context a registry knows about.

    Contexts come from the union of the store's keys and the ledger's —
    a context that was discarded from the registry but still has history
    is reported (all model-dependent checks skip for it).

    Args:
        store: the model registry.
        ledger: explicit run ledger; when omitted, a ledger colocated
            with the store (``DirectoryStore.ledger()``) is used if the
            backend provides one.
        thresholds: watchdog tunables.
        incident_summary: :func:`repro.serve.incidents.summarize` output
            over the registry's committed incident bundles; when None
            (no incidents directory) the ``platform-incidents`` fleet
            check is omitted entirely.
    """
    if ledger is None:
        maker = getattr(store, "ledger", None)
        if callable(maker):
            located = maker()
            if located.path.exists():
                ledger = located
    keys = set(store.keys())
    if ledger is not None:
        keys.update(ledger.contexts())
    all_entries = ledger.entries() if ledger is not None else []
    fleet_checks = [_check_slo_burn(all_entries)]
    if incident_summary is not None:
        fleet_checks.append(_check_platform_incidents(incident_summary))
    report = HealthReport(
        thresholds=thresholds or HealthThresholds(),
        ledger_entries=len(all_entries),
        fleet=fleet_checks,
    )
    for key in sorted(keys):
        models = store.peek(key)
        report.contexts.append(
            score_context(key, models, ledger, report.thresholds)
        )
    return report
