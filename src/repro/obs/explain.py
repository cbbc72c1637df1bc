"""Incident explainability: *why* did a cause rank first?

:class:`~repro.core.inference.InferenceResult` tells an operator *what*
the diagnoser concluded; this module reconstructs the evidence behind
the conclusion — the report a person reads before trusting (or
overruling) the ranking:

- per ranked cause, the similarity breakdown against its best stored
  signature: matching and Jaccard scores, agreeing positions, shared /
  query-only / signature-only violations;
- every invariant pair with its baseline ``I(m,n)``, the observed
  association value of the abnormal window, and the delta measured
  against ε — violated pairs first;
- the CPI residuals around the alarm tick, so the triggering drift is
  visible next to the calibrated threshold.

Both renderings are fully deterministic: no wall-clock timestamps, all
floats fixed to four decimals, orderings defined by data only.  Under a
fixed simulator seed the text report is byte-identical run to run (the
golden-file test in ``tests/obs`` holds it to that).

This module imports :mod:`repro.core`, which itself emits spans and
metrics into :mod:`repro.obs` — hence it is *lazily* re-exported from
the package (``repro.obs.explain_run`` works, but nothing here loads at
``import repro.obs`` time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.anomaly import AnomalyReport
from repro.core.context import OperationContext
from repro.core.pipeline import ABNORMAL_WINDOW_TICKS, InvarNetX
from repro.core.signatures import jaccard_similarity, matching_similarity
from repro.telemetry.trace import RunTrace

__all__ = [
    "PairDelta",
    "CauseBreakdown",
    "ResidualPoint",
    "IncidentExplanation",
    "explain_window",
    "explain_run",
]

#: Residual ticks shown on each side of the alarm tick.
RESIDUAL_MARGIN = 5


def _f(x: float) -> str:
    """The report's one float format (4 decimals, fixed point)."""
    return f"{x:.4f}"


@dataclass(frozen=True)
class PairDelta:
    """One invariant pair's evidence against the abnormal window.

    Attributes:
        metric_a: first metric name of the pair.
        metric_b: second metric name.
        baseline: invariant value ``I(m,n)`` from training.
        observed: association value of the abnormal window.
        delta: ``|baseline - observed|``, the quantity ε judges.
        violated: True when ``delta >= epsilon``.
    """

    metric_a: str
    metric_b: str
    baseline: float
    observed: float
    delta: float
    violated: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "metric_a": self.metric_a,
            "metric_b": self.metric_b,
            "baseline": round(self.baseline, 4),
            "observed": round(self.observed, 4),
            "delta": round(self.delta, 4),
            "violated": self.violated,
        }


@dataclass(frozen=True)
class CauseBreakdown:
    """The similarity evidence for one ranked cause.

    All counts compare the query violation tuple against the cause's
    *best* stored signature — the one :meth:`SignatureDatabase.rank`
    scored the problem by, so the report explains exactly the ranking
    the diagnoser produced.

    Attributes:
        rank: 1-based position in the cause list.
        problem: root-cause name.
        score: similarity under the pipeline's configured measure.
        matching: simple-matching coefficient vs the signature.
        jaccard: Jaccard index over violated positions.
        agreeing: positions where query and signature agree.
        shared_violations: positions both violate.
        query_only: positions only the query violates.
        signature_only: positions only the signature violates.
        tuple_length: total invariant positions.
        signature_workload: workload recorded on the stored signature.
        signature_ip: node address recorded on the stored signature.
    """

    rank: int
    problem: str
    score: float
    matching: float
    jaccard: float
    agreeing: int
    shared_violations: int
    query_only: int
    signature_only: int
    tuple_length: int
    signature_workload: str
    signature_ip: str

    def to_json(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "problem": self.problem,
            "score": round(self.score, 4),
            "matching": round(self.matching, 4),
            "jaccard": round(self.jaccard, 4),
            "agreeing": self.agreeing,
            "shared_violations": self.shared_violations,
            "query_only": self.query_only,
            "signature_only": self.signature_only,
            "tuple_length": self.tuple_length,
            "signature_workload": self.signature_workload,
            "signature_ip": self.signature_ip,
        }


@dataclass(frozen=True)
class ResidualPoint:
    """One CPI residual sample around the alarm tick."""

    tick: int
    residual: float
    anomalous: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "tick": self.tick,
            "residual": round(self.residual, 4),
            "anomalous": self.anomalous,
        }


@dataclass
class IncidentExplanation:
    """The full evidence report of one diagnosed incident.

    Attributes:
        context: operation context the incident was diagnosed under.
        measure: similarity measure the ranking used.
        epsilon: violation threshold ε the deltas were judged against.
        min_similarity: floor the top score had to clear to match.
        matched: did the top cause clear the floor?
        top_cause: name of the matched cause, or None.
        causes: per-cause similarity breakdowns, best first.
        pairs: every invariant pair's delta evidence, invariant order.
        alarm_tick: tick the detector first reported the problem, or
            None when no anomaly report was supplied.
        threshold_upper: calibrated drift threshold (None if unknown).
        threshold_rule: the rule's name (None if unknown).
        residuals: CPI residuals around the alarm tick.
        request_id: the HTTP request id whose batch completed the
            incident window, or None outside HTTP ingest — rendered only
            when set, so reports without one are byte-stable across
            transports.
    """

    context: OperationContext
    measure: str
    epsilon: float
    min_similarity: float
    matched: bool
    top_cause: str | None
    causes: list[CauseBreakdown]
    pairs: list[PairDelta]
    alarm_tick: int | None = None
    threshold_upper: float | None = None
    threshold_rule: str | None = None
    residuals: list[ResidualPoint] = field(default_factory=list)
    request_id: str | None = None

    @property
    def violated_pairs(self) -> list[PairDelta]:
        """The pairs the abnormal window violated, invariant order."""
        return [p for p in self.pairs if p.violated]

    @property
    def violated_metrics(self) -> list[str]:
        """Metric names touched by any violated pair, sorted for
        deterministic rendering."""
        return sorted(
            {
                name
                for p in self.violated_pairs
                for name in (p.metric_a, p.metric_b)
            }
        )

    # repro: deterministic
    def to_json(self) -> dict[str, Any]:
        """JSON-ready dict carrying the same data as the text report."""
        return {
            "context": {
                "workload": self.context.workload,
                "node_id": self.context.node_id,
                "ip": self.context.ip,
            },
            "measure": self.measure,
            "epsilon": round(self.epsilon, 4),
            "min_similarity": round(self.min_similarity, 4),
            "matched": self.matched,
            "top_cause": self.top_cause,
            "violated_metrics": self.violated_metrics,
            "causes": [c.to_json() for c in self.causes],
            "pairs": [p.to_json() for p in self.pairs],
            "alarm_tick": self.alarm_tick,
            "threshold_upper": (
                None
                if self.threshold_upper is None
                else round(self.threshold_upper, 4)
            ),
            "threshold_rule": self.threshold_rule,
            "residuals": [r.to_json() for r in self.residuals],
            "request_id": self.request_id,
        }

    # ------------------------------------------------------------------
    # repro: deterministic
    def render_text(self) -> str:
        """The operator-facing report (byte-deterministic)."""
        lines: list[str] = []
        title = f"InvarNet-X incident explanation: {self.context}"
        lines.append(title)
        lines.append("=" * len(title))
        lines.append(
            f"measure={self.measure} epsilon={_f(self.epsilon)} "
            f"min_similarity={_f(self.min_similarity)}"
        )
        if self.request_id is not None:
            lines.append(f"request-id: {self.request_id}")
        if self.matched and self.top_cause is not None:
            lines.append(
                f"verdict: {self.top_cause} "
                f"(score {_f(self.causes[0].score)})"
            )
        else:
            lines.append(
                "verdict: no stored signature is similar enough; "
                "violated pairs below are the hints"
            )
        lines.append("")

        lines.append("ranked causes")
        lines.append("-------------")
        if not self.causes:
            lines.append("  (signature database is empty)")
        for c in self.causes:
            origin = f"{c.signature_workload}@{c.signature_ip}"
            lines.append(
                f"  {c.rank}. {c.problem}  score={_f(c.score)}  "
                f"matching={_f(c.matching)}  jaccard={_f(c.jaccard)}"
            )
            lines.append(
                f"     agree {c.agreeing}/{c.tuple_length}  "
                f"shared-violations {c.shared_violations}  "
                f"query-only {c.query_only}  "
                f"signature-only {c.signature_only}  "
                f"signature-from {origin}"
            )
        lines.append("")

        violated = self.violated_pairs
        lines.append(
            f"violated invariants ({len(violated)} of {len(self.pairs)}, "
            f"epsilon {_f(self.epsilon)})"
        )
        lines.append("-" * len(lines[-1]))
        for p in violated:
            lines.append(
                f"  {p.metric_a} ~ {p.metric_b}: baseline {_f(p.baseline)} "
                f"observed {_f(p.observed)} delta {_f(p.delta)} "
                f">= {_f(self.epsilon)}"
            )
        if violated:
            lines.append(
                "  metrics involved: " + ", ".join(self.violated_metrics)
            )
        intact = len(self.pairs) - len(violated)
        lines.append(f"  ({intact} pairs within epsilon)")
        lines.append("")

        if self.alarm_tick is not None:
            threshold = (
                f"threshold {_f(self.threshold_upper)} "
                f"({self.threshold_rule})"
                if self.threshold_upper is not None
                else "threshold unknown"
            )
            lines.append(
                f"CPI residuals around alarm tick {self.alarm_tick} "
                f"({threshold})"
            )
            lines.append("-" * len(lines[-1]))
            for r in self.residuals:
                residual = (
                    "warm-up" if np.isnan(r.residual) else _f(r.residual)
                )
                flag = "  ANOMALOUS" if r.anomalous else ""
                lines.append(f"  tick {r.tick:4d}  residual {residual}{flag}")
            lines.append("")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _residual_points(
    anomaly: AnomalyReport, alarm_tick: int, margin: int
) -> list[ResidualPoint]:
    start = max(alarm_tick - margin, 0)
    stop = min(alarm_tick + margin + 1, int(anomaly.residuals.size))
    return [
        ResidualPoint(
            tick=t,
            residual=float(anomaly.residuals[t]),
            anomalous=bool(anomaly.anomalous[t]),
        )
        for t in range(start, stop)
    ]


# repro: deterministic
def explain_window(
    pipeline: InvarNetX,
    context: OperationContext,
    abnormal_window: np.ndarray,
    anomaly: AnomalyReport | None = None,
    top_k: int = 3,
    residual_margin: int = RESIDUAL_MARGIN,
    request_id: str | None = None,
) -> IncidentExplanation:
    """Build the evidence report for one abnormal metric window.

    Recomputes the violation tuple and the per-problem ranking with the
    pipeline's own configuration (same ε, same similarity measure, same
    :meth:`SignatureDatabase.best_per_problem` tie-breaking), so the
    report explains exactly what :meth:`InvarNetX.infer` would return.

    Args:
        pipeline: a trained pipeline holding the context's models.
        context: operation context of the incident.
        abnormal_window: (ticks, M) metric samples of the incident.
        anomaly: the detector's report, for the residual section
            (omitted when None).
        top_k: number of causes to break down.
        residual_margin: residual ticks shown each side of the alarm.
        request_id: HTTP request id to stamp on the report (None keeps
            the report byte-identical to non-HTTP diagnoses).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    slot = pipeline.context_models(context)
    if slot.invariants is None:
        raise RuntimeError(f"no invariants built for {context}")
    invariants = slot.invariants
    config = pipeline.config
    abnormal = pipeline.association_matrix(abnormal_window, invariants.catalog)

    observed = np.array(
        [abnormal.values[i, j] for i, j in invariants.pairs], dtype=float
    )
    baseline = np.asarray(invariants.baseline, dtype=float)
    deltas = np.abs(baseline - observed)
    flags = invariants.violations(abnormal, config.epsilon)
    names = invariants.pair_names()
    pairs = [
        PairDelta(
            metric_a=names[k][0],
            metric_b=names[k][1],
            baseline=float(baseline[k]),
            observed=float(observed[k]),
            delta=float(deltas[k]),
            violated=bool(flags[k]),
        )
        for k in range(len(invariants))
    ]

    query = np.asarray(flags, dtype=bool)
    ranking = slot.database.best_per_problem(
        query, measure=config.similarity
    )[:top_k]
    causes: list[CauseBreakdown] = []
    for rank, (problem, score, shared, sig) in enumerate(ranking, start=1):
        arr = sig.as_array()
        causes.append(
            CauseBreakdown(
                rank=rank,
                problem=problem,
                score=float(score),
                matching=matching_similarity(query, arr),
                jaccard=jaccard_similarity(query, arr),
                agreeing=int(np.sum(query == arr)),
                shared_violations=shared,
                query_only=int(np.sum(query & ~arr)),
                signature_only=int(np.sum(~query & arr)),
                tuple_length=int(arr.size),
                signature_workload=sig.workload,
                signature_ip=sig.ip,
            )
        )
    matched = bool(causes) and causes[0].score >= config.min_similarity

    alarm_tick: int | None = None
    threshold_upper: float | None = None
    threshold_rule: str | None = None
    residuals: list[ResidualPoint] = []
    if anomaly is not None:
        alarm_tick = anomaly.first_problem_tick()
        if alarm_tick is not None:
            residuals = _residual_points(anomaly, alarm_tick, residual_margin)
    if slot.detector is not None and slot.detector.threshold is not None:
        threshold_upper = float(slot.detector.threshold.upper)
        threshold_rule = slot.detector.threshold.rule.value

    return IncidentExplanation(
        context=context,
        measure=config.similarity,
        epsilon=config.epsilon,
        min_similarity=config.min_similarity,
        matched=matched,
        top_cause=causes[0].problem if matched else None,
        causes=causes,
        pairs=pairs,
        alarm_tick=alarm_tick,
        threshold_upper=threshold_upper,
        threshold_rule=threshold_rule,
        residuals=residuals,
        request_id=request_id,
    )


# repro: deterministic
def explain_run(
    pipeline: InvarNetX,
    context: OperationContext,
    run: RunTrace,
    window_ticks: int = ABNORMAL_WINDOW_TICKS,
    top_k: int = 3,
    residual_margin: int = RESIDUAL_MARGIN,
) -> IncidentExplanation | None:
    """Detect and explain one run end to end.

    Runs the same detection + window extraction the online path uses
    (:meth:`InvarNetX.diagnose_run`), then builds the evidence report
    for the extracted abnormal window.

    Returns:
        The explanation, or None when no performance problem was
        detected (there is no incident to explain).
    """
    node = run.node(context.node_id)
    report = pipeline.detect(context, node.cpi)
    if not report.problem_detected:
        return None
    window = pipeline.extract_abnormal_window(context, run, window_ticks)
    assert window is not None  # problem_detected implies a window
    return explain_window(
        pipeline,
        context,
        window,
        anomaly=report,
        top_k=top_k,
        residual_margin=residual_margin,
    )
