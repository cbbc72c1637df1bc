"""Incident explainability: *why* did a cause rank first?

:class:`~repro.core.inference.InferenceResult` holds *what* the
diagnoser concluded and the evidence it concluded it from; this module
projects that one record onto the report a person reads before trusting
(or overruling) the ranking, with no second MIC sweep or ranking:

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

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.anomaly import AnomalyReport
from repro.core.context import OperationContext
from repro.core.inference import InferenceResult, RankedCause
from repro.core.pipeline import (
    ABNORMAL_WINDOW_TICKS,
    InvarNetX,
    cut_abnormal_window,
)
from repro.telemetry.trace import RunTrace

__all__ = [
    "PairDelta",
    "ResidualPoint",
    "IncidentExplanation",
    "explain_inference",
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


def _cause_json(rank: int, cause: RankedCause) -> dict[str, Any]:
    data: dict[str, Any] = {"rank": rank, **dataclasses.asdict(cause)}
    for key in ("score", "matching", "jaccard"):
        data[key] = round(data[key], 4)
    return data


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
        causes: ranked causes with their breakdowns, best first.
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
    causes: list[RankedCause]
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
            "causes": [
                _cause_json(rank, c)
                for rank, c in enumerate(self.causes, start=1)
            ],
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
        for rank, c in enumerate(self.causes, start=1):
            origin = f"{c.signature_workload}@{c.signature_ip}"
            lines.append(
                f"  {rank}. {c.problem}  score={_f(c.score)}  "
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
def explain_inference(
    pipeline: InvarNetX,
    context: OperationContext,
    inference: InferenceResult,
    anomaly: AnomalyReport | None = None,
    residual_margin: int = RESIDUAL_MARGIN,
    request_id: str | None = None,
) -> IncidentExplanation:
    """Project one inference onto its evidence report.

    Causes, breakdowns, observed pair values and violation flags come
    from ``inference`` as diagnosis produced them; the pipeline adds only
    its configuration (ε, measure, similarity floor, pair names and
    baselines, drift threshold).  No MIC sweep and no ranking.

    Args:
        pipeline: the trained pipeline that produced ``inference``.
        context: operation context of the incident.
        inference: the diagnosis' result (one without observed values
            projects no pairs).
        anomaly: the detector's report, for the residual section
            (omitted when None).
        residual_margin: residual ticks shown each side of the alarm.
        request_id: HTTP request id to stamp on the report (None keeps
            the report byte-identical to non-HTTP diagnoses).
    """
    slot = pipeline.context_models(context)
    if slot.invariants is None:
        raise RuntimeError(f"no invariants built for {context}")
    invariants = slot.invariants
    config = pipeline.config
    pairs: list[PairDelta] = []
    observed = inference.observed
    if observed is not None:
        baseline = invariants.baseline
        deltas = np.abs(baseline - observed)
        pairs = [
            PairDelta(
                a, b, float(baseline[k]), float(observed[k]),
                float(deltas[k]), bool(inference.violations[k]),
            )
            for k, (a, b) in enumerate(invariants.pair_names())
        ]

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
        matched=inference.matched,
        top_cause=inference.top_cause,
        causes=list(inference.causes),
        pairs=pairs,
        alarm_tick=alarm_tick,
        threshold_upper=threshold_upper,
        threshold_rule=threshold_rule,
        residuals=residuals,
        request_id=request_id,
    )


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
    """Build the evidence report for one abnormal metric window: one
    :meth:`InvarNetX.infer` pass, projected by :func:`explain_inference`,
    so the report explains exactly what ``infer`` returns.

    ``abnormal_window`` is the (ticks, M) metric samples of the
    incident and ``top_k`` the number of causes to break down; the other
    arguments are :func:`explain_inference`'s.
    """
    return explain_inference(
        pipeline,
        context,
        pipeline.infer(context, abnormal_window, top_k=top_k),
        anomaly=anomaly,
        residual_margin=residual_margin,
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

    Runs the detection :meth:`InvarNetX.diagnose_run` runs, cuts the
    abnormal window from that one report (a second detection would
    double every detection counter), then explains the window.

    Returns:
        The explanation, or None when no performance problem was
        detected (there is no incident to explain).
    """
    node = run.node(context.node_id)
    report = pipeline.detect(context, node.cpi)
    window = cut_abnormal_window(node, report, window_ticks)
    if window is None:
        return None
    return explain_window(
        pipeline,
        context,
        window,
        anomaly=report,
        top_k=top_k,
        residual_margin=residual_margin,
    )
