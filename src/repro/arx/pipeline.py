"""ARX-flavoured diagnosis pipeline for the Fig. 9/10 comparison.

:class:`ARXInvarNet` mirrors :class:`repro.core.pipeline.InvarNetX` but
swaps the invariant technology: ARX invariant networks instead of MIC
likely invariants.  Anomaly detection (ARIMA on CPI), the signature
database and the similarity ranking are shared, so any accuracy difference
in the comparison comes from the invariants alone — exactly the paper's
experimental design ("we use ARX instead of MIC to implement the invariant
construction").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arx.invariants import (
    FITNESS_KEEP,
    FITNESS_VIOLATE,
    ARXInvariantNetwork,
    build_arx_network,
)
from repro.core.anomaly import AnomalyDetector, ThresholdRule
from repro.core.context import GLOBAL_CONTEXT, OperationContext
from repro.core.inference import rank_causes
from repro.core.pipeline import (
    ABNORMAL_WINDOW_TICKS,
    DiagnosisResult,
    cut_abnormal_window,
)
from repro.core.signatures import SignatureDatabase
from repro.telemetry.metrics import MetricCatalog
from repro.telemetry.trace import RunTrace

__all__ = ["ARXInvarNetConfig", "ARXInvarNet"]


@dataclass(frozen=True)
class ARXInvarNetConfig:
    """Tunables of the ARX baseline pipeline."""

    rule: ThresholdRule = ThresholdRule.BETA_MAX
    beta: float = 1.2
    keep_threshold: float = FITNESS_KEEP
    violate_threshold: float = FITNESS_VIOLATE
    min_similarity: float = 0.5
    similarity: str = "matching"
    use_operation_context: bool = True


@dataclass
class _ContextModels:
    detector: AnomalyDetector | None = None
    network: ARXInvariantNetwork | None = None
    database: SignatureDatabase = field(default_factory=SignatureDatabase)


class ARXInvarNet:
    """The Jiang-et-al.-style baseline with InvarNet-X's interface.

    Args:
        config: baseline tunables.
        catalog: metric vocabulary.
    """

    def __init__(
        self,
        config: ARXInvarNetConfig | None = None,
        catalog: MetricCatalog | None = None,
    ) -> None:
        self.config = config or ARXInvarNetConfig()
        self.catalog = catalog or MetricCatalog()
        self._models: dict[tuple[str, str], _ContextModels] = {}

    def _slot(self, context: OperationContext) -> _ContextModels:
        key = (
            context.key()
            if self.config.use_operation_context
            else GLOBAL_CONTEXT.key()
        )
        return self._models.setdefault(key, _ContextModels())

    def is_trained(self, context: OperationContext) -> bool:
        """Shared-interface parity with :class:`InvarNetX`: can the online
        part run for this context?"""
        slot = self._slot(context)
        return slot.detector is not None and slot.network is not None

    def known_problems(self, context: OperationContext) -> list[str]:
        """Problems the context's signature base can already name."""
        return self._slot(context).database.problems

    # ------------------------------------------------------------------
    def train_from_runs(
        self, context: OperationContext, normal_runs: list[RunTrace]
    ) -> None:
        """Fit the ARIMA detector and build the ARX invariant network."""
        slot = self._slot(context)
        traces = [run.node(context.node_id).cpi for run in normal_runs]
        detector = AnomalyDetector(rule=self.config.rule, beta=self.config.beta)
        detector.train(traces)
        slot.detector = detector
        windows = [run.node(context.node_id).metrics for run in normal_runs]
        slot.network = build_arx_network(
            windows,
            catalog=self.catalog,
            keep_threshold=self.config.keep_threshold,
            violate_threshold=self.config.violate_threshold,
        )

    def extract_abnormal_window(
        self,
        context: OperationContext,
        run: RunTrace,
        window_ticks: int = ABNORMAL_WINDOW_TICKS,
    ) -> np.ndarray | None:
        """Detection-aligned abnormal window (same policy as InvarNet-X)."""
        slot = self._slot(context)
        if slot.detector is None:
            raise RuntimeError(f"no performance model trained for {context}")
        node = run.node(context.node_id)
        return cut_abnormal_window(
            node, slot.detector.detect(node.cpi), window_ticks
        )

    def train_signature_from_run(
        self, context: OperationContext, problem: str, run: RunTrace
    ) -> np.ndarray | None:
        """Store one investigated problem's ARX violation signature."""
        slot = self._slot(context)
        if slot.network is None:
            raise RuntimeError(f"no ARX network built for {context}")
        window = self.extract_abnormal_window(context, run)
        if window is None:
            if run.fault_window is None:
                return None
            window = run.fault_slice(context.node_id).metrics
        violations = slot.network.violations(window)
        slot.database.add(
            violations, problem, ip=context.ip, workload=context.workload
        )
        return violations

    # ------------------------------------------------------------------
    def diagnose_run(
        self,
        context: OperationContext,
        run: RunTrace,
        top_k: int = 3,
    ) -> DiagnosisResult:
        """Full online pass: ARIMA detection, then ARX-violation ranking."""
        slot = self._slot(context)
        if slot.detector is None or slot.network is None:
            raise RuntimeError(f"context {context} is not trained")
        node = run.node(context.node_id)
        report = slot.detector.detect(node.cpi)
        if not report.problem_detected:
            return DiagnosisResult(context=context, anomaly=report)
        window = cut_abnormal_window(node, report, ABNORMAL_WINDOW_TICKS)
        assert window is not None
        inference = rank_causes(
            slot.database,
            slot.network.violations(window),
            slot.network.pair_names(),
            measure=self.config.similarity,
            min_similarity=self.config.min_similarity,
            top_k=top_k,
        )
        return DiagnosisResult(
            context=context, anomaly=report, inference=inference
        )
