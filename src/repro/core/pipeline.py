"""The InvarNet-X facade: offline training and online diagnosis (Fig. 3).

:class:`InvarNetX` wires the five modules of the architecture together and
keeps one model set per operation context:

offline
    1. *performance model building* — ARIMA on normal CPI traces;
    2. *invariant construction* — MIC association matrices of normal runs
       fed through Algorithm 1;
    3. *signature base building* — violation tuples of investigated
       problems;

online
    4. *performance anomaly detection* — ARIMA drift with the
       three-consecutive rule (this gates everything: "To reduce the cost
       of unnecessary performance diagnosis");
    5. *cause inference* — signature similarity ranking.

The ``use_operation_context=False`` switch reproduces the paper's ablation
(Figs. 9/10): every workload and node then shares one global model set.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core.anomaly import AnomalyDetector, AnomalyReport, ThresholdRule
from repro.core.context import GLOBAL_CONTEXT, OperationContext
from repro.core.inference import CauseInferenceEngine, InferenceResult
from repro.core.invariants import (
    EPSILON,
    TAU,
    AssociationMatrix,
    InvariantSet,
    select_invariants,
)
from repro.obs.ledger import (
    RunLedger,
    config_fingerprint,
    stage_timings,
    summarize_residuals,
)
from repro.stats.mic import MICParameters
from repro.store import ContextModels, MemoryStore, ModelStore
from repro.store.directory import (
    artifact_files,
    read_artifacts,
    write_artifacts,
)
from repro.telemetry.metrics import MetricCatalog
from repro.telemetry.trace import NodeTrace, RunTrace

__all__ = [
    "InvarNetXConfig",
    "DiagnosisResult",
    "InvarNetX",
    "RETIRED_CONFIG_FIELDS",
]

#: Length (ticks) of the abnormal window handed to cause inference.
ABNORMAL_WINDOW_TICKS = 30

#: Fields removed from :class:`InvarNetXConfig`, at their last default.
#: The config fingerprint and every incident bundle's ``environment.json``
#: are built from ``asdict(config)``; merging these entries back into both
#: payloads keeps ledger fingerprints continuous and lets bundles written
#: before a removal still replay.  A removed field stays here for good.
RETIRED_CONFIG_FIELDS: dict[str, object] = {"mic_workers": None}

_log = obs.get_logger("core.pipeline")


@contextmanager
def _ledger_span(name: str, active: bool):
    """A root span for ledger stage timings, borrowing the tracer.

    When a ledger is recording but the tracer is off, the tracer is
    enabled just for this block and the borrowed root span is discarded
    afterwards, so ``--trace``-visible output stays exactly what the user
    configured; an already-enabled tracer keeps the span.  Yields the
    span (:data:`~repro.obs.NOOP_SPAN` when neither ledger nor tracer is
    on) — the object stays readable after the block, which is how the
    caller extracts stage timings.
    """
    tracer = obs.tracer()
    borrowed = active and not tracer.enabled
    if borrowed:
        tracer.enabled = True
    root = tracer.span(name)
    try:
        with root:
            yield root
    finally:
        if borrowed:
            tracer.enabled = False
            if isinstance(root, obs.Span):
                tracer.discard(root)


def cut_abnormal_window(
    node: NodeTrace, report: AnomalyReport, window_ticks: int
) -> np.ndarray | None:
    """The ``window_ticks`` metric samples from where ``report`` first
    flagged a problem (less the three-consecutive lead), or None."""
    first = report.first_problem_tick()
    if first is None:
        return None
    start = max(first - 2, 0)
    stop = min(start + window_ticks, node.ticks)
    if stop - start < 8:
        start = max(stop - window_ticks, 0)
    return node.metrics[start:stop]


def _invariant_spreads(matrices: list, invariants: InvariantSet) -> list[float]:
    """Per-invariant MIC spread (max − min over the training matrices) —
    the quantity Algorithm 1 compared against τ, recorded in the ledger so
    the health watchdog can flag pairs that landed near the boundary."""
    stack = np.stack(
        [np.asarray(getattr(m, "values", m), dtype=float) for m in matrices]
    )
    rows, cols = invariants.index()
    values = stack[:, rows, cols]
    spread = values.max(axis=0) - values.min(axis=0)
    return [round(s, 6) for s in spread.tolist()]


@dataclass(frozen=True)
class InvarNetXConfig:
    """Tunables of the pipeline, defaults per the paper.

    Attributes:
        rule: anomaly threshold rule (beta-max after Fig. 6).
        beta: fluctuation factor β of the beta-max rule.
        tau: Algorithm 1 stability threshold τ.
        epsilon: violation threshold ε.
        min_similarity: floor under which inference reports only hints.
        use_operation_context: False reproduces the Figs. 9/10 ablation.
        arima_order: fixed (p, d, q), or None for AIC selection.
        mic_alpha: MIC grid-budget exponent.
        mic_clumps_factor: MIC superclump factor.
    """

    rule: ThresholdRule = ThresholdRule.BETA_MAX
    beta: float = 1.2
    tau: float = TAU
    epsilon: float = EPSILON
    min_similarity: float = 0.5
    similarity: str = "matching"
    use_operation_context: bool = True
    arima_order: tuple[int, int, int] | None = None
    mic_alpha: float = 0.6
    mic_clumps_factor: int = 15

    def mic_params(self) -> MICParameters:
        """The MIC tuning object implied by this config."""
        return MICParameters(
            alpha=self.mic_alpha, clumps_factor=self.mic_clumps_factor
        )


@dataclass
class DiagnosisResult:
    """Outcome of one online diagnosis pass.

    Attributes:
        context: the operation context the run was diagnosed under.
        anomaly: the detector's report on the CPI series.
        inference: the cause-inference result, or None when no performance
            problem was detected (inference is never triggered).
    """

    context: OperationContext
    anomaly: AnomalyReport
    inference: InferenceResult | None = None

    @property
    def detected(self) -> bool:
        """Was a performance problem reported?"""
        return self.anomaly.problem_detected

    @property
    def root_cause(self) -> str | None:
        """The top-ranked root cause, or None."""
        if self.inference is None:
            return None
        return self.inference.top_cause

    def top_causes(self, k: int) -> list[str]:
        """The ``k`` most probable root causes, best first.

        The paper's multi-fault extension (§4.1): "our method could be
        easily extended to multiple faults by listing multiple root causes
        whose signatures are most similar to the violation tuple."
        Returns an empty list when no problem was detected or matched.
        """
        if self.inference is None or not self.inference.matched:
            return []
        return [c.problem for c in self.inference.causes[:k]]


class InvarNetX:
    """The full diagnosis system.

    Per-context model slots live in a pluggable :class:`ModelStore`: the
    default :class:`MemoryStore` reproduces the historical resident-dict
    behaviour, while a :class:`~repro.store.DirectoryStore` turns the
    pipeline into a durable registry — training publishes each context's
    XML artifacts as it goes, and a fresh pipeline attached to the same
    store rehydrates them lazily instead of retraining (see
    :meth:`attached_to`).

    Training and diagnosis leave a durable trail in a
    :class:`~repro.obs.ledger.RunLedger` when one is active: by default a
    pipeline over a store with a colocated ledger (``DirectoryStore``)
    records into it automatically, a :class:`MemoryStore` pipeline
    records nothing, and both defaults can be overridden via ``ledger``.

    Args:
        config: pipeline tunables (paper defaults when omitted).
        catalog: metric vocabulary (the canonical 26 metrics by default).
        store: the model registry backend (fresh unbounded
            :class:`MemoryStore` when omitted).
        ledger: run-ledger policy — an explicit :class:`RunLedger` to
            record into, ``True`` to require the store's colocated ledger
            (raises when the backend has none), ``False`` to disable
            recording, or None (default) to use the store's colocated
            ledger when the backend provides one.
    """

    def __init__(
        self,
        config: InvarNetXConfig | None = None,
        catalog: MetricCatalog | None = None,
        store: ModelStore | None = None,
        ledger: RunLedger | bool | None = None,
    ) -> None:
        self.config = config or InvarNetXConfig()
        self.catalog = catalog or MetricCatalog()
        self.store = store if store is not None else MemoryStore()
        self.ledger = self._resolve_ledger(ledger)
        self._fingerprint: str | None = None

    def _resolve_ledger(
        self, ledger: RunLedger | bool | None
    ) -> RunLedger | None:
        if isinstance(ledger, RunLedger):
            return ledger
        maker = getattr(self.store, "ledger", None)
        if ledger is True:
            if not callable(maker):
                raise ValueError(
                    "ledger=True requires a store with a colocated ledger "
                    "(e.g. DirectoryStore) or an explicit RunLedger"
                )
            return maker()
        if ledger is None and callable(maker):
            return maker()
        return None

    @property
    def fingerprint(self) -> str:
        """Short stable fingerprint of this pipeline's configuration,
        stamped on every ledger entry."""
        if self._fingerprint is None:
            self._fingerprint = config_fingerprint(
                {**asdict(self.config), **RETIRED_CONFIG_FIELDS}
            )
        return self._fingerprint

    @classmethod
    def attached_to(
        cls,
        store: ModelStore,
        config: InvarNetXConfig | None = None,
        catalog: MetricCatalog | None = None,
        ledger: RunLedger | bool | None = None,
    ) -> "InvarNetX":
        """A pipeline over an existing model registry (warm restart).

        Every context the store already holds is served without
        retraining: the first :meth:`detect`/:meth:`infer` against it
        loads the persisted ARIMA order, coefficients and threshold into
        a working :class:`AnomalyDetector`, plus the invariant set and
        signature base.  A colocated run ledger is picked up too, so the
        run history continues where the previous process left off.
        """
        return cls(config=config, catalog=catalog, store=store, ledger=ledger)

    # ------------------------------------------------------------------
    def _key(self, context: OperationContext) -> tuple[str, str]:
        if self.config.use_operation_context:
            return context.key()
        return GLOBAL_CONTEXT.key()

    def _resolved(self, context: OperationContext) -> OperationContext:
        return context if self.config.use_operation_context else GLOBAL_CONTEXT

    def _slot(self, context: OperationContext) -> ContextModels:
        return self.store.slot(self._key(context), self._resolved(context))

    def _persist(self, context: OperationContext) -> list[Path]:
        return self.store.persist(self._key(context))

    def _record(
        self,
        kind: str,
        context: OperationContext,
        span: object = None,
        **fields: object,
    ) -> None:
        """Append one run-ledger entry (no-op without an active ledger).

        A finished real span contributes per-stage wall times; the
        metrics registry contributes a snapshot when metrics are enabled.
        """
        if self.ledger is None:
            return
        if isinstance(span, obs.Span) and span.end_time is not None:
            fields["stage_timings"] = {
                name: round(seconds, 6)
                for name, seconds in stage_timings([span]).items()
            }
        if obs.enabled():
            fields["metrics"] = obs.metrics_registry().to_json()
        self.ledger.append(
            kind,
            context=self._key(context),
            fingerprint=self.fingerprint,
            **fields,
        )

    def context_models(self, context: OperationContext) -> ContextModels:
        """The model slot of a context (loaded on demand from durable
        backends); the public accessor for detector/invariants/database."""
        return self._slot(context)

    def is_trained(self, context: OperationContext) -> bool:
        """Can the online part run for this context (performance model
        and invariants available, in memory or in the store)?"""
        models = self.store.peek(self._key(context))
        return models is not None and models.trained

    def known_problems(self, context: OperationContext) -> list[str]:
        """Problems the context's signature base can already name."""
        models = self.store.peek(self._key(context))
        return models.database.problems if models is not None else []

    def contexts(self) -> list[tuple[str, str]]:
        """Keys of all known contexts (resident and persisted)."""
        return self.store.keys()

    # ------------------------------------------------------------------
    # offline part
    # ------------------------------------------------------------------
    def train_performance_model(
        self, context: OperationContext, cpi_traces: list[np.ndarray]
    ) -> AnomalyDetector:
        """Module 1: fit the context's ARIMA model and threshold.

        Args:
            context: operation context the traces belong to.
            cpi_traces: N normal-state CPI series.
        """
        with obs.span("pipeline.train_performance_model") as sp:
            slot = self._slot(context)
            detector = AnomalyDetector(
                rule=self.config.rule,
                beta=self.config.beta,
                order=self.config.arima_order,
            )
            detector.train(cpi_traces)
            slot.detector = detector
            self._persist(context)
            if sp:
                sp.set(context=str(context), traces=len(cpi_traces))
        return detector

    def association_matrix(
        self, samples: np.ndarray, catalog: MetricCatalog | None = None
    ) -> AssociationMatrix:
        """Pairwise MIC matrix of one observation window (helper shared by
        training and diagnosis), on the batched MIC engine.

        Each diagnosis scores its window here once; its explain report and
        incident bundle project the resulting inference.  Diagnosis
        passes the catalog of the context's stored invariants, which a
        warm-started pipeline need not share with its own ``catalog``.
        """
        return AssociationMatrix.from_samples(
            samples,
            catalog=catalog if catalog is not None else self.catalog,
            params=self.config.mic_params(),
        )

    def build_invariants(
        self, context: OperationContext, normal_windows: list[np.ndarray]
    ) -> InvariantSet:
        """Module 2: run Algorithm 1 over N normal runs' metric samples.

        Args:
            context: operation context.
            normal_windows: per-run (ticks, 26) metric arrays.
        """
        with obs.span("pipeline.build_invariants") as sp:
            slot = self._slot(context)
            matrices = [self.association_matrix(w) for w in normal_windows]
            slot.invariants = select_invariants(
                matrices, tau=self.config.tau, catalog=self.catalog
            )
            self._persist(context)
            if sp:
                sp.set(
                    context=str(context),
                    windows=len(normal_windows),
                    invariants=len(slot.invariants),
                )
        return slot.invariants

    def train_signature(
        self,
        context: OperationContext,
        problem: str,
        abnormal_window: np.ndarray,
    ) -> np.ndarray:
        """Module 3: store one investigated problem's signature.

        Args:
            context: operation context the problem occurred in.
            problem: root-cause name.
            abnormal_window: (ticks, 26) metric samples collected while the
                problem was active.

        Returns:
            The stored binary violation tuple.
        """
        with _ledger_span(
            "pipeline.train_signature", self.ledger is not None
        ) as sp:
            slot = self._slot(context)
            if slot.invariants is None:
                raise RuntimeError(
                    f"invariants for {context} must be built before signatures"
                )
            abnormal = self.association_matrix(abnormal_window)
            violations = slot.invariants.violations(
                abnormal, self.config.epsilon
            )
            slot.database.add(
                violations, problem, ip=context.ip, workload=context.workload
            )
            self._persist(context)
            if sp:
                sp.set(
                    context=str(context),
                    problem=problem,
                    violated=int(violations.sum()),
                )
        self._record(
            "signature",
            context,
            span=sp,
            problem=problem,
            violated=int(violations.sum()),
            tuple_length=int(violations.size),
        )
        return violations

    @staticmethod
    def slice_windows(
        samples: np.ndarray, window_ticks: int = ABNORMAL_WINDOW_TICKS
    ) -> list[np.ndarray]:
        """Cut a run's metric samples into observation windows.

        Invariant construction and cause inference must estimate MIC over
        windows of the same length, or the short-window association scores
        drift systematically from the full-run baseline and flood the
        violation tuples with noise.  Runts shorter than 80 % of a window
        are dropped.
        """
        arr = np.asarray(samples)
        out = [
            arr[start : start + window_ticks]
            for start in range(0, arr.shape[0], window_ticks)
        ]
        return [w for w in out if w.shape[0] >= int(window_ticks * 0.8)]

    def run_association_matrix(
        self,
        samples: np.ndarray,
        window_ticks: int = ABNORMAL_WINDOW_TICKS,
    ) -> AssociationMatrix:
        """The association matrix ``A^i`` of one whole normal run.

        Defined as the mean of the MIC matrices of the run's
        ``window_ticks`` observation windows: each window is estimated
        under exactly the conditions cause inference will face (same sample
        count), and averaging over the run's windows removes most of the
        short-window sampling variance from Algorithm 1's stability test.
        """
        windows = self.slice_windows(samples, window_ticks)
        if not windows:
            raise ValueError(
                f"run too short ({np.asarray(samples).shape[0]} ticks) for "
                f"{window_ticks}-tick windows"
            )
        stacked = np.stack(
            [self.association_matrix(w).values for w in windows]
        )
        return AssociationMatrix(
            values=stacked.mean(axis=0), catalog=self.catalog
        )

    def train_from_runs(
        self,
        context: OperationContext,
        normal_runs: list[RunTrace],
        window_ticks: int = ABNORMAL_WINDOW_TICKS,
    ) -> None:
        """Convenience: run modules 1 and 2 from whole normal run traces.

        The performance model trains on the full CPI series; Algorithm 1
        receives one association matrix per run, each computed by
        :meth:`run_association_matrix`.
        """
        with _ledger_span(
            "pipeline.train_from_runs", self.ledger is not None
        ) as sp:
            traces = [run.node(context.node_id).cpi for run in normal_runs]
            matrices = [
                self.run_association_matrix(
                    run.node(context.node_id).metrics, window_ticks
                )
                for run in normal_runs
            ]
            self.train_performance_model(context, traces)
            slot = self._slot(context)
            slot.invariants = select_invariants(
                matrices, tau=self.config.tau, catalog=self.catalog
            )
            self._persist(context)
            if sp:
                sp.set(
                    context=str(context),
                    runs=len(normal_runs),
                    invariants=len(slot.invariants),
                )
            obs.log_event(
                _log,
                logging.INFO,
                "trained",
                context=str(context),
                runs=len(normal_runs),
                invariants=len(slot.invariants),
            )
        if self.ledger is not None:
            residuals = (
                slot.detector.training_residuals
                if slot.detector is not None
                else None
            )
            self._record(
                "train",
                context,
                span=sp,
                runs=len(normal_runs),
                invariants=len(slot.invariants),
                residual_summary=(
                    summarize_residuals(residuals)
                    if residuals is not None
                    else {"count": 0}
                ),
                invariant_spread=_invariant_spreads(
                    matrices, slot.invariants
                ),
            )

    def extract_abnormal_window(
        self,
        context: OperationContext,
        run: RunTrace,
        window_ticks: int = ABNORMAL_WINDOW_TICKS,
    ) -> np.ndarray | None:
        """The abnormal metric window an online deployment would gather.

        Runs anomaly detection on the run's CPI and returns the
        ``window_ticks`` metric samples starting where the problem was first
        reported (less the three-consecutive lead).  Returns None when no
        problem is detected.  Signature training and :meth:`diagnose_run`
        cut their windows with the same helper, so stored and queried
        signatures come from identically selected windows.
        """
        node = run.node(context.node_id)
        return cut_abnormal_window(
            node, self.detect(context, node.cpi), window_ticks
        )

    def train_signature_from_run(
        self,
        context: OperationContext,
        problem: str,
        run: RunTrace,
        window_ticks: int = ABNORMAL_WINDOW_TICKS,
    ) -> np.ndarray | None:
        """Module 3 from a whole faulty run: detect the problem the way the
        online path would, then store the signature of the detected window.

        Falls back to the run's recorded fault window when detection misses
        (an operator investigating a known problem has the window anyway).

        Returns:
            The stored violation tuple, or None if no window was available.
        """
        window = self.extract_abnormal_window(context, run, window_ticks)
        if window is None:
            if run.fault_window is None:
                return None
            window = run.fault_slice(context.node_id).metrics
        return self.train_signature(context, problem, window)

    # ------------------------------------------------------------------
    # online part
    # ------------------------------------------------------------------
    def detect(
        self, context: OperationContext, cpi: np.ndarray
    ) -> AnomalyReport:
        """Module 4: scan a CPI series for performance problems."""
        with obs.span("pipeline.detect") as sp:
            slot = self._slot(context)
            if slot.detector is None:
                raise RuntimeError(
                    f"no performance model trained for {context}"
                )
            report = slot.detector.detect(cpi)
            if sp:
                sp.set(
                    context=str(context),
                    ticks=int(report.anomalous.size),
                    problems=len(report.problem_ticks),
                )
        if obs.enabled():
            registry = obs.metrics_registry()
            label = str(self._resolved(context))
            registry.counter(
                "invarnetx_anomaly_ticks_total",
                "CPI ticks flagged anomalous by the drift detector",
                ("context",),
            ).inc(int(report.anomalous.sum()), context=label)
            if report.problem_detected:
                registry.counter(
                    "invarnetx_problems_detected_total",
                    "Performance problems reported (3-consecutive rule)",
                    ("context",),
                ).inc(context=label)
            if sp and sp.duration is not None:
                registry.histogram(
                    "invarnetx_detect_seconds",
                    "Wall time of one detection scan",
                    ("context",),
                ).observe(sp.duration, context=label)
        return report

    def infer(
        self, context: OperationContext, abnormal_window: np.ndarray,
        top_k: int = 3,
    ) -> InferenceResult:
        """Module 5: rank root causes for an abnormal metric window."""
        with obs.span("pipeline.infer") as sp:
            slot = self._slot(context)
            if slot.invariants is None:
                raise RuntimeError(f"no invariants built for {context}")
            engine = CauseInferenceEngine(
                slot.invariants,
                slot.database,
                epsilon=self.config.epsilon,
                min_similarity=self.config.min_similarity,
                measure=self.config.similarity,
            )
            abnormal = self.association_matrix(
                abnormal_window, slot.invariants.catalog
            )
            result = engine.infer(abnormal, top_k=top_k)
            if sp:
                sp.set(
                    context=str(context),
                    matched=result.matched,
                    violated=int(result.violations.sum()),
                    top=result.top_cause or "-",
                )
        if obs.enabled():
            label = str(self._resolved(context))
            if sp and sp.duration is not None:
                obs.metrics_registry().histogram(
                    "invarnetx_inference_seconds",
                    "Wall time of one cause-inference pass",
                    ("context",),
                ).observe(sp.duration, context=label)
            obs.log_event(
                _log,
                logging.INFO,
                "inference",
                context=label,
                matched=result.matched,
                top=result.top_cause or "-",
            )
        return result

    def diagnose_run(
        self,
        context: OperationContext,
        run: RunTrace,
        window_ticks: int = ABNORMAL_WINDOW_TICKS,
        top_k: int = 3,
    ) -> DiagnosisResult:
        """Full online pass over one run: detect, and on detection infer.

        The abnormal window handed to inference starts where the detector
        first reported the problem (less the three-consecutive lead) and
        spans ``window_ticks`` samples, exactly the data an online deployment
        would gather after raising the alarm.

        Args:
            context: operation context of the run.
            run: the run to diagnose.
            window_ticks: abnormal-window length for cause inference.
            top_k: length of the cause list.
        """
        with _ledger_span(
            "pipeline.diagnose_run", self.ledger is not None
        ) as sp:
            node = run.node(context.node_id)
            report = self.detect(context, node.cpi)
            inference = None
            if report.problem_detected:
                # Cut the window from the report already in hand: a second
                # detect() would double every detection counter.
                window = cut_abnormal_window(node, report, window_ticks)
                assert window is not None  # detection implies a window
                inference = self.infer(context, window, top_k=top_k)
        result = DiagnosisResult(
            context=context, anomaly=report, inference=inference
        )
        if self.ledger is not None:
            # The normal-regime residual summary (valid, non-anomalous
            # ticks) is what the drift watchdog compares against the
            # training residuals — anomalous ticks would conflate fault
            # magnitude with model drift.
            valid = ~np.isnan(report.residuals) & ~report.anomalous
            fields: dict[str, object] = {
                "detected": result.detected,
                "first_problem_tick": report.first_problem_tick(),
                "ticks": int(report.anomalous.size),
                "residual_summary": summarize_residuals(
                    report.residuals[valid]
                ),
            }
            if inference is not None:
                fields.update(inference.ledger_fields())
            self._record("diagnose", context, span=sp, **fields)
        return result

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save_context(
        self, context: OperationContext, directory: str | Path
    ) -> list[Path]:
        """Write the context's XML artifacts (§3.2/§3.3 formats).

        Returns:
            Paths of the files written.
        """
        return write_artifacts(
            self._slot(context),
            context,
            Path(directory),
            artifact_files(f"{context.workload}_{context.node_id}"),
        )

    def load_context(
        self, context: OperationContext, directory: str | Path
    ) -> ContextModels:
        """Rehydrate a context from :meth:`save_context` artifacts.

        The inverse the XML stores always promised: the loaded slot's
        detector is a working :class:`AnomalyDetector` rebuilt from the
        persisted order, coefficients and threshold, so detection and
        inference resume without retraining.  Missing files leave the
        corresponding artifact unset; a context with no artifact files at
        all raises :class:`FileNotFoundError`.

        Returns:
            The rehydrated slot, adopted into the pipeline's store.
        """
        directory = Path(directory)
        names = artifact_files(f"{context.workload}_{context.node_id}")
        found = [k for k, name in names.items() if (directory / name).exists()]
        if not found:
            raise FileNotFoundError(
                f"no artifacts for {context} under {directory}"
            )
        models = read_artifacts(
            self._resolved(context), directory, names, found
        )
        self.store.adopt(self._key(context), models)
        return models
