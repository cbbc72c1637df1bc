"""Experiment runners: one per table and figure of the paper's evaluation.

Every runner regenerates the data behind one exhibit of §3.1/§4 and
returns a structured result object that the benchmarks print and assert
on.  Repetition counts default below the paper's 40-per-fault so the whole
suite runs in minutes; pass larger ``test_reps``/``reps`` for paper-scale
runs (the *shape* of every result — who wins, where the confusions are —
is stable across scales).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

import repro.obs as obs
from repro.arx.invariants import build_arx_network
from repro.cluster.cluster import HadoopCluster
from repro.core.anomaly import ThresholdRule
from repro.core.context import OperationContext
from repro.core.kpi import run_kpi
from repro.core.pipeline import InvarNetX, InvarNetXConfig
from repro.datagen.campaigns import CampaignConfig, FaultCampaign
from repro.eval.confusion import (
    DiagnosisOutcome,
    PrecisionRecall,
    score_outcomes,
)
from repro.faults.environment import CpuDisturbanceFault
from repro.faults.spec import Fault, FaultSpec, build_fault
from repro.stats.correlation import normalize_to_min, pearson, polyfit2
from repro.stats.micfast import clear_association_cache
from repro.store import ModelStore

__all__ = [
    "DiagnosisExperimentResult",
    "run_diagnosis_experiment",
    "run_fig2_cpi_disturbance",
    "run_fig4_cpi_kpi",
    "run_fig5_residuals",
    "run_fig6_threshold_rules",
    "run_fig7_tpcds_diagnosis",
    "run_fig8_wordcount_diagnosis",
    "run_fig9_fig10_comparison",
    "run_table1_overhead",
    "BATCH_FAULT_NAMES",
    "INTERACTIVE_FAULT_NAMES",
]

#: The paper's fault list (§4.1) in a stable order.
INTERACTIVE_FAULT_NAMES: tuple[str, ...] = (
    "CPU-hog", "Mem-hog", "Disk-hog", "Net-drop", "Net-delay", "Block-C",
    "Misconf", "Overload", "Suspend", "RPC-hang", "H-9703", "H-1036",
    "Lock-R", "H-1970", "Block-R",
)
#: FIFO batch jobs own the cluster, so Overload does not apply (§4.3).
BATCH_FAULT_NAMES: tuple[str, ...] = tuple(
    f for f in INTERACTIVE_FAULT_NAMES if f != "Overload"
)


# ----------------------------------------------------------------------
# shared diagnosis experiment
# ----------------------------------------------------------------------
@dataclass
class DiagnosisExperimentResult:
    """Outcome of one full diagnosis experiment (Figs. 7/8 shape).

    Attributes:
        workload: workload the experiment ran on.
        system: label of the diagnosing system.
        scores: per-fault precision/recall plus the ``"average"`` row.
        outcomes: raw labelled outcomes (for confusion inspection).
        stage_seconds: wall time per stage span (``experiment.train``,
            ``experiment.signatures``, ``experiment.diagnose``) — the
            timing source of the registry's ``run_table.csv`` columns.
    """

    workload: str
    system: str
    scores: dict[str, PrecisionRecall]
    outcomes: list[DiagnosisOutcome] = field(repr=False, default_factory=list)
    stage_seconds: dict[str, float] = field(repr=False, default_factory=dict)

    def confusion(self) -> dict[tuple[str, str], int]:
        """(truth, predicted) counts; undetected runs map to "none"."""
        counts: dict[tuple[str, str], int] = {}
        for o in self.outcomes:
            key = (o.truth, o.predicted or "none")
            counts[key] = counts.get(key, 0) + 1
        return counts


def run_diagnosis_experiment(
    system,
    campaign: FaultCampaign,
    context: OperationContext,
    system_label: str,
    extra_training: Sequence[tuple[OperationContext, FaultCampaign]] = (),
    warm_start: bool = False,
    recorder=None,
) -> DiagnosisExperimentResult:
    """Train a diagnosis system on a campaign and score the held-out runs.

    Args:
        system: an :class:`InvarNetX` or :class:`ARXInvarNet` (anything
            with the shared train/diagnose interface).
        campaign: the primary campaign (its workload is diagnosed).
        context: operation context of the faulted node.
        system_label: name used in the result.
        extra_training: additional (context, campaign) pairs whose normal
            runs and signature runs also train the system — used by the
            no-operation-context ablation to mix workloads into one model.
        warm_start: reuse models and signatures the system's store already
            holds instead of retraining — for systems attached to a
            durable model registry.  Must stay False for the ablation's
            deliberately-overwriting training sequence.
        recorder: optional event sink with a
            ``record(context_key, kind, **fields)`` method (duck-typed so
            this module needs no registry import); receives one ``train``
            event per training campaign, one ``signature`` event per
            learned problem and one ``diagnose`` event per held-out run.

    Returns:
        The scored :class:`DiagnosisExperimentResult`.
    """
    from repro.obs.tracing import Tracer

    all_training = [(context, campaign), *extra_training]
    # Stage timings come from a local always-on tracer (the process
    # tracer additionally sees one enclosing span when observability is
    # configured on), so the run table reports spans, not ad-hoc timers.
    tracer = Tracer(enabled=True)
    with obs.span("experiment.run"):
        # Module 1+2: performance models and invariants.  Under
        # warm_start a context the system's model store already holds is
        # served from the registry instead of retrained; the round-trip
        # contract guarantees the rehydrated models score identically to
        # freshly trained ones.  (Never warm-skip in the
        # no-operation-context ablation: its campaigns intentionally
        # re-train the one global slot in sequence.)
        with tracer.span("experiment.train") as sp_train:
            for ctx, camp in all_training:
                if warm_start and system.is_trained(ctx):
                    continue
                runs = camp.normal_runs()
                system.train_from_runs(ctx, runs)
                if recorder is not None:
                    recorder.record(
                        (ctx.workload, ctx.node_id), "train", runs=len(runs)
                    )
        # Module 3: signatures from the training repetitions (under
        # warm_start, problems the store already knows are not
        # re-learned, so restarts do not accumulate duplicate signatures).
        with tracer.span("experiment.signatures") as sp_signatures:
            for ctx, camp in all_training:
                known = (
                    set(system.known_problems(ctx)) if warm_start else set()
                )
                for fault_name in camp.faults:
                    if fault_name in known:
                        continue
                    trained = 0
                    for run in camp.train_runs(fault_name):
                        system.train_signature_from_run(ctx, fault_name, run)
                        trained += 1
                    if recorder is not None:
                        recorder.record(
                            (ctx.workload, ctx.node_id),
                            "signature",
                            problem=fault_name,
                            runs=trained,
                        )
        # Online: diagnose the held-out runs of the primary campaign.
        outcomes: list[DiagnosisOutcome] = []
        with tracer.span("experiment.diagnose") as sp_diagnose:
            for fault_name in campaign.faults:
                for run in campaign.test_runs(fault_name):
                    verdict = system.diagnose_run(context, run)
                    outcomes.append(
                        DiagnosisOutcome(
                            truth=fault_name,
                            predicted=verdict.root_cause,
                            detected=verdict.detected,
                        )
                    )
                    if recorder is not None:
                        recorder.record(
                            (context.workload, context.node_id),
                            "diagnose",
                            truth=fault_name,
                            predicted=verdict.root_cause,
                            detected=verdict.detected,
                        )
    result = DiagnosisExperimentResult(
        workload=campaign.config.workload,
        system=system_label,
        scores=score_outcomes(outcomes),
        outcomes=outcomes,
        stage_seconds={
            sp.name: sp.duration or 0.0
            for sp in (sp_train, sp_signatures, sp_diagnose)
        },
    )
    ledger = getattr(system, "ledger", None)
    if ledger is not None:
        average = result.scores["average"]
        ledger.append(
            "experiment",
            context=(context.workload, context.node_id),
            fingerprint=getattr(system, "fingerprint", None),
            system=system_label,
            runs=len(outcomes),
            detected=sum(1 for o in outcomes if o.detected),
            precision=round(average.precision, 6),
            recall=round(average.recall, 6),
        )
    return result


def _context_for(cluster: HadoopCluster, workload: str, node: str) -> OperationContext:
    return OperationContext(workload, node, cluster.ip_of(node))


# ----------------------------------------------------------------------
# Fig. 2 — CPI under a benign CPU disturbance
# ----------------------------------------------------------------------
@dataclass
class Fig2Result:
    """CPI and execution time of Wordcount around a CPU disturbance.

    The paper's claim: the 30 % utilisation disturbance changes neither
    execution time nor CPI (spare cores absorb it), while real contention
    (CPU-hog) moves both.
    """

    baseline_ticks: int
    disturbed_ticks: int
    hogged_ticks: int
    baseline_cpi: np.ndarray
    disturbed_cpi: np.ndarray
    hogged_cpi: np.ndarray
    disturb_window: tuple[int, int]


def run_fig2_cpi_disturbance(
    cluster: HadoopCluster | None = None,
    seed: int = 7,
    node: str = "slave-1",
) -> Fig2Result:
    """Regenerate Fig. 2: Wordcount CPI/time under CPU disturbance."""
    cluster = cluster or HadoopCluster()
    window = (45, 75)  # paper: disturbance from sample 450 to 480 (10 s each)
    spec = FaultSpec(node, start=window[0], duration=window[1] - window[0])
    baseline = cluster.run("wordcount", seed=seed)
    disturbed = cluster.run(
        "wordcount", faults=[CpuDisturbanceFault(spec)], seed=seed
    )
    hogged = cluster.run(
        "wordcount", faults=[build_fault("CPU-hog", spec)], seed=seed
    )
    return Fig2Result(
        baseline_ticks=baseline.execution_ticks,
        disturbed_ticks=disturbed.execution_ticks,
        hogged_ticks=hogged.execution_ticks,
        baseline_cpi=baseline.node(node).cpi,
        disturbed_cpi=disturbed.node(node).cpi,
        hogged_cpi=hogged.node(node).cpi,
        disturb_window=window,
    )


# ----------------------------------------------------------------------
# Fig. 4 — CPI tracks execution time
# ----------------------------------------------------------------------
@dataclass
class Fig4Series:
    """One workload's CPI-vs-execution-time series (25 runs in the paper)."""

    workload: str
    exec_norm: np.ndarray      # execution time normalised to the minimum
    kpi_norm: np.ndarray       # 95th-pct CPI normalised to the minimum
    correlation: float         # Pearson r (paper: 0.97 / 0.95)
    poly_coeffs: np.ndarray    # 2nd-order fit (paper Fig. 4 c/d)
    poly_r2: float


def run_fig4_cpi_kpi(
    cluster: HadoopCluster | None = None,
    workloads: tuple[str, ...] = ("wordcount", "sort"),
    reps: int = 25,
    node: str = "slave-1",
    base_seed: int = 40,
) -> dict[str, Fig4Series]:
    """Regenerate Fig. 4: repeated runs with varying injected disturbance.

    Each repetition optionally injects one of the contention hogs
    {CPU-hog, Disk-hog, Mem-hog}, held for the whole run so the
    T = I·CPI·C proportionality is visible; the 95th-percentile CPI of
    each run is the KPI.  (Blocking faults such as Net-delay stall the
    process without retiring instructions slower, which genuinely breaks
    the identity — the paper's sweep likewise relies on contention
    disturbances.)
    """
    cluster = cluster or HadoopCluster()
    rng = np.random.default_rng(base_seed)
    variers = ("CPU-hog", "Disk-hog", "Mem-hog")
    out: dict[str, Fig4Series] = {}
    for workload in workloads:
        times: list[float] = []
        kpis: list[float] = []
        for rep in range(reps):
            seed = base_seed * 1000 + rep
            faults = []
            if rep % 4 != 0:  # a quarter of the runs stay clean
                name = variers[int(rng.integers(len(variers)))]
                faults = [build_fault(name, FaultSpec(node, 5, 300))]
            run = cluster.run(workload, faults=faults, seed=seed)
            times.append(float(run.execution_ticks))
            kpis.append(run_kpi(run, node))
        exec_norm = normalize_to_min(np.asarray(times))
        kpi_norm = normalize_to_min(np.asarray(kpis))
        coeffs, r2 = polyfit2(exec_norm, kpi_norm)
        out[workload] = Fig4Series(
            workload=workload,
            exec_norm=exec_norm,
            kpi_norm=kpi_norm,
            correlation=pearson(exec_norm, kpi_norm),
            poly_coeffs=coeffs,
            poly_r2=r2,
        )
    return out


# ----------------------------------------------------------------------
# Fig. 5 — ARIMA residuals before/after CPU-hog
# ----------------------------------------------------------------------
@dataclass
class Fig5Series:
    """One workload's CPI prediction residuals around a CPU-hog."""

    workload: str
    residuals: np.ndarray
    fault_window: tuple[int, int]
    threshold_upper: float


def run_fig5_residuals(
    cluster: HadoopCluster | None = None,
    workloads: tuple[str, ...] = ("wordcount", "tpcds"),
    node: str = "slave-1",
    n_normal: int = 8,
    base_seed: int = 50,
) -> dict[str, Fig5Series]:
    """Regenerate Fig. 5: train ARIMA on normal CPI, inject CPU-hog,
    report the one-step prediction residuals."""
    cluster = cluster or HadoopCluster()
    out: dict[str, Fig5Series] = {}
    for workload in workloads:
        ctx = _context_for(cluster, workload, node)
        pipe = InvarNetX()
        normal = [
            cluster.run(workload, seed=base_seed + i) for i in range(n_normal)
        ]
        detector = pipe.train_performance_model(
            ctx, [r.node(node).cpi for r in normal]
        )
        fault = build_fault("CPU-hog", FaultSpec(node, 40, 30))
        run = cluster.run(workload, faults=[fault], seed=base_seed + 999)
        report = detector.detect(run.node(node).cpi)
        assert detector.threshold is not None
        out[workload] = Fig5Series(
            workload=workload,
            residuals=report.residuals,
            fault_window=(40, 70),
            threshold_upper=detector.threshold.upper,
        )
    return out


# ----------------------------------------------------------------------
# Fig. 6 — the three threshold rules
# ----------------------------------------------------------------------
@dataclass
class Fig6RuleScore:
    """Detection quality of one threshold rule on one workload."""

    rule: str
    true_positive_rate: float   # fault-window ticks flagged
    false_positive_rate: float  # normal ticks flagged
    problem_detected: bool      # did the 3-consecutive rule fire in-window


def run_fig6_threshold_rules(
    cluster: HadoopCluster | None = None,
    workloads: tuple[str, ...] = ("wordcount", "tpcds"),
    node: str = "slave-1",
    n_normal: int = 8,
    base_seed: int = 60,
) -> dict[str, list[Fig6RuleScore]]:
    """Regenerate Fig. 6: compare max-min, 95-percentile and beta-max on
    CPU-hog runs.  The paper's finding: 95-percentile is the worst (it
    floods false alarms); max-min and beta-max behave similarly."""
    cluster = cluster or HadoopCluster()
    out: dict[str, list[Fig6RuleScore]] = {}
    for workload in workloads:
        ctx = _context_for(cluster, workload, node)
        pipe = InvarNetX()
        normal = [
            cluster.run(workload, seed=base_seed + i) for i in range(n_normal)
        ]
        detector = pipe.train_performance_model(
            ctx, [r.node(node).cpi for r in normal]
        )
        fault = build_fault("CPU-hog", FaultSpec(node, 40, 30))
        run = cluster.run(workload, faults=[fault], seed=base_seed + 999)
        cpi = run.node(node).cpi
        scores: list[Fig6RuleScore] = []
        for rule in ThresholdRule:
            report = detector.detect(cpi, rule=rule)
            in_window = np.zeros(cpi.size, dtype=bool)
            in_window[40 : min(70, cpi.size)] = True
            valid = ~np.isnan(report.residuals)
            flags = report.anomalous
            tp = float(np.mean(flags[in_window & valid])) if np.any(in_window & valid) else 0.0
            fp_mask = ~in_window & valid
            fp = float(np.mean(flags[fp_mask])) if np.any(fp_mask) else 0.0
            fired = any(40 <= t < 75 for t in report.problem_ticks)
            scores.append(
                Fig6RuleScore(
                    rule=rule.value,
                    true_positive_rate=tp,
                    false_positive_rate=fp,
                    problem_detected=fired,
                )
            )
        out[workload] = scores
    return out


# ----------------------------------------------------------------------
# Figs. 7/8 — per-fault diagnosis accuracy
# ----------------------------------------------------------------------
def run_fig7_tpcds_diagnosis(
    cluster: HadoopCluster | None = None,
    test_reps: int = 8,
    node: str = "slave-1",
    base_seed: int = 70,
    store: "ModelStore | None" = None,
) -> DiagnosisExperimentResult:
    """Regenerate Fig. 7: per-fault precision/recall under TPC-DS (all 15
    faults, Overload included).

    Args:
        store: optional model registry — trained contexts persist there,
            and a registry that already holds them is reused instead of
            retrained (warm restart across invocations).
    """
    from repro.eval.registry.executor import execute_spec
    from repro.eval.registry.spec import builtin_spec

    spec = builtin_spec(
        "fig7", test_reps=test_reps, base_seed=base_seed, node=node
    )
    results = execute_spec(spec, cluster or HadoopCluster(), store=store)
    return results["InvarNet-X"][0]


def run_fig8_wordcount_diagnosis(
    cluster: HadoopCluster | None = None,
    test_reps: int = 8,
    node: str = "slave-1",
    base_seed: int = 80,
    store: "ModelStore | None" = None,
) -> DiagnosisExperimentResult:
    """Regenerate Fig. 8: per-fault precision/recall under Wordcount (14
    faults; FIFO exclusivity removes Overload).

    Args:
        store: optional model registry — trained contexts persist there,
            and a registry that already holds them is reused instead of
            retrained (warm restart across invocations).
    """
    from repro.eval.registry.executor import execute_spec
    from repro.eval.registry.spec import builtin_spec

    spec = builtin_spec(
        "fig8", test_reps=test_reps, base_seed=base_seed, node=node
    )
    results = execute_spec(spec, cluster or HadoopCluster(), store=store)
    return results["InvarNet-X"][0]


# ----------------------------------------------------------------------
# Figs. 9/10 — InvarNet-X vs ARX vs no-operation-context
# ----------------------------------------------------------------------
def run_fig9_fig10_comparison(
    cluster: HadoopCluster | None = None,
    test_reps: int = 8,
    node: str = "slave-1",
    base_seed: int = 90,
) -> dict[str, DiagnosisExperimentResult]:
    """Regenerate Figs. 9/10: the three-system comparison on Wordcount.

    - ``InvarNet-X``: the full system;
    - ``ARX``: MIC invariants replaced by Jiang et al.'s ARX networks;
    - ``no-context``: one global model/signature base trained on a mixture
      of Wordcount, Sort and TPC-DS instead of per-(workload, node) models
      (its extra campaigns come from the spec's ``extra_workloads``).
    """
    from repro.eval.registry.executor import execute_spec
    from repro.eval.registry.spec import builtin_spec

    spec = builtin_spec(
        "fig9-10", test_reps=test_reps, base_seed=base_seed, node=node
    )
    results = execute_spec(spec, cluster or HadoopCluster())
    return {label: runs[0] for label, runs in results.items()}


# ----------------------------------------------------------------------
# ablation — detection vs fault severity
# ----------------------------------------------------------------------
@dataclass
class IntensityPoint:
    """Detection behaviour at one fault severity."""

    intensity: float
    detection_rate: float
    mean_latency_ticks: float   # alarm tick minus injection start (NaN if
                                # nothing was detected at this severity)
    diagnosis_accuracy: float   # fraction of detected runs named correctly


def run_intensity_sweep(
    cluster: HadoopCluster | None = None,
    fault_name: str = "CPU-hog",
    intensities: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.5),
    reps: int = 5,
    workload: str = "wordcount",
    node: str = "slave-1",
    base_seed: int = 170,
) -> list[IntensityPoint]:
    """Sweep one fault's severity and measure the detection boundary.

    Signatures are trained at the paper's calibration (intensity 1.0);
    the sweep shows where ARIMA drift detection loses the fault and how
    the alarm latency shrinks as severity grows.
    """
    cluster = cluster or HadoopCluster()
    ctx = _context_for(cluster, workload, node)
    pipe = InvarNetX()
    normal = [
        cluster.run(workload, seed=base_seed + i) for i in range(8)
    ]
    pipe.train_from_runs(ctx, normal)
    for rep in range(2):
        fault = build_fault(fault_name, FaultSpec(node, 30, 30))
        run = cluster.run(
            workload, faults=[fault], seed=base_seed + 900 + rep
        )
        pipe.train_signature_from_run(ctx, fault_name, run)

    points: list[IntensityPoint] = []
    for intensity in intensities:
        detected = 0
        correct = 0
        latencies: list[float] = []
        for rep in range(reps):
            fault = build_fault(
                fault_name,
                FaultSpec(node, 30, 30, intensity=intensity),
            )
            run = cluster.run(
                workload, faults=[fault],
                seed=base_seed + 2000 + int(intensity * 100) * 10 + rep,
            )
            result = pipe.diagnose_run(ctx, run)
            if result.detected:
                detected += 1
                first = result.anomaly.first_problem_tick()
                assert first is not None
                latencies.append(float(first - 30))
                if result.root_cause == fault_name:
                    correct += 1
        points.append(
            IntensityPoint(
                intensity=intensity,
                detection_rate=detected / reps,
                mean_latency_ticks=(
                    float(np.mean(latencies)) if latencies else float("nan")
                ),
                diagnosis_accuracy=correct / detected if detected else 0.0,
            )
        )
    return points


# ----------------------------------------------------------------------
# ablation — how many normal training runs does Algorithm 1 need?
# ----------------------------------------------------------------------
@dataclass
class TrainingSizePoint:
    """Pipeline quality with N normal training runs."""

    n_runs: int
    n_invariants: int
    false_violation_rate: float  # violations on held-out normal windows
    diagnosis_accuracy: float


def run_training_size_sweep(
    cluster: HadoopCluster | None = None,
    sizes: tuple[int, ...] = (2, 4, 8, 12),
    faults: tuple[str, ...] = ("CPU-hog", "Mem-hog", "Disk-hog", "Misconf"),
    reps: int = 3,
    workload: str = "wordcount",
    node: str = "slave-1",
    base_seed: int = 180,
) -> list[TrainingSizePoint]:
    """Sweep the number of normal runs N used for training.

    Algorithm 1's stability test only *removes* pairs as N grows, so the
    invariant count is non-increasing; the question the paper never
    answers is how small N can be before unstable invariants flood the
    tuples with false violations.  Run matrices are computed once and
    prefix-reused, so the sweep is cheap.
    """
    cluster = cluster or HadoopCluster()
    ctx = _context_for(cluster, workload, node)
    max_n = max(sizes)
    normal = [
        cluster.run(workload, seed=base_seed + i) for i in range(max_n)
    ]
    probe = InvarNetX()
    matrices = [
        probe.run_association_matrix(r.node(node).metrics) for r in normal
    ]
    cpi_traces = [r.node(node).cpi for r in normal]
    holdout = [
        cluster.run(workload, seed=base_seed + 700 + i) for i in range(3)
    ]

    from repro.core.invariants import select_invariants

    points: list[TrainingSizePoint] = []
    for n in sorted(sizes):
        pipe = InvarNetX()
        pipe.train_performance_model(ctx, cpi_traces[:n])
        slot = pipe._slot(ctx)
        slot.invariants = select_invariants(
            matrices[:n], tau=pipe.config.tau, catalog=pipe.catalog
        )
        # false violations on held-out normal windows
        rates: list[float] = []
        for run in holdout:
            for window in pipe.slice_windows(run.node(node).metrics):
                if window.shape[0] < 30:
                    continue
                abnormal = pipe.association_matrix(window)
                rates.append(
                    float(slot.invariants.violations(abnormal).mean())
                )
        # diagnosis accuracy on the core faults
        for fault_name in faults:
            for rep in range(2):
                fault = build_fault(fault_name, FaultSpec(node, 30, 30))
                run = cluster.run(
                    workload, faults=[fault],
                    seed=base_seed + 900 + faults.index(fault_name) * 10 + rep,
                )
                pipe.train_signature_from_run(ctx, fault_name, run)
        total = correct = 0
        for fault_name in faults:
            for rep in range(reps):
                fault = build_fault(fault_name, FaultSpec(node, 30, 30))
                run = cluster.run(
                    workload, faults=[fault],
                    seed=base_seed + 3000
                    + faults.index(fault_name) * 100 + rep,
                )
                result = pipe.diagnose_run(ctx, run)
                total += 1
                if result.root_cause == fault_name:
                    correct += 1
        points.append(
            TrainingSizePoint(
                n_runs=n,
                n_invariants=len(slot.invariants),
                false_violation_rate=float(np.mean(rates)),
                diagnosis_accuracy=correct / total,
            )
        )
    return points


# ----------------------------------------------------------------------
# extension — the §5 peer-similarity blind spot
# ----------------------------------------------------------------------
class ClusterWideMisconfFault(Fault):
    """A cluster-wide configuration bug with an *identical* manifestation
    on every node (the paper's §5 blind-spot scenario).

    ``mapred.max.split.size`` lives in the job configuration, so every
    TaskTracker suffers the same tiny-task storm, synchronised by the
    job's own task waves: the per-tick overhead is a deterministic
    function of time, not node-local randomness.  Cross-node correlations
    therefore survive intact — which is what blinds peer-similarity
    methods while per-node invariant checking still fires.
    """

    name = "Cluster-Misconf"

    def _modifiers(self, tick: int, rng: np.random.Generator) -> "FaultModifiers":
        from repro.cluster.node import FaultModifiers

        return FaultModifiers(cpi_factor=1.25, progress_factor=0.55)

    def _metric_effects(self, tick: int, rng: np.random.Generator):
        from repro.telemetry.collectl import MetricEffects

        # Deterministic in tick: every node sees the same storm profile.
        wave = 1.0 + 0.3 * np.sin(tick / 3.0)
        return MetricEffects(
            add={
                "ctxt_per_sec": 9_500.0 * wave,
                "intr_per_sec": 2_800.0 * wave,
                "cpu_sys_pct": 7.0 * wave,
            }
        )


@dataclass
class PeerBlindspotResult:
    """Outcome of the §5 blind-spot comparison.

    Attributes:
        local_peer_flagged: nodes PeerWatch flagged for the single-node
            fault (should localise the target).
        local_invarnet_detected: did InvarNet-X detect the single-node
            fault on the target?
        global_peer_flagged: nodes PeerWatch flagged for the cluster-wide
            bug (the paper predicts: none).
        global_invarnet_nodes: nodes on which InvarNet-X detected the
            cluster-wide bug (the paper predicts: all of them).
        peer_scores_global: PeerWatch node scores for the cluster-wide bug.
    """

    local_peer_flagged: list[str]
    local_invarnet_detected: bool
    global_peer_flagged: list[str]
    global_invarnet_nodes: list[str]
    peer_scores_global: dict[str, float]


def run_peer_blindspot_experiment(
    cluster: HadoopCluster | None = None,
    base_seed: int = 160,
) -> PeerBlindspotResult:
    """Reproduce the §5 argument against peer-similarity diagnosis.

    Both systems train on the same normal Wordcount runs.  A single-node
    CPU-hog is visible to both; a cluster-wide configuration bug that
    degrades every node identically leaves peer correlations intact and
    escapes PeerWatch, while the per-context invariant/ARIMA checks of
    InvarNet-X fire on every node.
    """
    from repro.baselines.peerwatch import PeerWatchDetector
    from repro.core.orchestrator import ClusterDiagnoser

    cluster = cluster or HadoopCluster()
    normal = [
        cluster.run("wordcount", seed=base_seed + i) for i in range(8)
    ]
    peer = PeerWatchDetector()
    peer.train(normal)
    diagnoser = ClusterDiagnoser()
    diagnoser.train(normal)

    # Scenario A: a node-local fault — both methods should see it.
    hog = build_fault("CPU-hog", FaultSpec("slave-2", 30, 30))
    local_run = cluster.run(
        "wordcount", faults=[hog], seed=base_seed + 500
    )
    local_peer = peer.detect(local_run)
    local_invar = diagnoser.diagnose(local_run)
    local_detected = "slave-2" in local_invar.faulty_nodes

    # Scenario B: the same bug on every node, identically.
    global_faults = [
        ClusterWideMisconfFault(FaultSpec(f"slave-{i}", 30, 30))
        for i in (1, 2, 3, 4)
    ]
    global_run = cluster.run(
        "wordcount", faults=global_faults, seed=base_seed + 501
    )
    global_peer = peer.detect(global_run)
    global_invar = diagnoser.diagnose(global_run)

    return PeerBlindspotResult(
        local_peer_flagged=local_peer.flagged,
        local_invarnet_detected=local_detected,
        global_peer_flagged=global_peer.flagged,
        global_invarnet_nodes=global_invar.faulty_nodes,
        peer_scores_global=global_peer.node_scores,
    )


# ----------------------------------------------------------------------
# ablations — sweep pipeline tunables over one campaign
# ----------------------------------------------------------------------
def run_config_sweep(
    configs: dict[str, InvarNetXConfig],
    cluster: HadoopCluster | None = None,
    faults: tuple[str, ...] = (
        "CPU-hog", "Mem-hog", "Disk-hog", "Net-drop", "Misconf", "Suspend",
        "H-9703", "Block-R",
    ),
    workload: str = "wordcount",
    test_reps: int = 4,
    node: str = "slave-1",
    base_seed: int = 140,
) -> dict[str, DiagnosisExperimentResult]:
    """Diagnose the same campaign under several pipeline configurations.

    Used by the ablation benchmarks to examine the design choices the
    paper fixes without discussion (ε = τ = 0.2, the similarity measure,
    the abnormal-window length).

    Args:
        configs: label → pipeline configuration.
        cluster: simulated cluster (fresh default when omitted).
        faults: fault subset to keep ablations fast.
        workload: campaign workload.
        test_reps: held-out runs per fault.
        node: fault target.
        base_seed: seed root shared by every configuration (identical
            data, so score differences are purely configuration effects).

    Returns:
        label → scored experiment result.
    """
    cluster = cluster or HadoopCluster()
    config = CampaignConfig(
        workload=workload, node=node, test_reps=test_reps,
        base_seed=base_seed,
    )
    campaign = FaultCampaign(cluster, config, faults)
    ctx = _context_for(cluster, workload, node)
    out: dict[str, DiagnosisExperimentResult] = {}
    for label, pipe_config in configs.items():
        out[label] = run_diagnosis_experiment(
            InvarNetX(pipe_config), campaign, ctx, system_label=label
        )
    return out


# ----------------------------------------------------------------------
# extension — multi-fault diagnosis (§4.1's future-work note)
# ----------------------------------------------------------------------
@dataclass
class MultiFaultResult:
    """Outcome of the multi-fault extension experiment.

    Attributes:
        pair_hits: per fault pair, the fraction of runs where *both*
            injected faults appear in the top-2 cause list.
        any_hits: fraction of runs where at least one appears at rank 1.
    """

    pair_hits: dict[tuple[str, str], float]
    any_hits: dict[tuple[str, str], float]


def run_multi_fault_extension(
    cluster: HadoopCluster | None = None,
    pairs: tuple[tuple[str, str], ...] = (
        ("CPU-hog", "Mem-hog"),
        ("Disk-hog", "Mem-hog"),
        ("CPU-hog", "Block-R"),
    ),
    reps: int = 5,
    node: str = "slave-1",
    base_seed: int = 130,
) -> MultiFaultResult:
    """The paper's multi-fault extension: inject two simultaneous faults
    and check whether both surface in the top-2 ranked causes.

    Training is single-fault (as in the paper's protocol); only diagnosis
    sees concurrent injections.
    """
    cluster = cluster or HadoopCluster()
    ctx = _context_for(cluster, "wordcount", node)
    pipe = InvarNetX()
    normal = [
        cluster.run("wordcount", seed=base_seed + i) for i in range(8)
    ]
    pipe.train_from_runs(ctx, normal)
    singles = sorted({name for pair in pairs for name in pair})
    for name in singles:
        for rep in range(2):
            fault = build_fault(name, FaultSpec(node, 30, 30))
            run = cluster.run(
                "wordcount", faults=[fault],
                seed=base_seed + 1000 + singles.index(name) * 10 + rep,
            )
            pipe.train_signature_from_run(ctx, name, run)

    pair_hits: dict[tuple[str, str], float] = {}
    any_hits: dict[tuple[str, str], float] = {}
    for pair in pairs:
        both = 0
        top1 = 0
        for rep in range(reps):
            faults = [
                build_fault(name, FaultSpec(node, 30, 30)) for name in pair
            ]
            run = cluster.run(
                "wordcount", faults=faults,
                seed=base_seed + 5000 + pairs.index(pair) * 100 + rep,
            )
            result = pipe.diagnose_run(ctx, run, top_k=3)
            top2 = result.top_causes(2)
            if set(pair) <= set(top2):
                both += 1
            if top2 and top2[0] in pair:
                top1 += 1
        pair_hits[pair] = both / reps
        any_hits[pair] = top1 / reps
    return MultiFaultResult(pair_hits=pair_hits, any_hits=any_hits)


# ----------------------------------------------------------------------
# Table 1 — computational overhead
# ----------------------------------------------------------------------
@dataclass
class OverheadRow:
    """Stage timings (seconds) for one workload (Table 1's row)."""

    workload: str
    perf_model: float          # Perf-M
    invariant_mic: float       # Invar-C
    invariant_arx: float       # Invar-C (ARX)
    signature_build: float     # Sig-B
    detect: float              # Perf-D
    cause_infer: float         # Cause-I
    cause_infer_arx: float     # Cause-I (ARX)


def run_table1_overhead(
    cluster: HadoopCluster | None = None,
    workloads: tuple[str, ...] = ("wordcount", "sort", "grep", "tpcds"),
    node: str = "slave-1",
    n_normal: int = 6,
    base_seed: int = 110,
) -> list[OverheadRow]:
    """Regenerate Table 1: wall-clock cost of each InvarNet-X stage and of
    the ARX equivalents.  Absolute numbers depend on the host; the paper's
    shape is about ratios — Invar-C(ARX) an order of magnitude above
    Invar-C, online stages far below the offline ones.

    Stage timings come from a dedicated (always-enabled) span tracer
    rather than ad-hoc ``time.perf_counter()`` pairs, so the table's
    numbers are exactly what the observability layer would report; the
    tracer is local to this call and leaves the process-wide one alone.
    Each span starts on an empty association cache: Sig-B trains on the
    very run Cause-I diagnoses, and Cause-I must time a cold MIC sweep.
    """
    from repro.obs import Tracer

    cluster = cluster or HadoopCluster()
    tracer = Tracer(enabled=True)

    def timed(name: str):
        clear_association_cache()
        return tracer.span(name)

    rows: list[OverheadRow] = []
    for workload in workloads:
        ctx = _context_for(cluster, workload, node)
        normal = [
            cluster.run(workload, seed=base_seed + i) for i in range(n_normal)
        ]
        cpi_traces = [r.node(node).cpi for r in normal]
        pipe = InvarNetX()

        with timed("perf_model") as sp_perf_model:
            pipe.train_performance_model(ctx, cpi_traces)

        with timed("invariant_mic") as sp_invariant_mic:
            matrices = [
                pipe.run_association_matrix(r.node(node).metrics)
                for r in normal
            ]
            from repro.core.invariants import select_invariants

            invariants = select_invariants(matrices, catalog=pipe.catalog)
        pipe._slot(ctx).invariants = invariants

        with timed("invariant_arx") as sp_invariant_arx:
            arx_network = build_arx_network(
                [r.node(node).metrics for r in normal], catalog=pipe.catalog
            )

        fault = build_fault("CPU-hog", FaultSpec(node, 30, 30))
        abnormal_run = cluster.run(
            workload, faults=[fault], seed=base_seed + 500
        )
        with timed("signature_build") as sp_signature_build:
            pipe.train_signature_from_run(ctx, "CPU-hog", abnormal_run)

        cpi = abnormal_run.node(node).cpi
        with timed("detect") as sp_detect:
            pipe.detect(ctx, cpi)

        window = pipe.extract_abnormal_window(ctx, abnormal_run)
        if window is None:
            window = abnormal_run.fault_slice(node).metrics
        with timed("cause_infer") as sp_cause_infer:
            pipe.infer(ctx, window)

        with timed("cause_infer_arx") as sp_cause_infer_arx:
            arx_network.violations(window)

        rows.append(
            OverheadRow(
                workload="interactive" if workload == "tpcds" else workload,
                perf_model=sp_perf_model.duration,
                invariant_mic=sp_invariant_mic.duration,
                invariant_arx=sp_invariant_arx.duration,
                signature_build=sp_signature_build.duration,
                detect=sp_detect.duration,
                cause_infer=sp_cause_infer.duration,
                cause_infer_arx=sp_cause_infer_arx.duration,
            )
        )
    return rows
