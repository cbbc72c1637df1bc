"""Centralised cluster-wide diagnosis (the paper's deployment mode).

InvarNet-X "adopts a centralized mode" (§3): telemetry from every Hadoop
node flows to one diagnosis service that keeps a model set per operation
context.  Fig. 1's scenario is cluster-wide — the violations appear *on
slave-3*, and the system answers both questions at once: which node is
faulty and what the root cause is.

:class:`ClusterDiagnoser` implements that layer on top of
:class:`repro.core.pipeline.InvarNetX`: it trains every slave's context
from the same normal runs (telemetry is already per-node in a
:class:`~repro.telemetry.trace.RunTrace`), fans online diagnosis out over
the nodes, and localises the problem to the node(s) whose detector fired.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import repro.obs as obs
from repro.core.context import OperationContext
from repro.core.pipeline import DiagnosisResult, InvarNetX, InvarNetXConfig
from repro.store import ModelStore
from repro.telemetry.trace import RunTrace

__all__ = ["NodeDiagnosis", "ClusterDiagnosis", "ClusterDiagnoser"]

_log = obs.get_logger("core.orchestrator")


@dataclass(frozen=True)
class NodeDiagnosis:
    """One node's contribution to a cluster-wide diagnosis."""

    node_id: str
    detected: bool
    root_cause: str | None
    first_problem_tick: int | None
    top_score: float


@dataclass
class ClusterDiagnosis:
    """Cluster-wide verdict for one run.

    Attributes:
        workload: the diagnosed run's workload.
        nodes: per-node results, in node order.
        faulty_nodes: ids of nodes whose detector reported a problem,
            earliest alarm first.
    """

    workload: str
    nodes: list[NodeDiagnosis] = field(default_factory=list)

    @property
    def faulty_nodes(self) -> list[str]:
        """Ids of nodes whose detector fired, earliest alarm first."""
        flagged = [n for n in self.nodes if n.detected]
        flagged.sort(
            key=lambda n: (
                n.first_problem_tick
                if n.first_problem_tick is not None
                else 10**9
            )
        )
        return [n.node_id for n in flagged]

    @property
    def problem_detected(self) -> bool:
        """True when any monitored node reported a problem."""
        return any(n.detected for n in self.nodes)

    def verdict(self) -> tuple[str, str] | None:
        """``(node, cause)`` for the highest-confidence localisation, or
        None when the cluster looks healthy.

        Among flagged nodes, the one whose top cause scored highest wins;
        alarm time breaks ties (the first node to drift is usually the
        faulty one, its neighbours degrade later through shuffles).
        """
        flagged = [n for n in self.nodes if n.detected]
        if not flagged:
            return None
        flagged.sort(
            key=lambda n: (
                -n.top_score,
                n.first_problem_tick
                if n.first_problem_tick is not None
                else 10**9,
            )
        )
        best = flagged[0]
        return best.node_id, best.root_cause or "unknown"


class ClusterDiagnoser:
    """Cluster-wide training and diagnosis over every slave's context.

    Args:
        pipeline: the underlying per-context pipeline (a fresh default
            :class:`InvarNetX` when omitted).
        node_ids: nodes to monitor; defaults to every node present in the
            first training run except the master (the JobTracker host runs
            no monitored tasks).
        store: model registry for the default pipeline — attach a
            :class:`~repro.store.DirectoryStore` and every node's trained
            context persists as training runs, so a restarted diagnoser
            resumes warm.  Ignored when ``pipeline`` is given (the
            pipeline already owns a store).
    """

    MASTER_ID = "master"

    def __init__(
        self,
        pipeline: InvarNetX | None = None,
        node_ids: list[str] | None = None,
        store: ModelStore | None = None,
    ) -> None:
        if pipeline is not None and store is not None:
            raise ValueError(
                "pass either a pipeline or a store, not both; the "
                "pipeline already owns its model store"
            )
        self.pipeline = pipeline or InvarNetX(InvarNetXConfig(), store=store)
        self._node_ids = list(node_ids) if node_ids else None

    def _nodes_of(self, run: RunTrace) -> list[str]:
        if self._node_ids is not None:
            return self._node_ids
        return [nid for nid in run.nodes if nid != self.MASTER_ID]

    def _context(self, workload: str, run: RunTrace, node_id: str) -> OperationContext:
        return OperationContext(
            workload=workload, node_id=node_id, ip=run.nodes[node_id].ip
        )

    # ------------------------------------------------------------------
    def train(
        self,
        normal_runs: list[RunTrace],
        skip_trained: bool = False,
        recorder=None,
    ) -> list[OperationContext]:
        """Train every monitored node's context from the same normal runs.

        Args:
            normal_runs: the training corpus (one workload).
            skip_trained: leave contexts the pipeline's store already
                holds models for untouched — the warm-restart path when
                the diagnoser is attached to a populated registry.
            recorder: optional event sink with a
                ``record(context_key, kind, **fields)`` method (e.g. a
                campaign registry's
                :class:`~repro.eval.registry.run.RunRecorder`); receives
                one ``train`` event per monitored node.

        Returns:
            The contexts covered (one per monitored node).
        """
        if not normal_runs:
            raise ValueError("need at least one normal run")
        workloads = {run.workload for run in normal_runs}
        if len(workloads) != 1:
            raise ValueError(
                f"normal runs span multiple workloads: {sorted(workloads)}"
            )
        workload = workloads.pop()
        contexts = []
        with obs.span("cluster.train") as sp:
            for node_id in self._nodes_of(normal_runs[0]):
                ctx = self._context(workload, normal_runs[0], node_id)
                warm = skip_trained and self.pipeline.is_trained(ctx)
                if not warm:
                    self.pipeline.train_from_runs(ctx, normal_runs)
                contexts.append(ctx)
                if recorder is not None:
                    recorder.record(
                        (workload, node_id),
                        "train",
                        runs=len(normal_runs),
                        warm=warm,
                    )
            if sp:
                sp.set(
                    workload=workload,
                    nodes=len(contexts),
                    runs=len(normal_runs),
                )
        return contexts

    def train_signature(
        self, problem: str, faulty_run: RunTrace, node_id: str
    ) -> None:
        """Record an investigated problem's signature for one node."""
        ctx = self._context(faulty_run.workload, faulty_run, node_id)
        self.pipeline.train_signature_from_run(ctx, problem, faulty_run)

    def diagnose(
        self, run: RunTrace, top_k: int = 3, recorder=None
    ) -> ClusterDiagnosis:
        """Fan diagnosis out over every monitored node.

        Args:
            run: the run to diagnose.
            top_k: cause-list length per node.
            recorder: optional event sink with a
                ``record(context_key, kind, **fields)`` method; receives
                one ``diagnose`` event per monitored node.
        """
        out = ClusterDiagnosis(workload=run.workload)
        with obs.span("cluster.diagnose") as sp:
            for node_id in self._nodes_of(run):
                ctx = self._context(run.workload, run, node_id)
                result: DiagnosisResult = self.pipeline.diagnose_run(
                    ctx, run, top_k=top_k
                )
                inference = result.inference
                best = inference.best if inference is not None else None
                top_score = best.score if best is not None else 0.0
                out.nodes.append(
                    NodeDiagnosis(
                        node_id=node_id,
                        detected=result.detected,
                        root_cause=result.root_cause,
                        first_problem_tick=result.anomaly.first_problem_tick(),
                        top_score=top_score,
                    )
                )
                if recorder is not None:
                    recorder.record(
                        (run.workload, node_id),
                        "diagnose",
                        detected=result.detected,
                        predicted=result.root_cause,
                    )
            if sp:
                sp.set(
                    workload=run.workload,
                    nodes=len(out.nodes),
                    faulty=len(out.faulty_nodes),
                )
        if obs.enabled():
            verdict = out.verdict()
            obs.log_event(
                _log,
                logging.INFO,
                "cluster-diagnosis",
                workload=run.workload,
                faulty=",".join(out.faulty_nodes) or "-",
                verdict=f"{verdict[0]}:{verdict[1]}" if verdict else "-",
            )
        ledger = self.pipeline.ledger
        if ledger is not None:
            # Per-node "diagnose" entries were already written by
            # diagnose_run; this one records the cluster-level verdict
            # that localisation produced from them.
            verdict = out.verdict()
            ledger.append(
                "cluster-diagnose",
                fingerprint=self.pipeline.fingerprint,
                workload=run.workload,
                nodes=len(out.nodes),
                faulty_nodes=out.faulty_nodes,
                verdict=list(verdict) if verdict else None,
            )
        return out
