"""Command-line interface.

Three subcommands cover the working loop of the system:

``invarnetx simulate``
    Run one workload on the simulated cluster (optionally with an injected
    fault) and write the trace to an NPZ file — the unit of data every
    other command consumes.

``invarnetx diagnose``
    Train from normal-run NPZ traces and per-problem signature traces,
    then diagnose an incident trace; prints the ranked causes.

``invarnetx explain``
    Like ``diagnose``, but print the full incident-explanation report:
    per-cause similarity breakdowns, every violated invariant pair with
    its delta against ε, and the CPI residuals around the alarm tick
    (``--json`` for the machine-readable form).

``invarnetx experiment``
    Regenerate one of the paper's figures/tables and print it.  With
    ``--registry DIR`` the diagnosis exhibits (fig7, fig8, fig9-10)
    execute through the campaign run registry: committed under
    ``DIR/runs/<run_id>/``, indexed in SQLite, reused when already
    committed.

``invarnetx runs``
    The campaign registry (:mod:`repro.eval.registry`): ``run`` executes
    a campaign spec into a ``runs/<run_id>/`` directory, ``list``
    tabulates the cross-run SQLite index, ``show`` prints one committed
    run, and ``compare`` scores two cohorts against each other from the
    index alone (a byte-deterministic bake-off report).

``invarnetx store``
    List or inspect the contexts of an on-disk model registry
    (:class:`repro.store.DirectoryStore`) without loading runs or
    retraining anything.

``invarnetx health``
    Run the model drift watchdog (:mod:`repro.obs.health`) over a
    registry: residual drift, fragile invariants, ambiguous signatures,
    staleness and stage-timing regressions, per stored context.

``invarnetx ledger``
    Read the registry's run ledger: ``list`` tabulates every recorded
    run, ``show`` prints one entry's full JSON.

``invarnetx incidents``
    Correlate the incident bundles a serve blackbox committed into
    classified platform incidents (``list``/``show``); see
    :mod:`repro.serve.incidents`.

``invarnetx replay``
    Deterministically re-run detection and diagnosis from one incident
    bundle alone and assert the reproduced cause ranking, explanation
    bytes and drift verdicts match the originals (exit 1 on
    divergence); see :mod:`repro.obs.blackbox`.

``invarnetx lint``
    Run the domain linter (:mod:`repro.lint`) over the source tree:
    RNG discipline, operation-context key discipline, float-equality,
    the paper's tuned constants, and general hygiene.

Three global flags (before the subcommand) switch on the observability
layer of :mod:`repro.obs`: ``--log-level LEVEL`` streams structured
``event key=value`` logs to stderr, ``--trace`` prints the span tree of
the run to stderr after the command finishes, and ``--trace-out PATH``
writes the same spans as a Chrome ``trace_event`` JSON file for
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import repro.obs as obs
from repro.cluster import HadoopCluster
from repro.cluster.workloads import WORKLOADS
from repro.core import InvarNetX, OperationContext
from repro.core.persistence import (
    MANIFEST_NAME,
    canonical_json,
    committed_dirs,
)
from repro.faults.spec import ALL_FAULTS, FaultSpec, build_fault
from repro.store import DirectoryStore
from repro.telemetry.io import load_run_npz, save_node_csv, save_run_npz

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="invarnetx",
        description="InvarNet-X: invariant-based performance diagnosis "
        "(BPOE/VLDB 2014 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable observability and stream structured logs to stderr "
        "at this level",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable observability and print the span trace to stderr "
        "after the command finishes",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="enable observability and write the span trace as Chrome "
        "trace_event JSON (chrome://tracing, Perfetto) when the command "
        "finishes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="run a workload on the simulated cluster"
    )
    sim.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--fault", choices=sorted(ALL_FAULTS), default=None,
        help="optional fault to inject",
    )
    sim.add_argument("--fault-node", default="slave-1")
    sim.add_argument("--fault-start", type=int, default=30)
    sim.add_argument(
        "--fault-duration", type=int, default=30,
        help="ticks (paper: 5 min = 30)",
    )
    sim.add_argument(
        "--out", type=Path, required=True, help="output NPZ trace path"
    )
    sim.add_argument(
        "--csv-dir", type=Path, default=None,
        help="also dump per-node collectl-style CSVs here",
    )

    def add_diagnosis_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--normal", type=Path, nargs="+", required=True,
            help="normal-run NPZ traces (training corpus)",
        )
        p.add_argument(
            "--signature", action="append", default=[],
            metavar="PROBLEM=TRACE.npz",
            help="labelled faulty trace to store as a signature "
            "(repeatable)",
        )
        p.add_argument(
            "--incident", type=Path, required=True,
            help="the NPZ trace to diagnose",
        )
        p.add_argument("--node", default="slave-1")
        p.add_argument("--top-k", type=int, default=3)
        p.add_argument(
            "--store", type=Path, default=None, metavar="DIR",
            help="durable model registry: trained models persist here, "
            "and a context already in the registry is loaded instead of "
            "retrained (warm restart)",
        )

    diag = sub.add_parser(
        "diagnose", help="train from traces and diagnose an incident"
    )
    add_diagnosis_arguments(diag)

    explain = sub.add_parser(
        "explain",
        help="diagnose an incident and print the full evidence report",
        description="Train (or warm-load) exactly as `diagnose` does, "
        "then print the incident explanation: per-cause similarity "
        "breakdowns, violated invariant pairs with deltas vs epsilon, "
        "and CPI residuals around the alarm tick.  The report goes to "
        "stdout; progress messages go to stderr.",
    )
    add_diagnosis_arguments(explain)
    explain.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )

    exp = sub.add_parser(
        "experiment", help="regenerate one of the paper's exhibits"
    )
    exp.add_argument(
        "name",
        choices=(
            "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9-10", "table1", "all",
        ),
        help='"all" regenerates every exhibit in order (a full '
        "reproduction report; allow ~20 minutes at default reps)",
    )
    exp.add_argument(
        "--reps", type=int, default=6,
        help="held-out runs per fault where applicable (paper: 38)",
    )
    exp.add_argument(
        "--out", type=Path, default=None,
        help="also write the report to this file",
    )
    exp.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="durable model registry for the diagnosis exhibits (fig7, "
        "fig8): trained contexts persist here and are reused on the next "
        "invocation instead of retraining",
    )
    exp.add_argument(
        "--registry", type=Path, default=None, metavar="DIR",
        help="campaign registry root: run the diagnosis exhibits (fig7, "
        "fig8, fig9-10) through the run registry — committed under "
        "DIR/runs/<run_id>/, indexed in SQLite, and reused verbatim when "
        "the same spec fingerprint is already committed",
    )

    from repro.eval.registry.spec import BUILTIN_SPECS

    runs = sub.add_parser(
        "runs",
        help="execute and query campaign runs (the run registry)",
        description="The campaign registry: durable runs/<run_id>/ "
        "directories with atomically-committed manifests, a cross-run "
        "SQLite index, and byte-deterministic cohort bake-offs.",
    )
    runs_sub = runs.add_subparsers(dest="runs_action", required=True)
    runs_run = runs_sub.add_parser(
        "run", help="execute a campaign spec into the registry"
    )
    runs_run.add_argument(
        "--dir", type=Path, required=True, help="campaign registry root"
    )
    spec_source = runs_run.add_mutually_exclusive_group(required=True)
    spec_source.add_argument(
        "--spec", choices=BUILTIN_SPECS,
        help="one of the builtin exhibit specs",
    )
    spec_source.add_argument(
        "--spec-file", type=Path, metavar="PATH",
        help="a CampaignSpec JSON document (the spec.json dialect)",
    )
    runs_run.add_argument(
        "--reps", type=int, default=None,
        help="held-out runs per fault override (paper: 38)",
    )
    runs_run.add_argument(
        "--repetitions", type=int, default=None,
        help="whole-campaign repetitions override",
    )
    runs_run.add_argument(
        "--seed", type=int, default=None, help="base-seed override"
    )
    runs_run.add_argument(
        "--node", default=None, help="fault-target node override"
    )
    runs_run.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="model registry for InvarNet-X cohorts (warm restarts)",
    )
    runs_run.add_argument(
        "--force", action="store_true",
        help="re-execute even when this spec fingerprint is committed",
    )
    runs_list = runs_sub.add_parser(
        "list", help="tabulate the cross-run index"
    )
    runs_list.add_argument(
        "--dir", type=Path, required=True, help="campaign registry root"
    )
    runs_list.add_argument(
        "--spec", default=None, help="only runs of this campaign family"
    )
    runs_list.add_argument(
        "--rebuild", action="store_true",
        help="rebuild the SQLite index from the run manifests first",
    )
    runs_show = runs_sub.add_parser(
        "show", help="print one committed run"
    )
    runs_show.add_argument("run_id", help="run id (see: runs list)")
    runs_show.add_argument(
        "--dir", type=Path, required=True, help="campaign registry root"
    )
    runs_show.add_argument(
        "--json", action="store_true",
        help="emit the committed manifest as JSON instead of the report",
    )
    runs_compare = runs_sub.add_parser(
        "compare",
        help="score two cohorts against each other from the index",
    )
    runs_compare.add_argument("system_a", help="first cohort label")
    runs_compare.add_argument("system_b", help="second cohort label")
    runs_compare.add_argument(
        "--dir", type=Path, required=True, help="campaign registry root"
    )
    runs_compare.add_argument(
        "--spec", default=None,
        help="restrict both cohorts to one campaign family",
    )
    runs_compare.add_argument(
        "--json", action="store_true",
        help="emit the bake-off report as JSON instead of text",
    )

    store = sub.add_parser(
        "store",
        help="list or inspect an on-disk model registry",
        description="Read-only views over a DirectoryStore registry: the "
        "manifest index (list) and one context's rehydrated models "
        "(inspect).",
    )
    store_sub = store.add_subparsers(dest="store_action", required=True)
    store_list = store_sub.add_parser(
        "list", help="list every context in the registry"
    )
    store_list.add_argument("dir", type=Path, help="registry directory")
    store_inspect = store_sub.add_parser(
        "inspect", help="show one context's persisted models in detail"
    )
    store_inspect.add_argument("dir", type=Path, help="registry directory")
    store_inspect.add_argument("--workload", required=True)
    store_inspect.add_argument("--node", required=True)

    health = sub.add_parser(
        "health",
        help="score every stored context with the drift watchdog",
        description="Read-only longitudinal checks over a DirectoryStore "
        "registry and its colocated run ledger: residual drift vs the "
        "training distribution, invariants near the tau boundary, "
        "ambiguous signatures, staleness, and stage-timing regressions.",
    )
    health.add_argument("dir", type=Path, help="registry directory")
    health.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )
    health.add_argument(
        "--fragility-margin", type=float, default=None,
        help="MIC spread within this margin of tau counts as fragile",
    )
    health.add_argument(
        "--ambiguity-floor", type=float, default=None,
        help="cross-problem signature distance below this is ambiguous",
    )
    health.add_argument(
        "--stale-runs", type=int, default=None,
        help="diagnoses since the last retrain before a context is stale",
    )
    health.add_argument(
        "--drift-ratio", type=float, default=None,
        help="recent/training residual p90 ratio that counts as drift",
    )

    ledger = sub.add_parser(
        "ledger",
        help="read a registry's run ledger",
        description="Read-only views over the append-only run ledger "
        "colocated with a DirectoryStore registry (ledger.jsonl).",
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_action", required=True)
    ledger_list = ledger_sub.add_parser(
        "list", help="tabulate every recorded run"
    )
    ledger_list.add_argument("dir", type=Path, help="registry directory")
    ledger_list.add_argument(
        "--kind", default=None,
        help="only entries of this kind (train, signature, diagnose, ...)",
    )
    ledger_show = ledger_sub.add_parser(
        "show", help="print one ledger entry as JSON"
    )
    ledger_show.add_argument("dir", type=Path, help="registry directory")
    ledger_show.add_argument(
        "--seq", type=int, default=None,
        help="sequence number of the entry (default: the latest entry)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the fleet diagnosis service over HTTP",
        description="Multiplex streaming diagnosis for every context in "
        "a DirectoryStore registry behind a stdlib HTTP/JSON API "
        "(POST /ingest, GET /health, GET /contexts, GET /explain/<ctx>).",
    )
    serve.add_argument("dir", type=Path, help="registry directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--shards", type=int, default=8,
        help="monitor-registry shards (ingest parallelism bound)",
    )
    serve.add_argument(
        "--max-lanes-per-shard", type=int, default=None, metavar="N",
        help="resident monitors per shard before LRU eviction",
    )
    serve.add_argument(
        "--warmup-ticks", type=int, default=12,
        help="CPI samples buffered before drift checks begin",
    )
    serve.add_argument(
        "--cooldown-ticks", type=int, default=30,
        help="silent ticks after each diagnosis",
    )
    serve.add_argument(
        "--slo-interval", type=float, default=5.0, metavar="SECONDS",
        help="burn-rate evaluation period (0 disables SLO tracking)",
    )
    serve.add_argument(
        "--blackbox", type=Path, default=None, metavar="DIR",
        help="incident bundle directory "
        "(default: <registry>/incidents; --no-blackbox disables)",
    )
    serve.add_argument(
        "--no-blackbox", action="store_true",
        help="disable the flight recorder and incident bundles",
    )

    incidents = sub.add_parser(
        "incidents",
        help="correlate committed incident bundles into platform incidents",
        description="Read the incident bundles the serve blackbox "
        "committed under an incidents/ directory, chain temporally-"
        "adjacent alarms into platform incidents, and classify each "
        "along the paper's context axes (shared-workload, shared-node, "
        "fleet-wide).",
    )
    incidents_sub = incidents.add_subparsers(
        dest="incidents_action", required=True
    )
    incidents_list = incidents_sub.add_parser(
        "list", help="one line per correlated platform incident"
    )
    incidents_list.add_argument(
        "dir", type=Path, help="incidents directory (or a registry root)"
    )
    incidents_list.add_argument(
        "--horizon", type=int, default=None, metavar="TICKS",
        help="max alarm-tick gap inside one platform incident",
    )
    incidents_list.add_argument(
        "--json", action="store_true",
        help="emit the incidents as JSON instead of text",
    )
    incidents_show = incidents_sub.add_parser(
        "show", help="full member listing of one platform incident"
    )
    incidents_show.add_argument(
        "dir", type=Path, help="incidents directory (or a registry root)"
    )
    incidents_show.add_argument(
        "incident_id", help="platform incident id (P01, P02, ...)"
    )
    incidents_show.add_argument(
        "--horizon", type=int, default=None, metavar="TICKS",
        help="max alarm-tick gap inside one platform incident",
    )
    incidents_show.add_argument(
        "--json", action="store_true",
        help="emit the incident as JSON instead of text",
    )

    replay = sub.add_parser(
        "replay",
        help="re-run detection and diagnosis from an incident bundle",
        description="Rebuild the pipeline from a committed incident "
        "bundle alone (its config, models and raw window) and assert "
        "the reproduced cause ranking, explanation bytes and drift "
        "verdicts match the originals.  Exit 1 on any divergence.",
    )
    replay.add_argument("bundle", type=Path, help="incident bundle directory")
    replay.add_argument(
        "--passes", type=int, default=2, metavar="N",
        help="independent re-inference passes (each must match)",
    )
    replay.add_argument(
        "--json", action="store_true",
        help="emit the replay result as JSON instead of text",
    )

    top = sub.add_parser(
        "top",
        help="live dashboard over a running fleet server",
        description="Poll a serve process's GET /metrics + GET /health "
        "and repaint a plain-text dashboard: lanes, ingest throughput, "
        "per-endpoint request rates and p50/p99 latency.",
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="base URL of the serve process",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between repaints",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame (no escape codes) and exit",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N repaints (default: run until ctrl-c)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the domain linter over the source tree",
        description="Static checks for the codebase's numerical and "
        "operation-context contracts (see repro.lint).",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    cluster = HadoopCluster()
    faults = []
    if args.fault:
        faults.append(
            build_fault(
                args.fault,
                FaultSpec(
                    target=args.fault_node,
                    start=args.fault_start,
                    duration=args.fault_duration,
                ),
            )
        )
    run = cluster.run(args.workload, faults=faults, seed=args.seed)
    save_run_npz(run, args.out)
    print(
        f"wrote {args.out}: workload={run.workload} "
        f"ticks={run.execution_ticks} completed={run.completed} "
        f"fault={run.fault or 'none'}"
    )
    if args.csv_dir:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        for node_id, trace in run.nodes.items():
            csv_path = args.csv_dir / f"{node_id}.csv"
            save_node_csv(trace, csv_path)
            print(f"wrote {csv_path}")
    return 0


def _trained_pipeline(
    args: argparse.Namespace, progress: object
) -> tuple[InvarNetX, OperationContext] | int:
    """Shared train-or-warm-load path of ``diagnose`` and ``explain``.

    Progress messages go to ``progress`` (stdout for ``diagnose``, stderr
    for ``explain`` so stdout stays a pure report); errors always go to
    stderr.  Returns the exit code instead of the pair on bad arguments.
    """
    normal_runs = [load_run_npz(p) for p in args.normal]
    workloads = {r.workload for r in normal_runs}
    if len(workloads) != 1:
        print(
            f"error: normal traces span multiple workloads: "
            f"{sorted(workloads)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.pop()
    first = normal_runs[0]
    if args.node not in first.nodes:
        print(
            f"error: node {args.node!r} not in trace "
            f"(has: {sorted(first.nodes)})",
            file=sys.stderr,
        )
        return 2
    ctx = OperationContext(workload, args.node, first.nodes[args.node].ip)
    if args.store is not None:
        registry = DirectoryStore(args.store)
        pipe = InvarNetX.attached_to(registry)
    else:
        registry = None
        pipe = InvarNetX()
    if pipe.is_trained(ctx):
        assert registry is not None  # only a store can pre-train a context
        print(
            f"warm start: {ctx} loaded from {args.store} "
            f"(revision {registry.revision(ctx.key())})",
            file=progress,
        )
    else:
        print(
            f"training {ctx} on {len(normal_runs)} normal runs...",
            file=progress,
        )
        pipe.train_from_runs(ctx, normal_runs)
    known = set(pipe.known_problems(ctx))
    for spec in args.signature:
        problem, _, trace_path = spec.partition("=")
        if not trace_path:
            print(
                f"error: bad --signature {spec!r}; "
                "expected PROBLEM=TRACE.npz",
                file=sys.stderr,
            )
            return 2
        if problem in known:
            print(
                f"signature for {problem!r} already in the store",
                file=progress,
            )
            continue
        run = load_run_npz(trace_path)
        pipe.train_signature_from_run(ctx, problem, run)
        print(
            f"learned signature for {problem!r} from {trace_path}",
            file=progress,
        )
    return pipe, ctx


def _cmd_diagnose(args: argparse.Namespace) -> int:
    trained = _trained_pipeline(args, progress=sys.stdout)
    if isinstance(trained, int):
        return trained
    pipe, ctx = trained
    incident = load_run_npz(args.incident)
    result = pipe.diagnose_run(ctx, incident, top_k=args.top_k)
    if not result.detected:
        print("no performance problem detected")
        return 0
    print(
        f"performance problem detected at tick "
        f"{result.anomaly.first_problem_tick()}"
    )
    assert result.inference is not None
    if result.inference.causes:
        print("ranked root causes:")
        for cause in result.inference.causes:
            print(f"  {cause.problem:14s} similarity={cause.score:.3f}")
    if result.root_cause is None:
        print("no stored signature is similar enough; violated pairs:")
        for a, b in result.inference.hints[:10]:
            print(f"  {a} ~ {b}")
    else:
        print(f"verdict: {result.root_cause}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.explain import explain_run

    trained = _trained_pipeline(args, progress=sys.stderr)
    if isinstance(trained, int):
        return trained
    pipe, ctx = trained
    incident = load_run_npz(args.incident)
    explanation = explain_run(pipe, ctx, incident, top_k=args.top_k)
    if explanation is None:
        print("no performance problem detected")
        return 0
    if args.json:
        json.dump(explanation.to_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(explanation.render_text())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval import experiments as ex
    from repro.eval import reporting as rp

    cluster = HadoopCluster()
    store = DirectoryStore(args.store) if args.store is not None else None
    registry = None
    if args.registry is not None:
        from repro.eval.registry import RunRegistry

        registry = RunRegistry(args.registry)

    def registry_exhibit(name: str, title: str | None = None) -> str:
        """One diagnosis exhibit executed through the run registry.

        A spec fingerprint already committed under the registry is
        reused verbatim (its stored report is printed); otherwise the
        campaign runs, commits and indexes before formatting.
        """
        from repro.eval.registry import builtin_spec

        assert registry is not None
        spec = builtin_spec(name, test_reps=args.reps)
        run = registry.execute(
            spec,
            cluster=cluster,
            store=store if name != "fig9-10" else None,
        )
        if run.skipped:
            print(
                f"... reusing committed run {run.run_id}", file=sys.stderr
            )
            from repro.eval.registry.run import REPORT_MD

            return (run.run_dir / REPORT_MD).read_text().rstrip("\n")
        print(f"... committed run {run.run_id}", file=sys.stderr)
        if name == "fig9-10":
            return rp.format_comparison(
                {label: reps[0] for label, reps in run.results.items()}
            )
        assert title is not None
        return rp.format_diagnosis(run.results["InvarNet-X"][0], title)

    producers = {
        "fig2": lambda: rp.format_fig2(ex.run_fig2_cpi_disturbance(cluster)),
        "fig4": lambda: rp.format_fig4(
            ex.run_fig4_cpi_kpi(cluster, reps=max(args.reps, 10))
        ),
        "fig5": lambda: rp.format_fig5(ex.run_fig5_residuals(cluster)),
        "fig6": lambda: rp.format_fig6(ex.run_fig6_threshold_rules(cluster)),
        "fig7": lambda: (
            registry_exhibit("fig7", "Fig. 7 — TPC-DS")
            if registry is not None
            else rp.format_diagnosis(
                ex.run_fig7_tpcds_diagnosis(
                    cluster, test_reps=args.reps, store=store
                ),
                "Fig. 7 — TPC-DS",
            )
        ),
        "fig8": lambda: (
            registry_exhibit("fig8", "Fig. 8 — Wordcount")
            if registry is not None
            else rp.format_diagnosis(
                ex.run_fig8_wordcount_diagnosis(
                    cluster, test_reps=args.reps, store=store
                ),
                "Fig. 8 — Wordcount",
            )
        ),
        "fig9-10": lambda: (
            registry_exhibit("fig9-10")
            if registry is not None
            else rp.format_comparison(
                ex.run_fig9_fig10_comparison(cluster, test_reps=args.reps)
            )
        ),
        "table1": lambda: rp.format_table1(ex.run_table1_overhead(cluster)),
    }
    names = list(producers) if args.name == "all" else [args.name]
    sections: list[str] = []
    for name in names:
        if args.name == "all":
            print(f"... running {name}", file=sys.stderr)
        sections.append(producers[name]())
    report = "\n\n".join(sections)
    if args.name == "all":
        report = (
            "InvarNet-X reproduction report (BPOE/VLDB 2014)\n"
            f"held-out runs per fault: {args.reps}\n\n" + report
        )
    print(report)
    if args.out is not None:
        args.out.write_text(report + "\n")
        print(f"\nwrote {args.out}", file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    if not (args.dir / MANIFEST_NAME).exists():
        print(f"error: no model registry at {args.dir}", file=sys.stderr)
        return 2
    registry = DirectoryStore(args.dir)
    if args.store_action == "list":
        entries = registry.entries()
        if not entries:
            print("registry is empty")
            return 0
        print(f"{'workload':<16s} {'node':<10s} {'ip':<14s} rev  artifacts")
        for key in sorted(entries):
            entry = entries[key]
            artifacts = ", ".join(entry.get("artifacts", [])) or "-"
            print(
                f"{key[0]:<16s} {key[1]:<10s} "
                f"{entry.get('ip', '') or '-':<14s} "
                f"{entry.get('revision', 0):<4d} {artifacts}"
            )
        return 0
    # inspect
    key = (args.workload, args.node)
    models = registry.peek(key)
    if models is None:
        print(
            f"error: context {args.workload}@{args.node} not in the "
            f"registry (try: invarnetx store list {args.dir})",
            file=sys.stderr,
        )
        return 2
    print(f"context: {args.workload}@{args.node}")
    print(f"revision: {registry.revision(key)}")
    detector = models.detector
    if detector is not None and detector.model is not None:
        model = detector.model
        assert detector.threshold is not None
        print(
            f"performance model: ARIMA{tuple(model.order)} "
            f"intercept={model.intercept:.6g} sigma2={model.sigma2:.6g}"
        )
        print(
            f"threshold: {detector.threshold.rule.value} "
            f"upper={detector.threshold.upper:.6g} "
            f"lower={detector.threshold.lower:.6g}"
        )
    else:
        print("performance model: (none)")
    if models.invariants is not None:
        print(f"invariants: {len(models.invariants.pairs)} pairs")
    else:
        print("invariants: (none)")
    if len(models.database):
        print(f"signatures: {len(models.database)}")
        for problem in models.database.problems:
            count = sum(
                1 for s in models.database.signatures if s.problem == problem
            )
            print(f"  {problem} x{count}")
    else:
        print("signatures: (none)")
    if registry.ledger_path.exists():
        from repro.obs.health import score_context

        ledger = registry.ledger()
        ctx_health = score_context(key, models, ledger)
        warns = [c.name for c in ctx_health.checks if c.status == "warn"]
        print(
            f"health: {ctx_health.status} score={ctx_health.score:.2f}"
            + (f" warn: {', '.join(warns)}" if warns else "")
        )
        last = ledger.last(context=key)
        if last is not None:
            print(
                f"last ledger entry: seq={last.get('seq', 0)} "
                f"kind={last['kind']} {_describe_entry(last)}"
            )
    return 0


_LEDGER_DETAIL_FIELDS = (
    "runs", "invariants", "problem", "violated", "detected", "top_cause",
    "top_score", "cause", "bundle", "precision", "recall", "verdict",
    "faulty_nodes",
)


def _describe_entry(entry: dict) -> str:
    """One-line ``key=value`` summary of a ledger entry's salient fields."""
    parts = []
    for name in _LEDGER_DETAIL_FIELDS:
        if name in entry and entry[name] is not None:
            value = entry[name]
            if isinstance(value, float):
                value = f"{value:.3f}"
            elif isinstance(value, list):
                value = ",".join(str(v) for v in value) or "-"
            parts.append(f"{name}={value}")
    return " ".join(parts)


def _registry_ledger(directory: Path):
    """The (registry, ledger) pair for a CLI path, or an exit code."""
    if not (directory / MANIFEST_NAME).exists():
        print(f"error: no model registry at {directory}", file=sys.stderr)
        return 2
    registry = DirectoryStore(directory)
    return registry, registry.ledger()


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.obs.health import HealthThresholds, score_store

    pair = _registry_ledger(args.dir)
    if isinstance(pair, int):
        return pair
    registry, ledger = pair
    thresholds = HealthThresholds().overridden(
        fragility_margin=args.fragility_margin,
        ambiguity_floor=args.ambiguity_floor,
        stale_runs=args.stale_runs,
        drift_ratio=args.drift_ratio,
    )
    # A registry a serve blackbox has written to has a colocated
    # incidents/ directory; fold its correlation counters into the
    # fleet section of the report when present.
    incidents_dir = args.dir / "incidents"
    incident_summary = None
    if incidents_dir.is_dir():
        from repro.serve.incidents import scan_bundles, summarize

        incident_summary = summarize(scan_bundles(incidents_dir))
    report = score_store(
        registry,
        ledger=ledger,
        thresholds=thresholds,
        incident_summary=incident_summary,
    )
    if args.json:
        sys.stdout.write(canonical_json(report.to_json()))
    else:
        print(report.render_text())
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    pair = _registry_ledger(args.dir)
    if isinstance(pair, int):
        return pair
    _, ledger = pair
    entries = ledger.entries(kind=getattr(args, "kind", None))
    if args.ledger_action == "list":
        if not entries:
            print("ledger is empty")
            return 0
        print(f"{'seq':>5s} {'kind':<17s} {'context':<26s} detail")
        for entry in entries:
            context = entry.get("context")
            label = f"{context[0]}@{context[1]}" if context else "-"
            print(
                f"{entry.get('seq', 0):>5d} {entry['kind']:<17s} "
                f"{label:<26s} {_describe_entry(entry)}"
            )
        if ledger.skipped:
            print(
                f"({ledger.skipped} unparseable line(s) skipped)",
                file=sys.stderr,
            )
        return 0
    # show
    if not entries:
        print("error: ledger is empty", file=sys.stderr)
        return 2
    if args.seq is None:
        entry = entries[-1]
    else:
        matching = [e for e in entries if e.get("seq") == args.seq]
        if not matching:
            print(f"error: no entry with seq={args.seq}", file=sys.stderr)
            return 2
        entry = matching[-1]
    sys.stdout.write(canonical_json(entry))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.eval.registry import (
        CampaignSpec,
        RunRegistry,
        builtin_spec,
        compare_cohorts,
    )

    registry = RunRegistry(args.dir)

    if args.runs_action == "run":
        try:
            if args.spec_file is not None:
                spec = CampaignSpec.from_json(
                    json.loads(args.spec_file.read_text(encoding="utf-8"))
                )
                overrides = {
                    name: value
                    for name, value in (
                        ("test_reps", args.reps),
                        ("base_seed", args.seed),
                        ("node", args.node),
                        ("repetitions", args.repetitions),
                    )
                    if value is not None
                }
                if overrides:
                    spec = dataclasses.replace(spec, **overrides)
            else:
                spec = builtin_spec(
                    args.spec,
                    test_reps=args.reps,
                    base_seed=args.seed,
                    node=args.node,
                    repetitions=args.repetitions,
                )
        except (ValueError, json.JSONDecodeError, KeyError) as exc:
            print(f"error: bad campaign spec: {exc}", file=sys.stderr)
            return 2
        store = DirectoryStore(args.store) if args.store else None
        run = registry.execute(spec, store=store, force=args.force)
        if run.skipped:
            print(
                f"run {run.run_id} already committed at {run.run_dir} "
                "(--force re-runs)"
            )
        else:
            print(f"committed {run.run_id} -> {run.run_dir}")
        for row in run.manifest["table"]:
            print(
                f"  {row['system']:<16s} rep {row['repetition']}: "
                f"precision={row['precision']:.4f} "
                f"recall={row['recall']:.4f} "
                f"({row['detected']}/{row['outcomes']} detected)"
            )
        return 0

    if args.runs_action == "list":
        if args.rebuild:
            count = registry.rebuild_index()
            print(
                f"rebuilt index from {count} committed run(s)",
                file=sys.stderr,
            )
        rows = registry.index.runs(spec_name=args.spec)
        if not rows:
            print("no indexed runs")
            return 0
        print(
            f"{'run_id':<32s} {'spec':<14s} {'workload':<10s} "
            f"{'systems':<28s} reps"
        )
        for row in rows:
            print(
                f"{row['run_id']:<32s} {row['spec_name']:<14s} "
                f"{row['workload']:<10s} {row['systems']:<28s} "
                f"{row['repetitions']}"
            )
        return 0

    if args.runs_action == "show":
        manifest = registry.manifest(args.run_id)
        if manifest is None:
            print(
                f"error: no committed run {args.run_id!r} under "
                f"{registry.runs_dir}",
                file=sys.stderr,
            )
            return 2
        if args.json:
            sys.stdout.write(canonical_json(manifest))
            return 0
        from repro.eval.registry.run import REPORT_MD

        report_path = registry.run_dir(args.run_id) / REPORT_MD
        if report_path.exists():
            sys.stdout.write(report_path.read_text(encoding="utf-8"))
        else:
            from repro.eval.registry.run import render_report_md

            sys.stdout.write(render_report_md(manifest))
        return 0

    # compare
    try:
        report = compare_cohorts(
            registry.index, args.system_a, args.system_b,
            spec_name=args.spec,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(canonical_json(report.to_json()))
    else:
        sys.stdout.write(report.render_text())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.obs.slo import SLOTracker
    from repro.serve import FleetMonitor, build_server

    pair = _registry_ledger(args.dir)
    if isinstance(pair, int):
        return pair
    registry, ledger = pair
    # The serving surface *is* the observability story: RED metrics,
    # /metrics and the SLO tracker all need collection on.
    obs.configure(enabled=True)
    pipeline = InvarNetX.attached_to(registry)
    blackbox_dir = None
    if not args.no_blackbox:
        blackbox_dir = (
            args.blackbox if args.blackbox is not None
            else args.dir / "incidents"
        )
    fleet = FleetMonitor(
        pipeline,
        shards=args.shards,
        max_lanes_per_shard=args.max_lanes_per_shard,
        warmup_ticks=args.warmup_ticks,
        cooldown_ticks=args.cooldown_ticks,
        blackbox_dir=blackbox_dir,
    )
    server = build_server(fleet, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    stop_slo = threading.Event()
    slo_thread = None
    if args.slo_interval > 0:
        tracker = SLOTracker(ledger=ledger)

        def _tick_slo() -> None:
            while not stop_slo.wait(args.slo_interval):
                tracker.observe()

        slo_thread = threading.Thread(
            target=_tick_slo, name="invarnetx-slo", daemon=True
        )
        slo_thread.start()
    print(
        f"serving {len(registry.keys())} trained context(s) "
        f"on http://{host}:{port} (ctrl-c to stop)",
        file=sys.stderr,
    )
    if blackbox_dir is not None:
        print(f"incident bundles -> {blackbox_dir}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        stop_slo.set()
        if slo_thread is not None:
            slo_thread.join(timeout=5)
        server.server_close()
    return 0


def _incidents_root(path: Path) -> Path:
    """Accept either an incidents directory or a registry root.

    A directory that itself contains committed bundles wins; otherwise
    a nested ``incidents/`` (the serve default layout) is used.
    """
    if next(committed_dirs(path), None) is not None:
        return path
    nested = path / "incidents"
    return nested if nested.is_dir() else path


def _cmd_incidents(args: argparse.Namespace) -> int:
    from repro.serve.incidents import (
        DEFAULT_HORIZON,
        correlate,
        render_incident_list,
        render_incident_show,
        scan_bundles,
    )

    horizon = args.horizon if args.horizon is not None else DEFAULT_HORIZON
    records = scan_bundles(_incidents_root(args.dir))
    incidents = correlate(records, horizon=horizon)
    if args.incidents_action == "list":
        if args.json:
            sys.stdout.write(
                canonical_json([i.to_json() for i in incidents])
            )
        else:
            print(render_incident_list(incidents))
        return 0
    # show
    matching = [i for i in incidents if i.incident_id == args.incident_id]
    if not matching:
        print(
            f"error: no platform incident {args.incident_id!r} "
            f"({len(incidents)} correlated at horizon {horizon})",
            file=sys.stderr,
        )
        return 2
    if args.json:
        sys.stdout.write(canonical_json(matching[0].to_json()))
    else:
        print(render_incident_show(matching[0]))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.blackbox import replay_bundle

    try:
        result = replay_bundle(args.bundle, passes=args.passes)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(canonical_json(result.to_json()))
    else:
        print(result.render_text())
    return 0 if result.ok else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import HttpSource, TopApp

    app = TopApp(HttpSource(args.url), interval=args.interval)
    try:
        app.run(
            sys.stdout.write, once=args.once, iterations=args.iterations
        )
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.trace or args.trace_out is not None or args.log_level is not None:
        obs.configure(enabled=True, log_level=args.log_level)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "health":
            return _cmd_health(args)
        if args.command == "ledger":
            return _cmd_ledger(args)
        if args.command == "runs":
            return _cmd_runs(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "incidents":
            return _cmd_incidents(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "lint":
            from repro.lint.cli import run_lint

            return run_lint(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    finally:
        if args.trace:
            rendered = obs.render_trace()
            if rendered:
                print(rendered, file=sys.stderr)
        if args.trace_out is not None:
            written = obs.export_chrome_trace(args.trace_out)
            print(f"wrote trace to {written}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
