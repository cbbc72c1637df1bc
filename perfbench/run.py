"""InvarNet-X benchmark: one command for every workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train_diagnose --seed 1 \
        --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each one is there):

``train_diagnose``
    train_from_runs + train_signature_from_run per context, then
    diagnose_run on held-out faulty runs (perfbench/train_diagnose.py).
``fleet_http``
    the real ``invarnetx serve`` in a child process, open-loop load over
    two keep-alive connections (one sample per lane per request), first
    with spliced faults and /explain after each diagnosis, then
    fault-free; a closed-loop saturation phase and an offered-rate
    ladder (perfbench/fleet_http.py).

The end-to-end metrics have one meaning per workload:

``setup_s``
    train_diagnose: input simulation, median of 3; fleet_http:
    simulation and training (median of 3) plus the server start and
    warm-up.
``peak_rss_mb``
    this process; on fleet_http, the server child.
``op_ms_p50``
    train_diagnose: one diagnose_run; fleet_http: one POST /ingest of
    the fault-free steady phase, from its due time.  Their tails
    (diagnose_ms_p90, ingest_ms_p95) are in the table, not bounded: on
    the shared host they spread too much from run to run.
``throughput_per_s``
    train_diagnose: diagnoses per busy second; fleet_http: the median
    burst of the closed-loop saturation phase, each connection's
    context-ticks over the time it was busy, summed.

Times and rates of the timed phase are normalised for the speed of the
shared host (common.HostSpeed: a fixed loop timed between operations
while the program is idle); ``setup_s`` is as measured.  The table
prints each value normalised and as measured.

Each run also prints a table of the workload's own metrics with sample
counts (train_context_s_p50, top1_accuracy, diagnosis_ms_p50,
explain_ms_p50, failed_ratio ...).  ``--trace 1`` prints the per-layer
metrics instead (perfbench/tracing.py).  The last line of standard
output is the JSON result; the exit code is 0 unless the run could not
produce one.
"""

from __future__ import annotations

import argparse
import sys
import traceback

WORKLOADS = ("train_diagnose", "fleet_http")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import common

    try:
        common.import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    module = __import__(args.workload)
    try:
        module.run(args.seed, args.seconds, bool(args.trace))
    except common.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
