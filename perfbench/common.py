"""Helpers shared by the workloads: statistics, result lines, scratch space."""

from __future__ import annotations

import bisect
import functools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs from (parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: Everything a run writes lives here; it is removed when the run ends.
WORK_ROOT = ROOT / ".perfbench-work"

#: End-to-end metrics every workload reports (see BENCHMARK.json).
EXPECTED = ["setup_s", "peak_rss_mb", "op_ms_p50", "throughput_per_s"]

#: Latency limit of the service's default ingest SLO (seconds); a reply
#: slower than this counts as a failed operation.
LATENCY_LIMIT_S = 0.5

#: Seconds :func:`calibration_loop` takes on the reference host.
REFERENCE_LOOP_S = 0.0012

#: Calls of :func:`calibration_loop` in one host-speed sample (about
#: 10-15 ms).  A sample must outlast a scheduler time slice (a few ms):
#: one call mostly runs inside a single slice, so it reads how fast the
#: core is while the benchmark holds it, but not how much of the core the
#: benchmark gets when other tenants compete for it, which is what slows
#: an operation of several milliseconds.  In two sets of six fleet_http
#: runs, each set under idle, steady and bursty competing load, one call
#: per sample left 30% and 25% between the quartiles of the normalised
#: ingest latency p50 (28% and 33% for p95); in the second set ten calls
#: left 10% (6%).
CALIBRATION_CALLS = 10


class BenchmarkError(RuntimeError):
    """An output check failed; the run reports ``correct: false``."""


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import the
    package, refusing any other copy of it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def work_dir(name: str) -> Path:
    """A fresh per-process scratch directory under :data:`WORK_ROOT`."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1) of ``values``."""
    data = sorted(values)
    if not data:
        raise BenchmarkError("no samples for a quantile")
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def pingpong(position: int, length: int) -> int:
    """Index of step ``position`` of a walk that runs forwards and back
    over ``length`` samples: a reversed stationary trace is still a normal
    trace, and the walk never jumps between runs, so one simulated run
    feeds a stream of any length."""
    period = 2 * length - 2
    pos = position % period
    return pos if pos < length else period - pos


def median(values: list[float]) -> float:
    if not values:
        raise BenchmarkError("no samples for a median")
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live child process (MiB)."""
    status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


@functools.lru_cache(maxsize=None)
def _calibration_data():
    rng = random.Random(0)
    values = [float(i) for i in range(100_000)]
    order = [rng.randrange(len(values)) for _ in range(4000)]
    table = {i: {"a": i, "b": [i, i, i]} for i in range(5000)}
    return values, order, table


def calibration_loop() -> None:
    """A fixed slice of the kinds of work the program does (about 1.2 ms):
    dict and list walks, scattered reads from a few MB of Python floats,
    small NumPy products.  On the shared host its slow-to-fast ratio was
    close to the program's (1.75 against 1.69 for a fleet ingest batch)."""
    import numpy as np

    values, order, table = _calibration_data()
    total = 0.0
    for _, value in table.items():
        total += value["a"] + value["b"][1]
    for i in order:
        total += values[i]
    a = np.arange(1664.0).reshape(64, 26)
    for _ in range(10):
        (a.T @ a).sum()
        a.mean(axis=0)


class HostSpeed:
    """How fast the shared host runs, from a fixed loop timed as we go.

    The machines this runs on share cores with other tenants: their speed
    switches between a fast and a slow state (about 1.7x apart) every
    second or so, and drifts over minutes.  In its timed phase a run
    times the loop between consecutive operations, while the program is
    idle, and scales each duration by the reference loop time over the
    loop time interpolated at the duration's midpoint, which for an
    operation bracketed by two samples is their mean (rates by the
    inverse).  Runs at slow and fast moments then report closer figures.
    Set-up parts run for seconds inside the program, where no sample can
    be taken, so ``setup_s`` is reported as measured.  The table prints
    every figure both ways.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.loops: list[float] = []

    def sample(self) -> None:
        """Time :data:`CALIBRATION_CALLS` calls of the loop; the time of
        one call (their mean) is recorded at the sample's midpoint."""
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            calibration_loop()
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.loops.append((t1 - t0) / CALIBRATION_CALLS)

    def scale_at(self, stamp: float) -> float:
        """Reference over the loop time at ``stamp`` (linear between the
        samples either side, the nearest one outside them)."""
        i = bisect.bisect_left(self.stamps, stamp)
        if i == 0:
            loop = self.loops[0]
        elif i == len(self.stamps):
            loop = self.loops[-1]
        else:
            t0, t1 = self.stamps[i - 1], self.stamps[i]
            w = (stamp - t0) / (t1 - t0)
            loop = self.loops[i - 1] * (1 - w) + self.loops[i] * w
        return REFERENCE_LOOP_S / loop

    def normalise(self, durations: list[float],
                  starts: list[float]) -> list[float]:
        """Each duration, started at the matching stamp, scaled to the
        reference host speed."""
        return [d * self.scale_at(t + d / 2) for d, t in zip(durations, starts)]


class Report:
    """Collects metrics and prints the table and the final result line."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.host = HostSpeed()
        self.metrics: dict[str, dict] = {}
        self.extra: dict[str, dict] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(
        self, name: str, raw: float, unit: str, samples: int | None = None,
        *, value: float | None = None, extra: bool = False,
    ) -> None:
        """Record one metric: ``raw`` as measured, ``value`` normalised
        for host speed (None when the metric does not depend on it);
        ``extra`` ones go to the table only."""
        entry = {
            "raw": float(raw),
            "value": float(raw if value is None else value),
            "unit": unit,
            "samples": samples,
        }
        (self.extra if extra else self.metrics)[name] = entry

    def note(self, text: str) -> None:
        self.notes.append(text)

    def emit(self, correct: bool, expected: list[str]) -> None:
        """Print the human-readable table, then the JSON result line with
        exactly the ``expected`` metrics."""
        missing = [m for m in expected if m not in self.metrics]
        if missing:
            raise BenchmarkError(f"metrics not measured: {missing}")
        print(f"# workload {self.workload}: attempted={self.attempted} "
              f"failed={self.failed} correct={correct}")
        print(f"# {len(self.host.loops)} host-speed samples, loop "
              f"{1000 * min(self.host.loops, default=0):.2f}-"
              f"{1000 * max(self.host.loops, default=0):.2f} ms; columns: "
              f"normalised value, as measured")
        for name, entry in list(self.metrics.items()) + list(self.extra.items()):
            samples = entry["samples"]
            count = "" if samples is None else f"  (n={samples})"
            print(f"#   {name:<36} {entry['value']:>12.6g} "
                  f"{entry['raw']:>12.6g} {entry['unit']}{count}")
        for text in self.notes:
            print(f"# note: {text}")
        result = {
            "correct": bool(correct),
            "attempted": int(max(self.attempted, 1)),
            "failed": int(self.failed),
            "metrics": {
                name: {
                    "value": self.metrics[name]["value"],
                    "unit": self.metrics[name]["unit"],
                }
                for name in expected
            },
        }
        sys.stdout.flush()
        print(json.dumps(result))
        sys.stdout.flush()


def emit_layers(report: Report, layers: dict, correct: bool) -> None:
    """Print a traced run: per-layer metrics plus what was not measured."""
    import tracing

    for name, reason in tracing.UNMEASURED.items():
        report.note(f"not measured: {name}: {reason}")
    end_to_end = dict(report.metrics)
    report.metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        report.add(name, layers.get(name, 0.0), unit)
    report.note("traced end-to-end figures (against an untraced run they "
                "give the tracing overhead): " + ", ".join(
                    f"{k}={v['value']:.6g}{v['unit']}"
                    for k, v in end_to_end.items()))
    report.emit(correct, list(tracing.LAYER_METRICS))
