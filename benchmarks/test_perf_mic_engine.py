"""Performance benchmark: batched MIC engine vs the frozen reference.

Not part of tier-1 (``testpaths = ["tests"]``); run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_mic_engine.py -q -s

The baseline is :func:`repro.stats._mic_reference.mic_matrix_reference`, a
frozen snapshot of the pre-engine implementation (original Python-loop
equipartition/clumps and log-based entropy gains) that carries only the
tie-collapse keying fix — so the timing delta isolates the engine work and
the value delta isolates floating-point reassociation, which must stay
within 1e-9.

The full benchmark uses the PR's acceptance window — (600, 26), the shape
of a long collectl trace over the paper's 26-metric vocabulary — and
asserts the >= 4x speedup.  The ``smoke`` tests are down-scaled versions
for CI: a (150, 8) window and the pipeline's (30, 26) abnormal window.
They check direction (engine no slower than baseline) and equivalence
without pinning a ratio that load-sensitive runners would flake on; the
regression guard compares their recorded ``speedup`` with the committed
one.
"""

import time

import numpy as np

from repro.stats._mic_reference import mic_matrix_reference
from repro.stats.micfast import mic_matrix_fast

#: Required full-benchmark speedup (PR acceptance criterion).
REQUIRED_SPEEDUP = 4.0
#: Engine-vs-reference agreement bound.
TOLERANCE = 1e-9


def _window(n, m, seed=7):
    """A telemetry-like window: correlated metrics + tie-heavy columns.

    Mixing a low-rank basis produces the coupled-metric structure real
    collectl windows have; two columns are made tie-heavy (a three-level
    categorical and a coarse quantisation) so the benchmark also exercises
    the collapsed-equipartition paths the tie fix touches.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, max(4, m // 4)))
    mix = rng.normal(size=(base.shape[1], m))
    data = base @ mix + 0.3 * rng.normal(size=(n, m))
    if m > 5:
        data[:, 5] = rng.choice([0.0, 1.0, 2.0], size=n, p=[0.7, 0.2, 0.1])
    if m > 11:
        data[:, 11] = np.round(data[:, 11])
    return data


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _best_of_alternating(data, rounds):
    """Engine and reference runs alternate; each side is timed as the
    best of ``rounds``, so a single timing taken while the host is
    briefly slow does not decide the comparison.

    Returns:
        ``(engine matrix, engine seconds, reference matrix, reference
        seconds)``.
    """
    fast_t = ref_t = float("inf")
    for _ in range(rounds):
        fast, t = _timed(mic_matrix_fast, data)
        fast_t = min(fast_t, t)
        ref, t = _timed(mic_matrix_reference, data)
        ref_t = min(ref_t, t)
    return fast, fast_t, ref, ref_t


class TestMicEngineBenchmark:
    def test_smoke_engine_not_slower_and_equivalent(self, bench_record):
        """CI-sized check: equivalence plus a direction-only timing
        bound, each side the best of 5 alternating runs."""
        data = _window(150, 8)
        fast, fast_t, ref, ref_t = _best_of_alternating(data, 5)
        diff = float(np.max(np.abs(fast - ref)))
        print(
            f"\n[smoke] engine {fast_t:.3f}s  reference {ref_t:.3f}s  "
            f"speedup {ref_t / fast_t:.2f}x  max|diff| {diff:.3e}"
        )
        bench_record(
            "mic_engine",
            "smoke_150x8",
            engine_seconds=round(fast_t, 6),
            reference_seconds=round(ref_t, 6),
            speedup=round(ref_t / fast_t, 3),
            max_abs_diff=diff,
        )
        assert diff <= TOLERANCE
        assert fast_t <= ref_t

    def test_smoke_window_30x26_pipeline_shape(self, bench_record):
        """The pipeline's abnormal-window shape: 30 ticks x 26 metrics.

        Cause inference scores exactly one such matrix per diagnosis, so
        this is the shape that sets online diagnosis latency.  Engine and
        reference runs alternate, and each side is timed as the best of
        7: at ~10 ms per matrix a single timing, or the best of a few
        taken while the host is briefly slow, is mostly scheduler noise.
        """
        data = _window(30, 26)
        fast, fast_t, ref, ref_t = _best_of_alternating(data, 7)
        diff = float(np.max(np.abs(fast - ref)))
        print(
            f"\n[smoke] (30, 26): engine {fast_t * 1e3:.1f}ms  "
            f"reference {ref_t * 1e3:.1f}ms  speedup {ref_t / fast_t:.2f}x  "
            f"max|diff| {diff:.3e}"
        )
        bench_record(
            "mic_engine",
            "smoke_window_30x26",
            engine_seconds=round(fast_t, 6),
            reference_seconds=round(ref_t, 6),
            speedup=round(ref_t / fast_t, 3),
            max_abs_diff=diff,
        )
        assert diff <= TOLERANCE
        assert fast_t <= ref_t

    def test_full_acceptance_window_speedup(self, bench_record):
        """The PR's acceptance bar on the (600, 26) window."""
        data = _window(600, 26)
        fast, fast_t = _timed(mic_matrix_fast, data)
        ref, ref_t = _timed(mic_matrix_reference, data)
        speedup = ref_t / fast_t
        diff = float(np.max(np.abs(fast - ref)))
        print(
            f"\n[full] (600, 26): engine {fast_t:.2f}s  "
            f"reference {ref_t:.2f}s  speedup {speedup:.2f}x  "
            f"max|diff| {diff:.3e}"
        )
        bench_record(
            "mic_engine",
            "full_600x26",
            engine_seconds=round(fast_t, 6),
            reference_seconds=round(ref_t, 6),
            speedup=round(speedup, 3),
            max_abs_diff=diff,
            required_speedup=REQUIRED_SPEEDUP,
        )
        assert diff <= TOLERANCE
        assert speedup >= REQUIRED_SPEEDUP, (
            f"engine speedup {speedup:.2f}x below the required "
            f"{REQUIRED_SPEEDUP}x on the (600, 26) acceptance window"
        )
