"""Association matrices on the batched MIC kernel.

Computing an association matrix the naive way pays the full MINE cost —
argsort, y-axis equipartition family, clump construction, dynamic
programme — separately for every one of the M(M-1)/2 metric pairs.  This
module hands every pair of sharable columns to the batched kernel of
:mod:`repro.stats.mic` in one call: each column's precompute is built
once, and the per-pair work runs as array operations over chunks of
(pair x grid) items.  Two orthogonal accelerators sit on top:

- an optional ``concurrent.futures`` process pool over the pair list
  (``max_workers``), with an automatic serial fallback when a pool cannot
  be created — results are identical either way, each worker runs the
  same kernel on its own slice of pairs;
- a content-hash LRU cache of whole association matrices
  (:class:`AssociationCache`), so an online monitor re-scoring an
  unchanged window, or a batch pipeline revisiting a run, never recomputes
  an identical input.

Equivalence contract: for every pair, the engine returns *exactly* the
value of :func:`repro.stats.mic.mic` on the two columns.  Pairs with a
non-sharable member — a column with NaNs (masking is pairwise), a
constant column, or fewer than 4 samples — are scored by the scalar
:func:`~repro.stats.mic.mic`, which runs the same kernel on the masked
two-column window.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import repro.obs as obs
from repro.stats.mic import MICParameters, _DEFAULT_PARAMS, _mic_pairs, mic

__all__ = [
    "mic_matrix_fast",
    "cached_mic_matrix",
    "resolve_workers",
    "AssociationCache",
    "association_cache",
    "clear_association_cache",
]

#: Below this many pairs the pool's start-up cost dwarfs the work.
_MIN_PARALLEL_PAIRS = 16

_log = obs.get_logger("stats.micfast")


def resolve_workers(max_workers: int | None) -> int:
    """Normalise the ``max_workers`` knob to a concrete worker count.

    ``None`` means serial (1 worker, no pool), ``0`` means one worker per
    CPU, and a positive integer is used as-is.  Negative values are an
    error.
    """
    if max_workers is None:
        return 1
    workers = int(max_workers)
    if workers < 0:
        raise ValueError(f"max_workers must be >= 0, got {max_workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _sharable_columns(arr: np.ndarray) -> np.ndarray:
    """Mask of the columns the batched kernel can score together.

    A column is *sharable* when it is all finite (so the pairwise NaN
    mask never fires), non-constant, and the window has at least 4
    samples.  Pairs with a non-sharable member go through the scalar
    :func:`~repro.stats.mic.mic`, which masks NaNs pairwise and
    short-circuits constants to 0.0.
    """
    n, m = arr.shape
    sharable = np.zeros(m, dtype=bool)
    if n >= 4 and m:
        finite = np.isfinite(arr).all(axis=0)
        if finite.any():
            sharable[finite] = np.ptp(arr[:, finite], axis=0) > 0
    return sharable


def _score_pairs(
    arr: np.ndarray,
    params: MICParameters,
    pairs: list[tuple[int, int]],
) -> list[tuple[int, int, float]]:
    """MIC of each pair: sharable pairs in one batched kernel call."""
    sharable = _sharable_columns(arr)
    batched = [(i, j) for i, j in pairs if sharable[i] and sharable[j]]
    scores = dict(zip(batched, _mic_pairs(arr, batched, params).tolist()))
    for i, j in pairs:
        if (i, j) not in scores:
            scores[i, j] = mic(arr[:, i], arr[:, j], params)
    return [(i, j, scores[i, j]) for i, j in pairs]


# Per-process state of pool workers, set once by the pool initializer.
_WORKER_WINDOW: tuple[np.ndarray, MICParameters] | None = None


def _pool_init(arr: np.ndarray, params: MICParameters) -> None:
    global _WORKER_WINDOW
    _WORKER_WINDOW = (arr, params)


def _pool_chunk(
    pairs: list[tuple[int, int]],
) -> list[tuple[int, int, float]]:
    if _WORKER_WINDOW is None:
        raise RuntimeError("MIC pool worker used before initialisation")
    arr, params = _WORKER_WINDOW
    return _score_pairs(arr, params, pairs)


def _chunk_pairs(
    pairs: list[tuple[int, int]], workers: int
) -> list[list[tuple[int, int]]]:
    """One strided slice of pairs per worker.

    Each chunk re-prepares the columns its pairs use, and a strided slice
    touches nearly all of them, so more chunks than workers would only
    repeat that precompute; the batched kernel leaves no per-pair
    imbalance to spread.
    """
    n_chunks = max(1, min(len(pairs), workers))
    return [pairs[c::n_chunks] for c in range(n_chunks)]


def _parallel_scores(
    arr: np.ndarray,
    params: MICParameters,
    pairs: list[tuple[int, int]],
    workers: int,
) -> list[tuple[int, int, float]] | None:
    """Score pairs on a process pool; None signals 'fall back to serial'."""
    chunks = _chunk_pairs(pairs, workers)
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(arr, params),
        ) as pool:
            chunk_results = list(pool.map(_pool_chunk, chunks))
    except (OSError, RuntimeError) as exc:
        # Once per process: a monitor scoring thousands of windows on a
        # pool-less host must not emit thousands of identical warnings.
        obs.warn_once(
            "micfast.serial-fallback",
            f"MIC process pool unavailable ({exc!r}); "
            "falling back to serial execution",
            category=RuntimeWarning,
            logger=_log,
            stacklevel=3,  # point at mic_matrix_fast's caller, as before
        )
        return None
    return [item for chunk in chunk_results for item in chunk]


def mic_matrix_fast(
    data: np.ndarray,
    params: MICParameters | None = None,
    max_workers: int | None = None,
) -> np.ndarray:
    """Pairwise MIC over columns, with per-column precompute shared.

    Args:
        data: array of shape ``(n_samples, n_metrics)``.
        params: optional tuning constants.
        max_workers: ``None`` → serial; ``0`` → one process per CPU;
            ``k > 0`` → at most ``k`` pool processes.  The pool falls back
            to serial (with a warning) if it cannot be created.

    Returns:
        Symmetric ``(n_metrics, n_metrics)`` matrix with unit diagonal,
        equal entry-for-entry to scalar :func:`repro.stats.mic.mic`.
    """
    params = params or _DEFAULT_PARAMS
    arr = np.ascontiguousarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    m = arr.shape[1]
    out = np.eye(m)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if not pairs:
        return out
    workers = resolve_workers(max_workers)
    with obs.span("mic.sweep") as sp:
        scores: list[tuple[int, int, float]] | None = None
        if workers > 1 and len(pairs) >= _MIN_PARALLEL_PAIRS:
            scores = _parallel_scores(arr, params, pairs, workers)
        parallel = scores is not None
        if scores is None:
            scores = _score_pairs(arr, params, pairs)
        if sp:
            sp.set(
                pairs=len(pairs),
                samples=arr.shape[0],
                workers=workers,
                parallel=parallel,
            )
    if obs.enabled():
        obs.metrics_registry().counter(
            "invarnetx_mic_pairs_scored_total",
            "Metric pairs scored by the MIC engine",
        ).inc(len(pairs))
    for i, j, score in scores:
        out[i, j] = score
        out[j, i] = score
    return out


class AssociationCache:
    """Content-addressed LRU cache of association matrices.

    Keys hash the window's bytes, shape, dtype, and the MIC parameters, so
    two windows collide only when their content is identical — exactly the
    case where recomputation is waste.  Stored and returned matrices are
    copies; callers can mutate their result freely.  Thread-safe.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()  # repro: guarded-by=_lock
        self._lock = threading.Lock()
        self.hits = 0  # repro: guarded-by=_lock
        self.misses = 0  # repro: guarded-by=_lock

    @staticmethod
    def key_for(data: np.ndarray, params: MICParameters) -> str:
        """Content hash of a window under the given MIC parameters."""
        arr = np.ascontiguousarray(data, dtype=float)
        digest = hashlib.sha256()
        header = (
            arr.shape,
            str(arr.dtype),
            params.alpha,
            params.clumps_factor,
        )
        digest.update(repr(header).encode())
        digest.update(arr.tobytes())
        return digest.hexdigest()

    def get(self, key: str) -> np.ndarray | None:
        """Cached matrix for ``key`` (a copy), or None on a miss."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return cached.copy()

    def put(self, key: str, matrix: np.ndarray) -> None:
        """Store a matrix, evicting the least recently used past maxsize."""
        with self._lock:
            self._entries[key] = np.array(matrix, dtype=float, copy=True)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        """Current size and hit/miss counters."""
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_GLOBAL_CACHE = AssociationCache()


def association_cache() -> AssociationCache:
    """The process-wide association-matrix cache."""
    return _GLOBAL_CACHE


def clear_association_cache() -> None:
    """Empty the process-wide association-matrix cache."""
    _GLOBAL_CACHE.clear()


def cached_mic_matrix(
    data: np.ndarray,
    params: MICParameters | None = None,
    max_workers: int | None = None,
    cache: AssociationCache | None = None,
) -> np.ndarray:
    """:func:`mic_matrix_fast` behind the content-hash LRU cache.

    Args:
        data: array of shape ``(n_samples, n_metrics)``.
        params: optional tuning constants (part of the cache key).
        max_workers: parallelism knob, forwarded on a miss.
        cache: cache instance; defaults to the process-wide one.

    Returns:
        The association matrix; a fresh array on both hit and miss.
    """
    params = params or _DEFAULT_PARAMS
    cache = cache if cache is not None else _GLOBAL_CACHE
    arr = np.ascontiguousarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    key = AssociationCache.key_for(arr, params)
    cached = cache.get(key)
    if cached is not None:
        if obs.enabled():
            obs.metrics_registry().counter(
                "invarnetx_mic_cache_hits_total",
                "Association-matrix cache hits",
            ).inc()
        return cached
    if obs.enabled():
        obs.metrics_registry().counter(
            "invarnetx_mic_cache_misses_total",
            "Association-matrix cache misses",
        ).inc()
    matrix = mic_matrix_fast(arr, params=params, max_workers=max_workers)
    cache.put(key, matrix)
    return matrix
