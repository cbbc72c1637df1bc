"""Association matrices on the batched MIC kernel.

Computing an association matrix the naive way pays the full MINE cost —
argsort, y-axis equipartition family, clump construction, dynamic
programme — separately for every one of the M(M-1)/2 metric pairs.  This
module hands every pair of sharable columns to the batched kernel of
:mod:`repro.stats.mic` in one serial call: each column's precompute is
built once, and the per-pair work runs as array operations over chunks
of (pair x grid) items.  A content-hash LRU cache of whole association
matrices (:class:`AssociationCache`) sits on top, so a caller scoring an
identical input twice pays one hash; the system's own paths score each
window once.

Equivalence contract: for every pair, the engine returns *exactly* the
value of :func:`repro.stats.mic.mic` on the two columns.  A pair with a
non-sharable member is scored one of two ways.  If that member is finite
(a constant column, or a window under 4 samples), the pair is 0.0, which
is what :func:`~repro.stats.mic.mic` returns for it.  Otherwise a member
has NaNs (masking is pairwise), and the scalar
:func:`~repro.stats.mic.mic` runs the same kernel on the masked
two-column window.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

import repro.obs as obs
from repro.stats.mic import MICParameters, _DEFAULT_PARAMS, _mic_pairs, mic

__all__ = [
    "mic_matrix_fast",
    "cached_mic_matrix",
    "AssociationCache",
    "association_cache",
    "clear_association_cache",
]

def _sharable_columns(arr: np.ndarray) -> np.ndarray:
    """Mask of the columns the batched kernel can score together.

    A column is *sharable* when it is all finite (so the pairwise NaN
    mask never fires), non-constant, and the window has at least 4
    samples.  A pair with a finite non-sharable member scores 0.0; the
    remaining pairs with a non-sharable member have NaNs and go through
    the scalar :func:`~repro.stats.mic.mic`, which masks them pairwise.
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
    # A finite column the kernel cannot share is constant, or the window
    # is under 4 samples: mic() scores every pair it is in 0.0.
    silent = np.isfinite(arr).all(axis=0) & ~sharable
    batched = [(i, j) for i, j in pairs if sharable[i] and sharable[j]]
    scores = dict(zip(batched, _mic_pairs(arr, batched, params).tolist()))
    for i, j in pairs:
        if (i, j) not in scores:
            scores[i, j] = (
                0.0
                if silent[i] or silent[j]
                else mic(arr[:, i], arr[:, j], params)
            )
    return [(i, j, scores[i, j]) for i, j in pairs]


def mic_matrix_fast(
    data: np.ndarray,
    params: MICParameters | None = None,
) -> np.ndarray:
    """Pairwise MIC over columns, with per-column precompute shared.

    Args:
        data: array of shape ``(n_samples, n_metrics)``.
        params: optional tuning constants.

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
    with obs.span("mic.sweep") as sp:
        scores = _score_pairs(arr, params, pairs)
        if sp:
            sp.set(pairs=len(pairs), samples=arr.shape[0])
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
    cache: AssociationCache | None = None,
) -> np.ndarray:
    """:func:`mic_matrix_fast` behind the content-hash LRU cache.

    Args:
        data: array of shape ``(n_samples, n_metrics)``.
        params: optional tuning constants (part of the cache key).
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
    matrix = mic_matrix_fast(arr, params=params)
    cache.put(key, matrix)
    return matrix
