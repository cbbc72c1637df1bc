"""Likely-invariant construction with MIC (paper §3.3, Algorithm 1).

For one operation context, the association matrix ``A^i`` of every normal
run ``i`` holds the pairwise MIC score of all M(M−1)/2 metric pairs.  With
``V(m,n) = (A^1(m,n), …, A^N(m,n))``, a pair is a *likely invariant* iff

    max(V(m,n)) − min(V(m,n)) < τ        (τ = 0.2)

and its invariant value is ``I(m,n) = max(V(m,n))``.  A pair that does not
associate in one run scores MIC = 0 there (this is how stably-silent metrics
such as swap usage become "zero invariants" that light up when a fault
activates them).

A *violation* against an abnormal association matrix ``A`` is

    |I(m,n) − A(m,n)| >= ε               (ε = 0.2)

and the ordered binary violation flags form the signature tuple of §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.stats.mic import MICParameters
from repro.stats.micfast import cached_mic_matrix
from repro.telemetry.metrics import MetricCatalog

__all__ = [
    "TAU",
    "EPSILON",
    "AssociationMatrix",
    "InvariantSet",
    "InvariantTracker",
    "select_invariants",
]

#: Algorithm 1 stability threshold.
TAU = 0.2
#: §2 violation threshold.
EPSILON = 0.2


@dataclass(frozen=True)
class AssociationMatrix:
    """Pairwise MIC matrix of one observation window.

    Attributes:
        values: symmetric (M, M) matrix of MIC scores with unit diagonal.
        catalog: the metric vocabulary fixing row/column meaning.
    """

    values: np.ndarray
    catalog: MetricCatalog = field(default_factory=MetricCatalog)

    def __post_init__(self) -> None:
        m = len(self.catalog)
        if self.values.shape != (m, m):
            raise ValueError(
                f"expected a ({m}, {m}) matrix, got {self.values.shape}"
            )

    @classmethod
    def from_samples(
        cls,
        samples: np.ndarray,
        catalog: MetricCatalog | None = None,
        params: MICParameters | None = None,
    ) -> "AssociationMatrix":
        """Compute the matrix from a (ticks, M) sample window.

        Args:
            samples: (ticks, M) metric window.
            catalog: metric vocabulary fixing M.
            params: MIC tuning constants.

        The sweep goes through the content-hash cache of
        :mod:`repro.stats.micfast`, which the system's own paths no longer
        hit: each window is scored once.
        """
        catalog = catalog or MetricCatalog()
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != len(catalog):
            raise ValueError(
                f"expected (ticks, {len(catalog)}) samples, got {arr.shape}"
            )
        values = cached_mic_matrix(arr, params)
        return cls(values=values, catalog=catalog)

    def score(self, metric_a: str, metric_b: str) -> float:
        """MIC score of a named metric pair."""
        i = self.catalog.index(metric_a)
        j = self.catalog.index(metric_b)
        return float(self.values[i, j])


@dataclass
class InvariantSet:
    """The likely invariants of one operation context.

    Attributes:
        pairs: invariant metric-index pairs (i < j), in canonical order.
        baseline: invariant value ``I(m,n)`` per pair (same order).
        catalog: metric vocabulary.
    """

    pairs: list[tuple[int, int]]
    baseline: np.ndarray
    catalog: MetricCatalog = field(default_factory=MetricCatalog)

    def __post_init__(self) -> None:
        self.baseline = np.asarray(self.baseline, dtype=float)
        if len(self.pairs) != self.baseline.size:
            raise ValueError("pairs and baseline lengths differ")

    def __len__(self) -> int:
        return len(self.pairs)

    def pair_names(self) -> list[tuple[str, str]]:
        """Invariant pairs as metric-name tuples."""
        return [
            (self.catalog.name(i), self.catalog.name(j)) for i, j in self.pairs
        ]

    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index arrays of :attr:`pairs`, so a matrix's
        values at every invariant pair are one fancy index."""
        ij = np.array(self.pairs, dtype=np.intp).reshape(-1, 2)
        return ij[:, 0], ij[:, 1]

    def observed(self, abnormal: AssociationMatrix) -> np.ndarray:
        """The abnormal window's association value of each invariant
        pair, aligned with :attr:`pairs`."""
        rows, cols = self.index()
        return np.asarray(abnormal.values[rows, cols], dtype=float)

    def violated(
        self, observed: np.ndarray, epsilon: float = EPSILON
    ) -> np.ndarray:
        """The binary violation tuple of per-pair observed values (§2).

        Args:
            observed: per-pair values (see :meth:`observed`).
            epsilon: violation threshold ε.

        Returns:
            Boolean array aligned with :attr:`pairs`; True = violated.
        """
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        return np.abs(self.baseline - observed) >= epsilon

    def violations(
        self, abnormal: AssociationMatrix, epsilon: float = EPSILON
    ) -> np.ndarray:
        """The binary violation tuple against an abnormal matrix."""
        return self.violated(self.observed(abnormal), epsilon)


class InvariantTracker:
    """Incremental Algorithm 1.

    The paper's offline construction consumes N runs at once; a deployed
    system keeps learning as fresh normal runs arrive.  Algorithm 1 only
    needs each pair's running min and max of ``V(m, n)``, so the tracker
    maintains exactly those and can materialise the current
    :class:`InvariantSet` at any time in O(pairs).

    Feeding the same runs through :meth:`add_run` yields an invariant set
    identical to the batch :func:`select_invariants`.
    """

    def __init__(
        self,
        tau: float = TAU,
        catalog: MetricCatalog | None = None,
    ) -> None:
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = tau
        self.catalog = catalog or MetricCatalog()
        m = len(self.catalog)
        self._min = np.full((m, m), np.inf)
        self._max = np.full((m, m), -np.inf)
        self.n_runs = 0

    def add_run(self, matrix: "AssociationMatrix | np.ndarray") -> None:
        """Fold one normal run's association matrix into the running
        min/max statistics."""
        values = (
            matrix.values
            if isinstance(matrix, AssociationMatrix)
            else np.asarray(matrix, dtype=float)
        )
        m = len(self.catalog)
        if values.shape != (m, m):
            raise ValueError(
                f"expected a ({m}, {m}) matrix, got {values.shape}"
            )
        np.minimum(self._min, values, out=self._min)
        np.maximum(self._max, values, out=self._max)
        self.n_runs += 1

    def current(self) -> InvariantSet:
        """The invariant set implied by the runs folded in so far."""
        if self.n_runs == 0:
            raise RuntimeError("no runs have been added")
        return _stable_pairs(self._min, self._max, self.tau, self.catalog)


def _stable_pairs(
    low: np.ndarray, high: np.ndarray, tau: float, catalog: MetricCatalog
) -> InvariantSet:
    """Algorithm 1 over each pair's ``min(V(m,n))`` and ``max(V(m,n))``.

    The upper triangle of ``np.triu_indices`` runs in
    :meth:`MetricCatalog.pairs` order, so the selected pairs come out in
    canonical order.
    """
    rows, cols = np.triu_indices(len(catalog), 1)
    top = high[rows, cols]
    keep = top - low[rows, cols] < tau
    pairs = list(zip(rows[keep].tolist(), cols[keep].tolist()))
    return InvariantSet(pairs=pairs, baseline=top[keep], catalog=catalog)


def select_invariants(
    association_matrices: list[AssociationMatrix] | list[np.ndarray],
    tau: float = TAU,
    catalog: MetricCatalog | None = None,
) -> InvariantSet:
    """Algorithm 1: select the stable association pairs over N normal runs.

    Args:
        association_matrices: one association matrix per normal run (either
            :class:`AssociationMatrix` objects or raw (M, M) arrays).
        tau: stability threshold τ.
        catalog: metric vocabulary (required when raw arrays are passed).

    Returns:
        The :class:`InvariantSet` with ``I(m,n) = max(V(m,n))`` for every
        pair whose spread is below τ.
    """
    if not association_matrices:
        raise ValueError("need at least one normal-run association matrix")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    mats: list[np.ndarray] = []
    for item in association_matrices:
        if isinstance(item, AssociationMatrix):
            catalog = catalog or item.catalog
            mats.append(item.values)
        else:
            mats.append(np.asarray(item, dtype=float))
    catalog = catalog or MetricCatalog()
    m = len(catalog)
    for index, mat in enumerate(mats):
        if mat.shape != (m, m):
            raise ValueError(
                f"association matrix {index} has shape {mat.shape}, "
                f"expected ({m}, {m}) for the {m}-metric catalog — a "
                "mismatched matrix would silently mis-align metric pairs"
            )
    stack = np.stack(mats)  # (N, M, M)
    return _stable_pairs(stack.min(axis=0), stack.max(axis=0), tau, catalog)
