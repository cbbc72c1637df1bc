"""The problem-signature database (paper §2 / §3.3).

Each investigated performance problem is signified by its binary violation
tuple, stored as the four-tuple *(binary tuple, problem name, ip, workload
type)*.  The database accumulates signatures as problems are diagnosed and
resolved, and answers similarity queries during cause inference.

The default similarity between binary tuples is the simple-matching
coefficient (fraction of agreeing positions, i.e. normalised Hamming
similarity): a pair the query does *not* violate but the signature does is
evidence against the match, which keeps broad signatures (Suspend violates
almost everything) from swallowing narrower faults.  The Jaccard index over
violated positions is also provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Signature",
    "SignatureDatabase",
    "jaccard_similarity",
    "matching_similarity",
    "ensemble_similarity",
    "SIMILARITY_MEASURES",
]


def _paired_bool(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    av = np.asarray(a, dtype=bool)
    bv = np.asarray(b, dtype=bool)
    if av.shape != bv.shape:
        raise ValueError(
            f"tuples have different lengths: {av.size} vs {bv.size}"
        )
    return av, bv


def jaccard_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard index of two binary violation tuples over violated positions.

    Two all-zero tuples are identical by convention (similarity 1.0).
    """
    av, bv = _paired_bool(a, b)
    union = np.logical_or(av, bv).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(av, bv).sum() / union)


def matching_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Simple-matching coefficient: fraction of positions that agree."""
    av, bv = _paired_bool(a, b)
    if av.size == 0:
        return 1.0
    return float(np.sum(av == bv) / av.size)


def ensemble_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of the matching and Jaccard similarities.

    The authors' prior work [11] ranks causes with an *ensemble* of
    MIC-based scores; combining the zero-aware matching coefficient with
    the violation-overlap Jaccard index is the binary-tuple analogue —
    the former resists broad-signature capture, the latter emphasises
    shared evidence.
    """
    return 0.5 * (matching_similarity(a, b) + jaccard_similarity(a, b))


#: Named similarity measures accepted by
#: :meth:`SignatureDatabase.best_per_problem`.
SIMILARITY_MEASURES = {
    "matching": matching_similarity,
    "jaccard": jaccard_similarity,
    "ensemble": ensemble_similarity,
}


@dataclass(frozen=True)
class Signature:
    """One stored problem signature.

    Attributes:
        violations: the binary violation tuple (aligned with the invariant
            set of the same operation context).
        problem: root-cause name (e.g. ``"CPU-hog"``).
        ip: address of the node the problem occurred on.
        workload: workload type the signature belongs to.
    """

    violations: tuple[bool, ...]
    problem: str
    ip: str
    workload: str

    def __post_init__(self) -> None:
        if not self.problem:
            raise ValueError("problem name must be non-empty")

    @property
    def tuple_length(self) -> int:
        """Number of invariant positions this signature covers."""
        return len(self.violations)

    def as_array(self) -> np.ndarray:
        """The violation tuple as a boolean numpy array."""
        return np.asarray(self.violations, dtype=bool)


@dataclass
class SignatureDatabase:
    """All signatures of one operation context.

    The paper stores signatures per (workload, node); the pipeline keeps
    one database per operation context and routes queries accordingly.
    """

    signatures: list[Signature] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.signatures)

    @property
    def problems(self) -> list[str]:
        """Distinct problem names, in first-seen order."""
        seen: list[str] = []
        for sig in self.signatures:
            if sig.problem not in seen:
                seen.append(sig.problem)
        return seen

    def add(
        self,
        violations: np.ndarray,
        problem: str,
        ip: str = "",
        workload: str = "",
    ) -> Signature:
        """Store a new signature (the paper appends one whenever a problem
        is resolved).

        Returns:
            The stored :class:`Signature`.
        """
        arr = np.asarray(violations, dtype=bool)
        if self.signatures and arr.size != self.signatures[0].tuple_length:
            raise ValueError(
                f"tuple length {arr.size} does not match the database's "
                f"{self.signatures[0].tuple_length}"
            )
        sig = Signature(
            violations=tuple(bool(x) for x in arr),
            problem=problem,
            ip=ip,
            workload=workload,
        )
        self.signatures.append(sig)
        return sig

    def conflicts(
        self, threshold: float = 0.9, measure: str = "matching"
    ) -> list[tuple[str, str, float]]:
        """Problem pairs whose stored signatures are nearly identical.

        The paper observes Net-drop and Net-delay being mistaken for each
        other because "these two faults have very similar signatures — a
        typical signature conflict" and defers handling to future work.
        This method makes such conflicts first-class: it reports every
        pair of *distinct* problems whose best cross-signature similarity
        reaches ``threshold``, so an operator can merge them into one
        reported cause or add discriminating instrumentation.

        Args:
            threshold: similarity at or above which two problems conflict.
            measure: similarity measure name.  A conflict is two problems
                the *ranker* cannot tell apart, so this should be the same
                measure :meth:`best_per_problem` ranks by (matching by
                default).

        Returns:
            ``(problem_a, problem_b, similarity)`` triples sorted by
            descending similarity, each unordered pair reported once.
        """
        try:
            similarity = SIMILARITY_MEASURES[measure]
        except KeyError:
            known = ", ".join(sorted(SIMILARITY_MEASURES))
            raise ValueError(
                f"unknown similarity measure {measure!r}; known: {known}"
            ) from None
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        best: dict[tuple[str, str], float] = {}
        for i, a in enumerate(self.signatures):
            for b in self.signatures[i + 1 :]:
                if a.problem == b.problem:
                    continue
                key = tuple(sorted((a.problem, b.problem)))
                score = similarity(a.as_array(), b.as_array())
                if score > best.get(key, -1.0):
                    best[key] = score
        out = [
            (a, b, score)
            for (a, b), score in best.items()
            if score >= threshold
        ]
        out.sort(key=lambda t: (-t[2], t[0], t[1]))
        return out

    def best_per_problem(
        self, violations: np.ndarray, measure: str = "matching"
    ) -> list[tuple[str, float, int, Signature]]:
        """Rank stored problems by similarity to a violation tuple.

        The one ranking implementation, behind
        :func:`repro.core.inference.rank_causes`: each problem scores as
        its best signature under ``measure``, ties break toward the
        signature sharing more violated positions with the query, then
        alphabetically for full determinism.

        Args:
            violations: the query tuple.
            measure: similarity measure name.

        Returns:
            ``(problem, score, shared_violations, signature)`` tuples,
            best first.
        """
        try:
            similarity = SIMILARITY_MEASURES[measure]
        except KeyError:
            known = ", ".join(sorted(SIMILARITY_MEASURES))
            raise ValueError(
                f"unknown similarity measure {measure!r}; known: {known}"
            ) from None
        query = np.asarray(violations, dtype=bool)
        best: dict[str, tuple[float, int, Signature]] = {}
        for sig in self.signatures:
            arr = sig.as_array()
            score = similarity(query, arr)
            shared = int(np.logical_and(query, arr).sum())
            prev = best.get(sig.problem)
            if prev is None or (score, shared) > (prev[0], prev[1]):
                best[sig.problem] = (score, shared, sig)
        ordered = sorted(
            best.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0])
        )
        return [
            (problem, score, shared, sig)
            for problem, (score, shared, sig) in ordered
        ]
