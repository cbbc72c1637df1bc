"""Cause inference (paper §3.3 end / Fig. 3 online part).

Triggered by the anomaly detector, the engine computes the violation tuple
of the abnormal window and retrieves the most similar signatures from the
operation context's database, reporting "a list of root causes which puts
the most probable causes in the top" (Fig. 3 caption).

When no stored signature is similar enough, the engine returns no verdict
but surfaces the violated association pairs as hints — the paper's fallback
for uninvestigated problems ("it can provide some hints by showing the
violated association pairs").
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.invariants import EPSILON, AssociationMatrix, InvariantSet
from repro.core.signatures import (
    Signature,
    SignatureDatabase,
    jaccard_similarity,
    matching_similarity,
)

__all__ = [
    "RankedCause",
    "InferenceResult",
    "read_ranking",
    "rank_causes",
    "CauseInferenceEngine",
]


@dataclass(frozen=True)
class RankedCause:
    """One entry of the ranked root-cause list: the problem, its score
    under the configured measure, and the breakdown of the query tuple
    against the problem's *best* stored signature (the one
    :meth:`SignatureDatabase.best_per_problem` scored it by) — matching
    and Jaccard similarity, positions that agree, that both violate
    (shared), that only the query or only the signature violates, the
    tuple length, and the workload and ip recorded on the signature."""

    problem: str
    score: float
    matching: float
    jaccard: float
    agreeing: int
    shared_violations: int
    query_only: int
    signature_only: int
    tuple_length: int
    signature_workload: str
    signature_ip: str

    @classmethod
    def against(
        cls, query: np.ndarray, problem: str, score: float, shared: int,
        signature: Signature,
    ) -> "RankedCause":
        """The cause ``problem`` scored ``score`` by ``signature``."""
        arr = signature.as_array()
        return cls(
            problem=problem,
            score=score,
            matching=matching_similarity(query, arr),
            jaccard=jaccard_similarity(query, arr),
            agreeing=int(np.sum(query == arr)),
            shared_violations=shared,
            query_only=int(np.sum(query & ~arr)),
            signature_only=int(np.sum(~query & arr)),
            tuple_length=int(arr.size),
            signature_workload=signature.workload,
            signature_ip=signature.ip,
        )


@dataclass
class InferenceResult:
    """Everything cause inference produced for one abnormal window — the
    one record every view of a diagnosis (the explain report, the
    incident bundle, the ledger entry) is projected from.

    Attributes:
        causes: ranked root causes, most probable first, each with its
            similarity breakdown (empty when the database is empty).
        violations: the binary violation tuple that was matched.
        hints: violated pair names; the operator-facing fallback output.
        matched: True when the top cause cleared the similarity floor.
        observed: the abnormal window's association value of each
            invariant pair, which ``violations`` and ``hints`` were
            derived from (None when the tuple came from elsewhere, e.g.
            an ARX network).
    """

    causes: list[RankedCause]
    violations: np.ndarray
    hints: list[tuple[str, str]] = field(default_factory=list)
    matched: bool = False
    observed: np.ndarray | None = None

    @property
    def best(self) -> RankedCause | None:
        """The best-ranked cause, matched or not; None when none ranked."""
        return self.causes[0] if self.causes else None

    @property
    def top_cause(self) -> str | None:
        """Most probable root cause, or None when nothing matched."""
        return self.causes[0].problem if self.matched and self.causes else None

    def to_dict(self) -> dict[str, Any]:
        """The recorded form of this inference (:func:`read_ranking`
        reads it back): causes as ``{problem, score}``, best first, the
        matched flag, the violation tuple and the hints."""
        return {
            "causes": [
                {"problem": c.problem, "score": float(c.score)}
                for c in self.causes
            ],
            "matched": self.matched,
            "violations": [bool(v) for v in self.violations],
            "hints": [list(pair) for pair in self.hints],
        }

    def ledger_fields(self) -> dict[str, Any]:
        """A ``diagnose`` ledger entry's fields: the matched flag and the
        best-ranked cause, matched or not, with its score to 6 places."""
        fields: dict[str, Any] = {"matched": self.matched}
        best = self.best
        if best is not None:
            fields["top_cause"] = best.problem
            fields["top_score"] = round(best.score, 6)
        return fields


def read_ranking(
    record: Mapping[str, Any],
) -> tuple[list[tuple[str, float]], bool]:
    """The ``(problem, score)`` pairs, best first, and the matched flag
    of a recorded inference (:meth:`InferenceResult.to_dict`)."""
    ranking = [(c["problem"], c["score"]) for c in record["causes"]]
    return ranking, record["matched"]


def rank_causes(
    database: SignatureDatabase,
    violations: np.ndarray,
    pair_names: list[tuple[str, str]],
    *,
    measure: str,
    min_similarity: float,
    top_k: int,
    observed: np.ndarray | None = None,
) -> InferenceResult:
    """The ranking half of cause inference, whatever built the violation
    tuple (MIC invariants here, ARX networks in :mod:`repro.arx`): the
    ``top_k`` signatures most similar to ``violations``, ``matched`` when
    the best clears ``min_similarity``, and the names of the violated
    pairs (of ``pair_names``, aligned with the tuple) as hints."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    query = np.asarray(violations, dtype=bool)
    ranking = database.best_per_problem(query, measure=measure)
    causes = [RankedCause.against(query, *best) for best in ranking[:top_k]]
    matched = bool(causes) and causes[0].score >= min_similarity
    hints = [pair_names[k] for k in np.flatnonzero(query)]
    return InferenceResult(causes, violations, hints, matched, observed)


class CauseInferenceEngine:
    """The online cause-inference module of one operation context.

    Args:
        invariants: the context's likely invariants.
        database: the context's signature database.
        epsilon: violation threshold ε.
        min_similarity: floor below which the best match is not trusted and
            only hints are reported.
    """

    def __init__(
        self,
        invariants: InvariantSet,
        database: SignatureDatabase,
        epsilon: float = EPSILON,
        min_similarity: float = 0.5,
        measure: str = "matching",
    ) -> None:
        if not 0.0 <= min_similarity <= 1.0:
            raise ValueError(
                f"min_similarity must be in [0, 1], got {min_similarity}"
            )
        self.invariants = invariants
        self.database = database
        self.epsilon = epsilon
        self.min_similarity = min_similarity
        self.measure = measure

    def infer(
        self, abnormal: AssociationMatrix, top_k: int = 3
    ) -> InferenceResult:
        """Diagnose one abnormal window.

        The observed pair values are read from ``abnormal`` once; the
        violation tuple, the hints and the ranking all derive from them.

        Args:
            abnormal: association matrix computed over the abnormal window.
            top_k: length of the returned cause list.

        Returns:
            The :class:`InferenceResult`.
        """
        observed = self.invariants.observed(abnormal)
        return rank_causes(
            self.database,
            self.invariants.violated(observed, self.epsilon),
            self.invariants.pair_names(),
            measure=self.measure,
            min_similarity=self.min_similarity,
            top_k=top_k,
            observed=observed,
        )

    def learn(
        self, abnormal: AssociationMatrix, problem: str, ip: str = "",
        workload: str = "",
    ) -> np.ndarray:
        """Record a resolved problem's signature (the paper's "once the
        performance problem is resolved, a new signature will be added").

        Returns:
            The stored binary violation tuple.
        """
        violations = self.invariants.violations(abnormal, self.epsilon)
        self.database.add(violations, problem, ip=ip, workload=workload)
        return violations
