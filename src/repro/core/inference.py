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

from dataclasses import dataclass, field

import numpy as np

from repro.core.invariants import EPSILON, AssociationMatrix, InvariantSet
from repro.core.signatures import SignatureDatabase

__all__ = [
    "RankedCause",
    "InferenceResult",
    "rank_causes",
    "CauseInferenceEngine",
]


@dataclass(frozen=True)
class RankedCause:
    """One entry of the ranked root-cause list."""

    problem: str
    score: float


@dataclass
class InferenceResult:
    """Everything cause inference produced for one abnormal window.

    Attributes:
        causes: ranked root causes, most probable first (empty when the
            database is empty).
        violations: the binary violation tuple that was matched.
        hints: violated pair names; the operator-facing fallback output.
        matched: True when the top cause cleared the similarity floor.
    """

    causes: list[RankedCause]
    violations: np.ndarray
    hints: list[tuple[str, str]] = field(default_factory=list)
    matched: bool = False

    @property
    def top_cause(self) -> str | None:
        """Most probable root cause, or None when nothing matched."""
        if self.matched and self.causes:
            return self.causes[0].problem
        return None


def rank_causes(
    database: SignatureDatabase,
    violations: np.ndarray,
    hints: list[tuple[str, str]],
    *,
    measure: str,
    min_similarity: float,
    top_k: int,
) -> InferenceResult:
    """The ranking half of cause inference, whatever built the violation
    tuple (MIC invariants here, ARX networks in :mod:`repro.arx`): the
    ``top_k`` signatures most similar to ``violations``, ``matched`` when
    the best clears ``min_similarity``."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    ranking = database.rank(violations, measure=measure)
    causes = [RankedCause(p, s) for p, s in ranking[:top_k]]
    matched = bool(causes) and causes[0].score >= min_similarity
    return InferenceResult(causes, violations, hints, matched)


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

        Args:
            abnormal: association matrix computed over the abnormal window.
            top_k: length of the returned cause list.

        Returns:
            The :class:`InferenceResult`.
        """
        return rank_causes(
            self.database,
            self.invariants.violations(abnormal, self.epsilon),
            self.invariants.violated_pair_names(abnormal, self.epsilon),
            measure=self.measure,
            min_similarity=self.min_similarity,
            top_k=top_k,
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
