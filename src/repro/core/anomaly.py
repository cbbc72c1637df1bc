"""Performance-anomaly detection by ARIMA model drift on CPI (paper §3.2).

Offline, an ARIMA model is trained on N complete normal-execution CPI traces
of one operation context; the absolute fitting residuals ``R`` over those
traces calibrate a threshold by one of three rules:

- ``max-min``  — anomaly when ``ξ > max(R)`` or ``ξ < min(R)``;
- ``95-percentile`` — anomaly when ``ξ > pct95(R)``;
- ``beta-max`` — anomaly when ``ξ > β·max(R)`` with β = 1.2 (the rule the
  paper selects after Fig. 6).

Online, ``ξ = |CPI(t) − CPI_hat(t)|`` is the one-step prediction residual.
To resist system noise, a *performance problem* is reported only when the
anomaly condition holds for three consecutive samples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.stats.arima import (
    ARIMAModel,
    ARIMAOrder,
    OneStepPredictor,
    fit_arima,
    select_order,
)
from repro.stats.correlation import percentile

__all__ = [
    "ThresholdRule",
    "DriftThreshold",
    "AnomalyReport",
    "AnomalyDetector",
    "CONSECUTIVE_ANOMALIES",
]

#: Number of consecutive anomalous samples required to report a problem.
CONSECUTIVE_ANOMALIES = 3

#: The paper's fluctuation factor for the beta-max rule.
BETA = 1.2


class ThresholdRule(enum.Enum):
    """The three threshold-setting rules of §3.2."""

    MAX_MIN = "max-min"
    PCT95 = "95-percentile"
    BETA_MAX = "beta-max"


@dataclass(frozen=True)
class DriftThreshold:
    """Calibrated residual thresholds for one rule.

    Attributes:
        rule: which rule produced the bounds.
        upper: anomaly when ``ξ`` exceeds this.
        lower: anomaly when ``ξ`` falls below this (max-min rule only;
            0.0 for the other rules, which can never trigger it).
    """

    rule: ThresholdRule
    upper: float
    lower: float = 0.0

    def is_anomalous(self, xi: float) -> bool:
        """Evaluate one absolute residual against the bounds."""
        if xi < 0:
            raise ValueError(f"xi is an absolute residual, got {xi}")
        return xi > self.upper or xi < self.lower


@dataclass
class AnomalyReport:
    """Outcome of scanning one CPI series.

    Attributes:
        residuals: absolute one-step residuals (NaN during model warm-up).
        anomalous: per-tick anomaly flags (warm-up ticks are False).
        problem_ticks: ticks at which a performance problem is reported
            (the third tick of each run of >= 3 consecutive anomalies).
    """

    residuals: np.ndarray
    anomalous: np.ndarray
    problem_ticks: list[int] = field(default_factory=list)

    @property
    def problem_detected(self) -> bool:
        """True when at least one performance problem was reported."""
        return bool(self.problem_ticks)

    def first_problem_tick(self) -> int | None:
        """Tick of the first reported problem, or None."""
        return self.problem_ticks[0] if self.problem_ticks else None


class AnomalyDetector:
    """The trained performance model of one operation context.

    Train with :meth:`train` on normal CPI traces, then scan runs with
    :meth:`detect` (offline series) or :meth:`check_next` (online,
    one sample at a time).

    Args:
        rule: threshold rule (paper default: beta-max).
        beta: fluctuation factor of the beta-max rule.
        order: fixed ARIMA order, or None to select by AIC on the training
            data.
    """

    def __init__(
        self,
        rule: ThresholdRule = ThresholdRule.BETA_MAX,
        beta: float = BETA,
        order: ARIMAOrder | tuple[int, int, int] | None = None,
    ) -> None:
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.rule = rule
        self.beta = beta
        self._requested_order = ARIMAOrder(*order) if order else None
        self.model: ARIMAModel | None = None
        self.threshold: DriftThreshold | None = None
        self._train_residuals: np.ndarray | None = None

    @classmethod
    def from_artifacts(
        cls,
        model: ARIMAModel,
        threshold: DriftThreshold,
        beta: float = BETA,
    ) -> "AnomalyDetector":
        """Rehydrate a detector from persisted artifacts (§3.2 store).

        The returned detector serves the whole online part — :meth:`detect`
        and :meth:`check_next` behave exactly as on the detector that was
        saved.  Only :meth:`calibrate` is unavailable (the training
        residuals are not persisted); re-train to change the rule.

        Args:
            model: the fitted ARIMA model (order + coefficients).
            threshold: the calibrated drift threshold.
            beta: fluctuation factor to record (informational after
                loading; the threshold is already calibrated).
        """
        detector = cls(rule=threshold.rule, beta=beta, order=model.order)
        detector.model = model
        detector.threshold = threshold
        return detector

    @property
    def training_residuals(self) -> np.ndarray | None:
        """Pooled absolute training residuals, or None when the detector
        was rehydrated from artifacts (they are not persisted — the run
        ledger records their summary at training time instead)."""
        return self._train_residuals

    # ------------------------------------------------------------------
    def train(self, traces: list[np.ndarray]) -> "AnomalyDetector":
        """Fit the ARIMA model and calibrate the threshold.

        Args:
            traces: N normal-state CPI series of the same operation context
                (the paper uses N ≈ 10-20 complete executions).

        Returns:
            self, for chaining.
        """
        if not traces:
            raise ValueError("need at least one training trace")
        arrays = [np.asarray(t, dtype=float) for t in traces]
        for arr in arrays:
            if arr.ndim != 1 or arr.size < 12:
                raise ValueError(
                    "each training trace must be 1-D with >= 12 samples"
                )
        longest = max(arrays, key=lambda a: a.size)
        order = self._requested_order or select_order(longest)
        self.model = fit_arima(longest, order)
        pooled: list[np.ndarray] = []
        for arr in arrays:
            resid = self.model.one_step_residuals(arr)
            pooled.append(np.abs(resid[~np.isnan(resid)]))
        residuals = np.concatenate(pooled)
        if residuals.size == 0:
            raise ValueError("training traces too short for the ARIMA order")
        self._train_residuals = residuals
        self.threshold = self.calibrate(self.rule)
        return self

    def calibrate(self, rule: ThresholdRule) -> DriftThreshold:
        """Compute the threshold for any rule from the stored training
        residuals (lets Fig. 6 compare all three on one trained model)."""
        if self._train_residuals is None:
            raise RuntimeError("detector is not trained")
        r = self._train_residuals
        if rule is ThresholdRule.MAX_MIN:
            return DriftThreshold(rule, upper=float(r.max()), lower=float(r.min()))
        if rule is ThresholdRule.PCT95:
            return DriftThreshold(rule, upper=percentile(r, 95.0))
        if rule is ThresholdRule.BETA_MAX:
            return DriftThreshold(rule, upper=self.beta * float(r.max()))
        raise ValueError(f"unknown rule {rule}")

    # ------------------------------------------------------------------
    def detect(
        self,
        cpi: np.ndarray,
        rule: ThresholdRule | None = None,
    ) -> AnomalyReport:
        """Scan a CPI series for performance problems.

        Args:
            cpi: the series to scan (original scale).
            rule: override the detector's threshold rule for this scan.

        Returns:
            The :class:`AnomalyReport` with per-tick flags and the ticks at
            which the three-consecutive rule reports a problem.
        """
        if self.model is None:
            raise RuntimeError("detector is not trained")
        threshold = (
            self.threshold if rule is None else self.calibrate(rule)
        )
        assert threshold is not None
        resid = np.abs(self.model.one_step_residuals(np.asarray(cpi, float)))
        flags = np.zeros(resid.size, dtype=bool)
        valid = ~np.isnan(resid)
        flags[valid] = [threshold.is_anomalous(x) for x in resid[valid]]
        problems: list[int] = []
        streak = 0
        for t, flag in enumerate(flags):
            streak = streak + 1 if flag else 0
            if streak == CONSECUTIVE_ANOMALIES:
                problems.append(t)
        return AnomalyReport(
            residuals=resid, anomalous=flags, problem_ticks=problems
        )

    def check_next(self, history: np.ndarray, observed: float) -> bool:
        """Online single-sample check: is ``observed`` anomalous given the
        CPI ``history`` so far?

        O(history): the reference for tests and replay.  A streaming
        monitor uses :meth:`OnlineMonitor.check` instead.

        Args:
            history: all CPI samples before the new one.
            observed: the newly collected CPI sample.
        """
        if self.model is None or self.threshold is None:
            raise RuntimeError("detector is not trained")
        predicted = OneStepPredictor(self.model, history).prediction
        return self.threshold.is_anomalous(abs(observed - predicted))
