"""ARIMA(p, d, q) models implemented from scratch.

The paper's anomaly detector (§3.2) trains an ARIMA model on the normal-state
CPI series of each (workload, node) operation context and flags an anomaly
when the one-step prediction residual exceeds a threshold.  ``statsmodels``
is not available in this environment, so this module provides a compact,
well-tested ARIMA implementation:

- estimation by the Hannan-Rissanen two-stage least-squares procedure, with
  an optional conditional-sum-of-squares (CSS) refinement via
  :func:`scipy.optimize.minimize`;
- one-step-ahead in-sample prediction and out-of-sample forecasting;
- streaming one-step prediction (:class:`OneStepPredictor`), O(p + d + q)
  per sample, for the online drift check;
- AIC-based order selection over a (p, d, q) grid.

The model operates on the ``d``-times differenced series internally.  One
convenient consequence used throughout the project: the one-step prediction
residual is identical in the differenced and original scales, because the
reconstruction terms (lagged observed values) cancel.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import optimize

import repro.obs as obs
from repro.stats.timeseries import aic as _aic
from repro.stats.timeseries import difference, is_stationary

__all__ = [
    "ARIMAOrder",
    "ARIMAModel",
    "OneStepPredictor",
    "fit_arima",
    "select_order",
]


class ARIMAOrder(NamedTuple):
    """The (p, d, q) order triple of an ARIMA model."""

    p: int
    d: int
    q: int

    def validate(self) -> None:
        """Reject negative components and the degenerate (0,0,0) order."""
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise ValueError(f"ARIMA order components must be >= 0, got {self}")
        if self.p == 0 and self.q == 0 and self.d == 0:
            raise ValueError("degenerate ARIMA(0,0,0) model is not allowed")


@dataclass
class ARIMAModel:
    """A fitted ARIMA(p, d, q) model.

    Attributes:
        order: the (p, d, q) triple.
        ar: AR coefficients ``phi_1 .. phi_p`` (on the differenced series).
        ma: MA coefficients ``theta_1 .. theta_q``.
        intercept: constant term of the differenced-series ARMA equation.
        sigma2: residual variance from the training fit.
        train_rss: residual sum of squares on the training series.
        train_nobs: number of observations the RSS was computed over.
    """

    order: ARIMAOrder
    ar: np.ndarray
    ma: np.ndarray
    intercept: float
    sigma2: float
    train_rss: float = 0.0
    train_nobs: int = 0
    _warmup: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        self.order = ARIMAOrder(*self.order)
        self.order.validate()
        self.ar = np.asarray(self.ar, dtype=float)
        self.ma = np.asarray(self.ma, dtype=float)
        if self.ar.size != self.order.p:
            raise ValueError(
                f"expected {self.order.p} AR coefficients, got {self.ar.size}"
            )
        if self.ma.size != self.order.q:
            raise ValueError(
                f"expected {self.order.q} MA coefficients, got {self.ma.size}"
            )
        self._warmup = max(self.order.p, self.order.q)

    @property
    def n_params(self) -> int:
        """Number of estimated mean-model parameters (AR + MA + intercept)."""
        return self.order.p + self.order.q + 1

    def aic(self) -> float:
        """AIC of the training fit."""
        if self.train_nobs == 0:
            raise ValueError("model carries no training fit statistics")
        return _aic(self.train_rss, self.train_nobs, self.n_params)

    # ------------------------------------------------------------------
    # prediction machinery
    # ------------------------------------------------------------------
    def _innovations(
        self, series: np.ndarray | list[float], what: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(series, w, innovations)``: ``series`` as an array, its
        d-th difference ``w`` and the recursion's innovations over it."""
        arr = np.asarray(series, dtype=float)
        if arr.size <= self.order.d + self._warmup:
            raise ValueError(
                f"{what} too short ({arr.size}) for ARIMA{tuple(self.order)}"
            )
        w = difference(arr, self.order.d)
        return arr, w, _arma_recursion(self.intercept, self.ar, self.ma, w)

    def one_step_residuals(self, series: np.ndarray | list[float]) -> np.ndarray:
        """One-step-ahead prediction residuals over a series.

        The residual at position ``t`` is ``y[t] - y_hat[t]`` where
        ``y_hat[t]`` is the model's prediction from history ``y[:t]``.
        The returned array is aligned with ``series``; the first
        ``d + max(p, q)`` positions (where full history is unavailable) are
        set to NaN so callers can mask the warm-up region explicitly.

        Args:
            series: series in the original (undifferenced) scale.

        Returns:
            Array of the same length as ``series``.
        """
        arr, _, resid = self._innovations(series, "series")
        out = np.full(arr.size, np.nan)
        out[self.order.d + self._warmup :] = resid[self._warmup :]
        return out

    def predict_next(self, history: np.ndarray | list[float]) -> float:
        """Predict the next value of the series in the original scale.

        Args:
            history: all observations so far, original scale; must be longer
                than ``d + max(p, q)``.

        Returns:
            The one-step-ahead prediction ``y_hat[len(history)]``.

        O(len(history)) per call: the reference for the streaming
        :class:`OneStepPredictor`, which online callers carry instead.
        """
        return OneStepPredictor(self, history).prediction

    def forecast(
        self, history: np.ndarray | list[float], steps: int
    ) -> np.ndarray:
        """Multi-step forecast by iterating :meth:`predict_next`.

        Future innovations are taken as zero (their conditional mean).

        Args:
            history: observations so far in the original scale.
            steps: number of future points to forecast.

        Returns:
            Array of length ``steps``.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        buf = list(np.asarray(history, dtype=float))
        out = np.empty(steps)
        for k in range(steps):
            nxt = self.predict_next(np.asarray(buf))
            out[k] = nxt
            buf.append(nxt)
        return out

    def forecast_interval(
        self,
        history: np.ndarray | list[float],
        steps: int,
        level: float = 0.95,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forecast with Gaussian prediction intervals.

        The h-step forecast variance is ``sigma2 * sum(psi_j^2, j < h)``
        with ``psi`` the MA(∞) weights of the ARIMA process (computed by
        power-series inversion of the AR/differencing polynomial against
        the MA polynomial).

        Args:
            history: observations so far in the original scale.
            steps: forecast horizon.
            level: two-sided coverage of the interval (e.g. 0.95).

        Returns:
            ``(mean, lower, upper)`` arrays of length ``steps``.
        """
        from scipy import stats as sps

        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        mean = self.forecast(history, steps)
        p, d, q = self.order
        # AR polynomial including differencing: phi(B) * (1 - B)^d.
        ar_poly = np.zeros(p + 1)
        ar_poly[0] = 1.0
        ar_poly[1 : p + 1] = -self.ar
        diff_poly = np.array([1.0])
        for _ in range(d):
            diff_poly = np.convolve(diff_poly, np.array([1.0, -1.0]))
        full_ar = np.convolve(ar_poly, diff_poly)
        ma_poly = np.zeros(q + 1)
        ma_poly[0] = 1.0
        ma_poly[1 : q + 1] = self.ma
        # psi weights by long division: psi(B) = theta(B) / phi_full(B).
        psi = np.zeros(steps)
        for j in range(steps):
            acc = ma_poly[j] if j < ma_poly.size else 0.0
            for i in range(1, min(j, full_ar.size - 1) + 1):
                acc -= full_ar[i] * psi[j - i]
            psi[j] = acc
        variances = self.sigma2 * np.cumsum(psi**2)
        z = float(sps.norm.ppf(0.5 + level / 2.0))
        half = z * np.sqrt(np.maximum(variances, 0.0))
        return mean, mean - half, mean + half


def _arma_step(
    intercept: float,
    ar: np.ndarray,
    ma: np.ndarray,
    w: Sequence[float],
    resid: Sequence[float],
    t: int,
    fill: float,
) -> float:
    """The ARMA prediction of ``w[t]`` from the values and innovations
    before ``t``; lags before the start of ``w`` read ``fill`` (AR) and
    zero (MA).

    The one copy of the step: the CSS fit, the in-sample recursion and
    :class:`OneStepPredictor` all run it, so their float sums are formed
    in the same order.
    """
    acc = intercept
    for i in range(1, len(ar) + 1):
        acc += ar[i - 1] * (w[t - i] if t - i >= 0 else fill)
    for j in range(1, len(ma) + 1):
        acc += ma[j - 1] * (resid[t - j] if t - j >= 0 else 0.0)
    return acc


def _arma_recursion(
    intercept: float, ar: np.ndarray, ma: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """One-step innovations of the ARMA recursion over a differenced
    series ``w``, aligned with it.

    The first ``max(p, q)`` entries are warm-up values predicted with
    partial history (missing AR lags read the series mean, missing MA
    lags a zero innovation).
    """
    n = w.size
    resid = np.zeros(n)
    mean_w = float(w.mean()) if n else 0.0
    for t in range(n):
        resid[t] = w[t] - _arma_step(intercept, ar, ma, w, resid, t, mean_w)
    return resid


def _tail_levels(tail: Sequence[float], d: int) -> list[float]:
    """Last value of each differencing level ``0..d`` of ``tail``.

    Differencing is elementwise (``b - a``, as :func:`numpy.diff`), so
    these equal the last values of the levels of any longer series that
    ends in ``tail`` bit for bit.  Needs ``len(tail) >= d + 1``.
    """
    lasts = [tail[-1]]
    level = list(tail)
    for _ in range(d):
        level = [b - a for a, b in zip(level, level[1:])]
        lasts.append(level[-1])
    return lasts


class OneStepPredictor:
    """Streaming one-step predictions of a fitted model.

    :meth:`ARIMAModel.predict_next` reruns the ARMA recursion over the
    whole history on every call.  A predictor keeps only what the next
    step needs: the last ``d + 1`` samples (one last value per
    differencing level), and the last ``max(p, q)`` differenced values
    and innovations.  :meth:`push` advances it one :func:`_arma_step`
    per sample: O(p + d + q) work and constant memory however long the
    stream runs.

    Seeding runs the model's own recursion over ``history``, so the
    first :attr:`prediction` is ``model.predict_next(history)`` bit for
    bit.  After that:

    - for ``q == 0`` no innovation enters the sum and differencing is
      elementwise, so every prediction equals ``predict_next`` over the
      full history bit for bit;
    - for ``q > 0`` the innovations are carried forward instead of
      recomputed.  The full recursion re-derives its first innovations
      from the mean of the whole history (the fill for AR lags before
      the start), so the two differ by a term that decays like
      ``theta ** k`` with the ticks ``k`` since seeding.

    Args:
        model: the fitted model.
        history: observations so far, original scale; must be longer
            than ``d + max(p, q)``.

    Attributes:
        prediction: the one-step prediction of the next sample, original
            scale.
    """

    def __init__(
        self, model: ARIMAModel, history: np.ndarray | list[float]
    ) -> None:
        arr, w, resid = model._innovations(history, "history")
        d, lags = model.order.d, model._warmup
        self.model = model
        self._tail = deque(arr[arr.size - d - 1 :].tolist(), maxlen=d + 1)
        self._w = deque(w[w.size - lags :].tolist(), maxlen=lags)
        self._resid = deque(resid[resid.size - lags :].tolist(), maxlen=lags)
        self._forecast(_tail_levels(self._tail, d))

    def _forecast(self, levels: list[float]) -> None:
        """Predict the next differenced value, then undo the differencing
        from the last value of each level (``d - 1`` down to 0)."""
        model = self.model
        self._w_next = _arma_step(
            model.intercept, model.ar, model.ma,
            self._w, self._resid, len(self._w), 0.0,
        )
        y_next = self._w_next
        for level in range(model.order.d - 1, -1, -1):
            y_next = levels[level] + y_next
        self.prediction = float(y_next)

    def push(self, value: float) -> None:
        """Append one observed sample and advance to the next prediction."""
        self._tail.append(float(value))
        levels = _tail_levels(self._tail, self.model.order.d)
        self._w.append(levels[-1])
        self._resid.append(levels[-1] - self._w_next)
        self._forecast(levels)


def _hannan_rissanen(
    w: np.ndarray, p: int, q: int
) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """Two-stage Hannan-Rissanen ARMA(p, q) estimation.

    Stage 1 fits a long autoregression to estimate the innovation series;
    stage 2 regresses the observation on AR lags and estimated innovation
    lags.

    Returns:
        Tuple ``(ar, ma, intercept, rss, nobs)``.
    """
    n = w.size
    if q == 0:
        # Pure AR: a single OLS regression suffices.
        if n <= p + 1:
            raise ValueError(f"series too short (n={n}) for AR({p}) fit")
        rows = n - p
        design = np.ones((rows, p + 1))
        for i in range(1, p + 1):
            design[:, i] = w[p - i : n - i]
        target = w[p:]
        coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        resid = target - design @ coef
        rss = float(resid @ resid)
        return coef[1:], np.empty(0), float(coef[0]), rss, rows

    # Stage 1: long AR to approximate the innovations.
    long_p = min(max(p + q, 4) + int(np.floor(np.log(max(n, 2)))), max(n // 4, 1))
    long_p = max(long_p, 1)
    if n <= long_p + p + q + 1:
        raise ValueError(f"series too short (n={n}) for ARMA({p},{q}) fit")
    rows1 = n - long_p
    design1 = np.ones((rows1, long_p + 1))
    for i in range(1, long_p + 1):
        design1[:, i] = w[long_p - i : n - i]
    coef1, _, _, _ = np.linalg.lstsq(design1, w[long_p:], rcond=None)
    innov = np.zeros(n)
    innov[long_p:] = w[long_p:] - design1 @ coef1

    # Stage 2: regress on AR lags and innovation lags.
    start = long_p + max(p, q)
    rows2 = n - start
    design2 = np.ones((rows2, p + q + 1))
    col = 1
    for i in range(1, p + 1):
        design2[:, col] = w[start - i : n - i]
        col += 1
    for j in range(1, q + 1):
        design2[:, col] = innov[start - j : n - j]
        col += 1
    target2 = w[start:]
    coef2, _, _, _ = np.linalg.lstsq(design2, target2, rcond=None)
    resid2 = target2 - design2 @ coef2
    rss = float(resid2 @ resid2)
    intercept = float(coef2[0])
    ar = coef2[1 : p + 1]
    ma = coef2[p + 1 :]
    return ar, ma, intercept, rss, rows2


def _css_objective(params: np.ndarray, w: np.ndarray, p: int, q: int) -> float:
    """Conditional sum of squares for an ARMA parameter vector."""
    resid = _arma_recursion(params[0], params[1 : p + 1], params[p + 1 :], w)
    tail = resid[max(p, q) :]
    return float(tail @ tail)


def fit_arima(
    series: np.ndarray | list[float],
    order: ARIMAOrder | tuple[int, int, int],
    refine: bool = False,
) -> ARIMAModel:
    """Fit an ARIMA(p, d, q) model.

    Args:
        series: training series in the original scale.
        order: (p, d, q) triple.
        refine: when True, polish the Hannan-Rissanen estimates by
            minimising the conditional sum of squares with Nelder-Mead.
            Slower but slightly more accurate for strongly MA processes.

    Returns:
        A fitted :class:`ARIMAModel`.
    """
    with obs.span("arima.fit") as sp:
        model = _fit_arima(series, ARIMAOrder(*order), refine)
    if sp:
        sp.set(
            order=f"({model.order.p},{model.order.d},{model.order.q})",
            nobs=model.train_nobs,
            refine=refine,
        )
    return model


def _fit_arima(
    series: np.ndarray | list[float], order: ARIMAOrder, refine: bool
) -> ARIMAModel:
    order.validate()
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    w = difference(arr, order.d)
    p, _, q = order
    if p == 0 and q == 0:
        # ARIMA(0, d, 0): the differenced series is modelled as
        # intercept + white noise.
        intercept = float(w.mean())
        resid = w - intercept
        rss = float(resid @ resid)
        return ARIMAModel(
            order=order,
            ar=np.empty(0),
            ma=np.empty(0),
            intercept=intercept,
            sigma2=rss / max(w.size, 1),
            train_rss=rss,
            train_nobs=w.size,
        )
    ar, ma, intercept, _, _ = _hannan_rissanen(w, p, q)
    # Evaluate (and optionally refine) on one common basis — the CSS over
    # all post-warm-up observations — so RSS/AIC are comparable across
    # orders and across the refined/unrefined paths.
    params = np.concatenate(([intercept], ar, ma))
    rss = _css_objective(params, w, p, q)
    nobs = w.size - max(p, q)
    if refine:
        result = optimize.minimize(
            _css_objective,
            params,
            args=(w, p, q),
            method="Nelder-Mead",
            options={"maxiter": 400 * (p + q + 1), "xatol": 1e-6, "fatol": 1e-9},
        )
        if result.fun < rss:
            intercept = float(result.x[0])
            ar = result.x[1 : p + 1]
            ma = result.x[p + 1 :]
            rss = float(result.fun)
    sigma2 = rss / max(nobs, 1)
    return ARIMAModel(
        order=order,
        ar=np.asarray(ar, dtype=float),
        ma=np.asarray(ma, dtype=float),
        intercept=intercept,
        sigma2=sigma2,
        train_rss=rss,
        train_nobs=nobs,
    )


def select_order(
    series: np.ndarray | list[float],
    max_p: int = 3,
    max_d: int = 1,
    max_q: int = 2,
) -> ARIMAOrder:
    """Choose an ARIMA order by stationarity screening plus an AIC grid.

    The differencing order ``d`` is the smallest value in ``[0, max_d]`` for
    which the differenced series passes the stationarity screen; (p, q) are
    then selected by minimum AIC over the grid, skipping combinations that
    fail to fit.

    Args:
        series: training series in the original scale.
        max_p: largest AR order considered.
        max_d: largest differencing order considered.
        max_q: largest MA order considered.

    Returns:
        The selected :class:`ARIMAOrder`.
    """
    arr = np.asarray(series, dtype=float)
    d = 0
    for cand in range(max_d + 1):
        d = cand
        diffed = difference(arr, cand)
        if diffed.size >= 8 and is_stationary(diffed):
            break

    best: tuple[float, ARIMAOrder] | None = None
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            if p == 0 and q == 0 and d == 0:
                continue
            try:
                model = fit_arima(arr, (p, d, q))
                score = model.aic()
            except (ValueError, np.linalg.LinAlgError):
                continue
            if best is None or score < best[0]:
                best = (score, ARIMAOrder(p, d, q))
    if best is None:
        raise ValueError("no ARIMA order could be fitted to the series")
    return best[1]
