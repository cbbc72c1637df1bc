"""Statistical substrate for InvarNet-X.

This subpackage provides from-scratch implementations of the two statistical
engines the paper relies on:

- :mod:`repro.stats.arima` — ARIMA(p, d, q) modelling of CPI time series,
  used by the performance-anomaly detector (paper §3.2).
- :mod:`repro.stats.mic` — the Maximal Information Coefficient of
  Reshef et al. (Science, 2011), used to build likely invariants
  (paper §3.3).
- :mod:`repro.stats.micfast` — whole association matrices on the
  batched MIC kernel (:func:`mic_matrix_fast`, one serial kernel call
  per window) and a content-hash LRU cache of computed matrices.

Supporting modules supply shared time-series machinery
(:mod:`repro.stats.timeseries`) and association/regression helpers
(:mod:`repro.stats.correlation`).
"""

from repro.stats.arima import ARIMAModel, fit_arima, select_order
from repro.stats.correlation import pearson, polyfit2, spearman
from repro.stats.mic import mic
from repro.stats.micfast import (
    AssociationCache,
    association_cache,
    cached_mic_matrix,
    clear_association_cache,
    mic_matrix_fast,
)
from repro.stats.timeseries import acf, difference, pacf, undifference

__all__ = [
    "ARIMAModel",
    "fit_arima",
    "select_order",
    "mic",
    "mic_matrix_fast",
    "cached_mic_matrix",
    "AssociationCache",
    "association_cache",
    "clear_association_cache",
    "pearson",
    "spearman",
    "polyfit2",
    "acf",
    "pacf",
    "difference",
    "undifference",
]
