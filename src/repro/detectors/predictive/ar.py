"""Autoregressive prediction-model detector (Hill & Minsker 2010) —
Table 1, row 20.

"Prediction models (PM) define the outlier score based on the delta value
to the predicted value" (Section 3).  An AR(p) model is fitted by least
squares on the training signal; the anomaly score of a sample is the
absolute one-step-ahead prediction residual in units of the residual
standard deviation.
"""

from __future__ import annotations

import numpy as np

from ...timeseries import TimeSeries
from ..base import DataShape, Family, VectorDetector

__all__ = ["ARDetector", "fit_ar_coefficients"]


def fit_ar_coefficients(x: np.ndarray, order: int, ridge: float = 1e-8) -> tuple[np.ndarray, float, float]:
    """Least-squares AR(p) fit; returns (coefficients, intercept, residual sigma)."""
    x = np.asarray(x, dtype=np.float64)
    x = x[~np.isnan(x)]
    n = len(x)
    if order < 1:
        raise ValueError("order must be >= 1")
    if n <= order + 1:
        raise ValueError(f"need more than {order + 1} samples to fit AR({order})")
    rows = np.column_stack(
        [x[order - 1 - k : n - 1 - k] for k in range(order)]
    )
    design = np.column_stack([rows, np.ones(rows.shape[0])])
    target = x[order:]
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    beta = np.linalg.solve(gram, design.T @ target)
    coeffs, intercept = beta[:-1], float(beta[-1])
    residuals = target - design @ beta
    sigma = float(residuals.std()) or 1.0
    return coeffs, intercept, sigma


class ARDetector(VectorDetector):
    """AR(p) one-step-ahead residual scoring.

    Native usage is on a series (``fit_series`` / ``score_series``); the
    window width argument is ignored because the model consumes the raw
    signal.  Matrix input (PTS collections or encoded sequences) treats
    every row as a short signal and scores it by its largest in-row
    residual under a model pooled over the training rows.
    """

    name = "ar"
    family = Family.PREDICTIVE
    supports = frozenset({DataShape.POINTS, DataShape.SUBSEQUENCES})
    citation = "Hill & Minsker 2010 [15]"
    supports_batch = True

    def __init__(self, order: int = 3) -> None:
        super().__init__()
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order

    # ------------------------------------------------------------------
    def _residual_zscores(self, x: np.ndarray) -> np.ndarray:
        """|one-step-ahead residual| / sigma per sample (first p samples 0)."""
        p = self._order_eff
        x = np.nan_to_num(np.asarray(x, dtype=np.float64), nan=0.0)
        n = len(x)
        out = np.zeros(n)
        if n <= p:
            return out
        rows = np.column_stack([x[p - 1 - k : n - 1 - k] for k in range(p)])
        preds = rows @ self._coeffs + self._intercept
        out[p:] = np.abs(x[p:] - preds) / self._sigma
        return out

    # -- native series path --------------------------------------------
    def _fit_series_impl(self, series: TimeSeries, width: int, stride: int) -> None:
        x = series.values
        self._order_eff = min(self.order, max(1, len(x) // 4))
        self._coeffs, self._intercept, self._sigma = fit_ar_coefficients(
            x, self._order_eff
        )

    def _score_series_impl(self, series: TimeSeries) -> np.ndarray:
        return self._residual_zscores(series.values)

    # -- batched series path --------------------------------------------
    def fit_score_series_batch(self, series_list, width: int = 16, stride: int = 1):
        """Vectorized AR scoring across a stack of same-length series.

        Fits one AR(p) model per series with a single batched normal-equation
        solve instead of N sequential least-squares fits.  Falls back to the
        per-series loop when the batch is trivial, lengths differ, any value
        is NaN (the per-series fit drops NaNs, which changes lag alignment),
        or the series are too short to fit.
        """
        series_list = list(series_list)
        lengths = {len(s.values) for s in series_list}
        if len(series_list) > 1 and len(lengths) == 1:
            n = lengths.pop()
            p = min(self.order, max(1, n // 4))
            X = np.asarray([s.values for s in series_list], dtype=np.float64)
            if n > p + 1 and not np.isnan(X).any():
                scores = self._run_hook(
                    "fit_score_series_batch", self._batch_residual_zscores, X, p
                )
                return list(self._sanitize_rows(scores))
        return super().fit_score_series_batch(series_list, width=width, stride=stride)

    @staticmethod
    def _batch_residual_zscores(X: np.ndarray, p: int, ridge: float = 1e-8) -> np.ndarray:
        n = X.shape[1]
        # (N, n-p, p) lag matrices, one per series, same layout as
        # fit_ar_coefficients builds for a single series
        rows = np.stack([X[:, p - 1 - k : n - 1 - k] for k in range(p)], axis=2)
        design = np.concatenate([rows, np.ones((X.shape[0], n - p, 1))], axis=2)
        target = X[:, p:]
        gram = np.einsum("sij,sik->sjk", design, design) + ridge * np.eye(p + 1)
        rhs = np.einsum("sij,si->sj", design, target)
        beta = np.linalg.solve(gram, rhs[..., None])[..., 0]
        residuals = target - np.einsum("sij,sj->si", design, beta)
        sigma = residuals.std(axis=1)
        sigma[sigma == 0.0] = 1.0
        preds = np.einsum("sij,sj->si", rows, beta[:, :-1]) + beta[:, -1:]
        out = np.zeros_like(X)
        out[:, p:] = np.abs(target - preds) / sigma[:, None]
        return out

    # -- matrix path -----------------------------------------------------
    def _fit_matrix(self, X: np.ndarray) -> None:
        pooled = X.ravel()
        self._order_eff = min(self.order, max(1, X.shape[1] - 2)) if X.shape[1] > 2 else 1
        try:
            self._coeffs, self._intercept, self._sigma = fit_ar_coefficients(
                pooled, self._order_eff
            )
        except ValueError:
            # degenerate tiny input: fall back to mean prediction
            self._coeffs = np.zeros(self._order_eff)
            self._intercept = float(np.nanmean(pooled))
            self._sigma = float(np.nanstd(pooled)) or 1.0

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        return np.array([self._residual_zscores(row).max(initial=0.0) for row in X])
