"""Detection-quality metrics, implemented from first principles.

Binary-decision metrics (precision / recall / F1), threshold-free ranking
metrics (ROC-AUC, average precision, precision@k), and the point-adjusted
event protocol used when an anomaly spans several samples (detecting any
sample of an event counts as detecting the event).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionCounts",
    "confusion",
    "precision",
    "recall",
    "f1_score",
    "roc_auc",
    "average_precision",
    "precision_at_k",
    "best_f1",
    "point_adjust",
]


def _as_bool(labels) -> np.ndarray:
    arr = np.asarray(labels)
    return arr.astype(bool)


def _as_scores(scores) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {arr.shape}")
    if np.isnan(arr).any():
        raise ValueError("scores contain NaN")
    return arr


@dataclass(frozen=True)
class ConfusionCounts:
    """The four cells of a binary confusion matrix."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def confusion(labels, predictions) -> ConfusionCounts:
    """Confusion counts from boolean ground truth and predictions."""
    y = _as_bool(labels)
    p = _as_bool(predictions)
    if y.shape != p.shape:
        raise ValueError(f"shape mismatch: labels {y.shape} vs predictions {p.shape}")
    return ConfusionCounts(
        tp=int((y & p).sum()),
        fp=int((~y & p).sum()),
        fn=int((y & ~p).sum()),
        tn=int((~y & ~p).sum()),
    )


def precision(labels, predictions) -> float:
    """Fraction of predicted positives that are true anomalies."""
    return confusion(labels, predictions).precision


def recall(labels, predictions) -> float:
    """Fraction of true anomalies that are predicted positive."""
    return confusion(labels, predictions).recall


def f1_score(labels, predictions) -> float:
    """Harmonic mean of precision and recall."""
    return confusion(labels, predictions).f1


def roc_auc(labels, scores) -> float:
    """Area under the ROC curve via the Mann-Whitney rank statistic.

    Ties in scores receive the average rank, so the estimate is exact in
    the presence of tied scores.  Returns 0.5 when either class is empty
    (no ranking information).
    """
    y = _as_bool(labels)
    s = _as_scores(scores)
    if y.shape != s.shape:
        raise ValueError("labels and scores must have equal length")
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    rank_sum_pos = float(ranks[y].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def average_precision(labels, scores) -> float:
    """Area under the precision-recall curve (step interpolation).

    Equals the mean of precision values at each true-positive rank when
    items are sorted by decreasing score.
    """
    y = _as_bool(labels)
    s = _as_scores(scores)
    if y.shape != s.shape:
        raise ValueError("labels and scores must have equal length")
    n_pos = int(y.sum())
    if n_pos == 0:
        return 0.0
    order = np.argsort(-s, kind="mergesort")
    hits = y[order].astype(np.float64)
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, len(s) + 1, dtype=np.float64)
    precision_at_rank = cum_hits / ranks
    return float((precision_at_rank * hits).sum() / n_pos)


def precision_at_k(labels, scores, k: int) -> float:
    """Fraction of true anomalies among the ``k`` highest-scored items."""
    y = _as_bool(labels)
    s = _as_scores(scores)
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(s))
    top = np.argsort(-s, kind="mergesort")[:k]
    return float(y[top].sum()) / k


def best_f1(labels, scores, n_thresholds: int = 200) -> tuple[float, float]:
    """Best achievable F1 over a threshold sweep; returns (f1, threshold)."""
    y = _as_bool(labels)
    s = _as_scores(scores)
    uniq = np.unique(s)
    if uniq.size > n_thresholds:
        qs = np.linspace(0.0, 1.0, n_thresholds)
        thresholds = np.quantile(uniq, qs)
    else:
        thresholds = uniq
    best = (0.0, float(thresholds[0]) if thresholds.size else 0.0)
    for th in thresholds:
        f1 = confusion(y, s >= th).f1
        if f1 > best[0]:
            best = (f1, float(th))
    return best


def point_adjust(labels, predictions) -> np.ndarray:
    """Point-adjusted predictions for event (span) ground truth.

    For every maximal run of consecutive True labels (one anomalous event),
    if *any* sample of the run is predicted positive, the whole run is
    marked positive.  Predictions outside events are unchanged.  This is
    the standard protocol for span anomalies (level shifts, temporary
    changes) where flagging the onset should earn full credit.
    """
    y = _as_bool(labels)
    p = _as_bool(predictions).copy()
    if y.shape != p.shape:
        raise ValueError("labels and predictions must have equal length")
    n = len(y)
    i = 0
    while i < n:
        if not y[i]:
            i += 1
            continue
        j = i
        while j < n and y[j]:
            j += 1
        if p[i:j].any():
            p[i:j] = True
        i = j
    return p
