"""Fixed-size window extraction over numeric series.

Section 3 of the paper: "anomalies in time series can be extracted by a
straightforward computation or by using overlapping fixed size windows,
which, in turn, are aggregated".  These helpers produce the overlapping /
tumbling window views every window-based detector (NPD, NMD, OS, window
features for the supervised detectors) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List

import numpy as np

from .series import TimeSeries

__all__ = [
    "Window",
    "sliding_windows",
    "sliding_window_matrix",
    "tumbling_windows",
    "window_features",
    "FEATURE_NAMES",
]


@dataclass(frozen=True)
class Window:
    """One extracted window: the sample span plus its values."""

    start_index: int
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.values.shape[0])


def _resolve_values(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    return np.asarray(series, dtype=np.float64)


def sliding_windows(series, width: int, stride: int = 1) -> Iterator[Window]:
    """Overlapping fixed-size windows, left to right.

    A trailing remainder shorter than ``width`` is not emitted; window-based
    detectors require equal-length windows.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    values = _resolve_values(series)
    for start in range(0, len(values) - width + 1, stride):
        yield Window(start, values[start : start + width])


def sliding_window_matrix(series, width: int, stride: int = 1) -> np.ndarray:
    """All sliding windows stacked as rows of a ``(n_windows, width)`` matrix."""
    values = _resolve_values(series)
    if width < 1 or stride < 1:
        raise ValueError("width and stride must be >= 1")
    n = (len(values) - width) // stride + 1
    if n <= 0:
        return np.empty((0, width))
    # stride-tricks view, then an explicit copy so callers may mutate rows
    view = np.lib.stride_tricks.sliding_window_view(values, width)[::stride]
    return np.array(view[:n])


def tumbling_windows(series, width: int) -> Iterator[Window]:
    """Non-overlapping adjacent windows (stride == width)."""
    yield from sliding_windows(series, width, stride=width)


FEATURE_NAMES = ("mean", "std", "min", "max", "slope", "energy")


def window_features(series, width: int, stride: int = 1) -> np.ndarray:
    """Aggregate each sliding window into a small feature vector.

    Features per window (see :data:`FEATURE_NAMES`): mean, standard
    deviation, min, max, least-squares slope, and mean squared value
    (energy).  Returns a ``(n_windows, 6)`` matrix.
    """
    mat = sliding_window_matrix(series, width, stride)
    if mat.shape[0] == 0:
        return np.empty((0, len(FEATURE_NAMES)))
    x = np.arange(width, dtype=np.float64)
    x = x - x.mean()
    denom = float((x * x).sum()) or 1.0
    slope = (mat * x).sum(axis=1) / denom
    feats = np.column_stack(
        [
            mat.mean(axis=1),
            mat.std(axis=1),
            mat.min(axis=1),
            mat.max(axis=1),
            slope,
            (mat * mat).mean(axis=1),
        ]
    )
    return feats


def window_scores_to_point_scores(
    window_scores: np.ndarray,
    n_points: int,
    width: int,
    stride: int = 1,
    reduce: Callable[[np.ndarray], float] = np.max,
) -> np.ndarray:
    """Spread per-window scores back onto the original sample axis.

    Each sample receives the reduction (default: max) of the scores of all
    windows covering it; samples covered by no window inherit their nearest
    covered neighbour's score.  This is how window-based detectors report
    "exact positions of anomalies" (Section 3).
    """
    if n_points <= 0:
        return np.empty(0)
    scores: List[List[float]] = [[] for _ in range(n_points)]
    for w_idx, s in enumerate(np.asarray(window_scores, dtype=np.float64)):
        lo = w_idx * stride
        hi = min(lo + width, n_points)
        for i in range(lo, hi):
            scores[i].append(float(s))
    out = np.full(n_points, np.nan)
    for i, bucket in enumerate(scores):
        if bucket:
            out[i] = float(reduce(np.asarray(bucket)))
    # fill uncovered tail/head samples from nearest covered sample
    if np.isnan(out).any():
        covered = np.where(~np.isnan(out))[0]
        if covered.size == 0:
            return np.zeros(n_points)
        idx = np.arange(n_points)
        nearest = covered[np.argmin(np.abs(idx[:, None] - covered[None, :]), axis=1)]
        out = out[nearest]
    return out
