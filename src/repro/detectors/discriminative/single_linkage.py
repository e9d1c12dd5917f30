"""Single-linkage clustering over unlabeled data (Portnoy et al. 2001) —
Table 1, row 7.

Width-based single-linkage clustering (as in the original intrusion
detection work): clusters are merged while the linkage distance stays below
a width threshold; points landing in small clusters are anomalous.  Scores
blend cluster smallness with the distance to the nearest big-cluster
representative, so the output is a graded outlierness rather than a flag.
"""

from __future__ import annotations

import numpy as np

from .._math import batch_pairwise_sq_dists, pairwise_sq_dists
from ..base import DataShape, Family, VectorDetector

__all__ = ["SingleLinkageDetector"]


class SingleLinkageDetector(VectorDetector):
    """Single-linkage dendrogram cut; small clusters score as outliers."""

    name = "single-linkage"
    family = Family.DISCRIMINATIVE
    supports = frozenset(
        {DataShape.POINTS, DataShape.SUBSEQUENCES, DataShape.SERIES}
    )
    citation = "Portnoy et al. 2001 [32]"
    supports_batch = True

    def __init__(self, width_quantile: float = 0.3,
                 big_cluster_fraction: float = 0.15) -> None:
        super().__init__()
        if not 0 < width_quantile < 1:
            raise ValueError("width_quantile must be in (0, 1)")
        if not 0 < big_cluster_fraction < 1:
            raise ValueError("big_cluster_fraction must be in (0, 1)")
        self.width_quantile = width_quantile
        self.big_cluster_fraction = big_cluster_fraction

    def _fit_matrix(self, X: np.ndarray) -> None:
        # scipy is imported here, not at module level: this detector is
        # its only user, and a default run never fits it
        from scipy.cluster.hierarchy import fcluster, linkage
        from scipy.spatial.distance import pdist

        n = X.shape[0]
        if n == 1:
            self._big_points = X.copy()
            self._scale = 1.0
            return
        dists = pdist(X)
        tree = linkage(dists, method="single")
        width = float(np.quantile(dists, self.width_quantile))
        if width <= 0:
            width = float(dists.max()) or 1.0
        labels = fcluster(tree, t=width, criterion="distance")
        sizes = np.bincount(labels)
        big_labels = np.where(sizes >= self.big_cluster_fraction * n)[0]
        member_mask = np.isin(labels, big_labels)
        if not member_mask.any():
            biggest = int(sizes.argmax())
            member_mask = labels == biggest
        self._big_points = X[member_mask].copy()
        self._scale = width

    def _score_matrix(self, X: np.ndarray) -> np.ndarray:
        d2 = pairwise_sq_dists(X, self._big_points)
        return np.sqrt(d2.min(axis=1)) / self._scale

    def _batch_score_windows(self, windows: np.ndarray) -> np.ndarray:
        # The dendrogram cut stays the scalar scipy path per series
        # (re-deriving linkage thresholds vectorized risks flipping cluster
        # membership at fp ties); only the distance-to-big-cluster scoring
        # — the O(windows x members x width) part — is batched.
        n_series, n_windows, width = windows.shape
        big_points = []
        scales = np.empty(n_series)
        for i in range(n_series):
            self._fit_matrix(windows[i])
            big_points.append(self._big_points)
            scales[i] = self._scale
        # pad ragged member sets by repeating the first member: duplicate
        # columns cannot change the min distance, so scores are unchanged
        n_big = max(b.shape[0] for b in big_points)
        padded = np.empty((n_series, n_big, width))
        for i, big in enumerate(big_points):
            padded[i, : big.shape[0]] = big
            padded[i, big.shape[0]:] = big[0]
        d2 = batch_pairwise_sq_dists(windows, padded)
        return np.sqrt(d2.min(axis=2)) / scales[:, None]
