"""Unit tests for the pipeline's internal helpers."""

from __future__ import annotations

import math

import numpy as np

from repro.core.tasks import (
    _peak_indices,
    _robust_standardize,
    _robust_threshold,
    _Trace,
)


class TestRobustThreshold:
    def test_clean_gaussian(self, rng):
        scores = rng.normal(0, 1, 5000)
        th = _robust_threshold(scores, sigma=6.0)
        assert 4.5 < th < 7.5  # med + 6*MAD_scaled of N(0,1)

    def test_resists_outliers(self, rng):
        scores = rng.normal(0, 1, 1000)
        contaminated = scores.copy()
        contaminated[:20] = 100.0
        clean_th = _robust_threshold(scores, 6.0)
        dirty_th = _robust_threshold(contaminated, 6.0)
        assert abs(dirty_th - clean_th) < 1.5

    def test_empty_gives_inf(self):
        assert _robust_threshold(np.array([]), 6.0) == math.inf

    def test_constant_scores_fallback(self):
        th = _robust_threshold(np.full(10, 3.0), 6.0)
        assert np.isfinite(th)


class TestRobustStandardize:
    def test_median_zero_mad_one(self, rng):
        X = rng.normal(5, 3, size=(500, 4))
        Z = _robust_standardize(X)
        assert np.allclose(np.median(Z, axis=0), 0.0, atol=1e-9)
        assert np.allclose(
            np.median(np.abs(Z), axis=0) * 1.4826, 1.0, atol=0.05
        )

    def test_constant_column_untouched_scale(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = _robust_standardize(X)
        assert np.allclose(Z[:, 0], 0.0)
        assert np.isfinite(Z).all()


class TestPeakIndices:
    def test_single_run_single_peak(self):
        scores = np.array([0, 0, 5, 9, 6, 0, 0], dtype=float)
        peaks = _peak_indices(scores, threshold=4.0, gap=2, max_peaks=5)
        assert peaks == [3]

    def test_distant_runs_separate_peaks(self):
        scores = np.zeros(30)
        scores[5] = 8.0
        scores[20] = 9.0
        peaks = _peak_indices(scores, threshold=4.0, gap=2, max_peaks=5)
        assert sorted(peaks) == [5, 20]

    def test_nearby_runs_merge(self):
        scores = np.zeros(30)
        scores[5] = 8.0
        scores[7] = 9.0  # within gap=3 of the first
        peaks = _peak_indices(scores, threshold=4.0, gap=3, max_peaks=5)
        assert peaks == [7]

    def test_max_peaks_keeps_strongest(self):
        scores = np.zeros(50)
        for i, v in ((5, 5.0), (20, 9.0), (40, 7.0)):
            scores[i] = v
        peaks = _peak_indices(scores, threshold=4.0, gap=2, max_peaks=2)
        assert set(peaks) == {20, 40}

    def test_nothing_above_threshold(self):
        assert _peak_indices(np.zeros(10), 1.0, 2, 3) == []


class TestTrace:
    def test_covers_half_open(self):
        trace = _Trace("c", start=10.0, step=2.0, scores=np.zeros(5), threshold=1.0)
        assert trace.covers(10.0)
        assert trace.covers(19.9)
        assert not trace.covers(20.0)
        assert not trace.covers(9.9)
        assert trace.end == 20.0
