"""Unit tests for window extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.timeseries import (
    FEATURE_NAMES,
    TimeSeries,
    sliding_window_matrix,
    sliding_windows,
    tumbling_windows,
    window_features,
    window_scores_to_point_scores,
)


class TestSlidingWindows:
    def test_count_and_positions(self):
        ws = list(sliding_windows(np.arange(10.0), width=4, stride=2))
        assert [w.start_index for w in ws] == [0, 2, 4, 6]
        assert all(len(w) == 4 for w in ws)

    def test_remainder_not_emitted(self):
        ws = list(sliding_windows(np.arange(5.0), width=3, stride=3))
        assert [w.start_index for w in ws] == [0]

    def test_accepts_timeseries(self):
        ts = TimeSeries(np.arange(6.0))
        ws = list(sliding_windows(ts, width=3))
        assert len(ws) == 4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(sliding_windows(np.arange(5.0), width=0))
        with pytest.raises(ValueError):
            list(sliding_windows(np.arange(5.0), width=2, stride=0))


class TestWindowMatrix:
    def test_matrix_matches_iterator(self):
        x = np.arange(12.0)
        mat = sliding_window_matrix(x, width=5, stride=3)
        expected = [w.values for w in sliding_windows(x, 5, 3)]
        assert mat.shape == (len(expected), 5)
        assert np.array_equal(mat, np.vstack(expected))

    def test_matrix_is_writable_copy(self):
        x = np.arange(10.0)
        mat = sliding_window_matrix(x, width=3)
        mat[0, 0] = 99.0
        assert x[0] == 0.0

    def test_too_short_series_gives_empty(self):
        mat = sliding_window_matrix(np.arange(2.0), width=5)
        assert mat.shape == (0, 5)


class TestTumbling:
    def test_non_overlapping(self):
        ws = list(tumbling_windows(np.arange(9.0), width=3))
        assert [w.start_index for w in ws] == [0, 3, 6]


class TestFeatures:
    def test_feature_shape(self):
        feats = window_features(np.arange(20.0), width=5)
        assert feats.shape == (16, len(FEATURE_NAMES))

    def test_constant_window_features(self):
        feats = window_features(np.full(6, 3.0), width=3)
        mean, std, mn, mx, slope, energy = feats[0]
        assert mean == 3.0 and std == 0.0 and mn == 3.0 and mx == 3.0
        assert slope == 0.0 and energy == 9.0

    def test_linear_window_slope(self):
        feats = window_features(np.arange(10.0), width=5)
        assert feats[0, 4] == pytest.approx(1.0)


class TestScoreSpreading:
    def test_max_reduction_over_covering_windows(self):
        # windows of width 2, stride 1 over 4 points; scores 0,5,0
        out = window_scores_to_point_scores(
            np.array([0.0, 5.0, 0.0]), n_points=4, width=2, stride=1
        )
        assert out.tolist() == [0.0, 5.0, 5.0, 0.0]

    def test_uncovered_tail_inherits_nearest(self):
        out = window_scores_to_point_scores(
            np.array([1.0]), n_points=5, width=2, stride=1
        )
        assert out.tolist() == [1.0] * 5

    def test_empty(self):
        assert window_scores_to_point_scores(np.array([]), 0, 4).size == 0

    def test_no_windows_gives_zeros(self):
        out = window_scores_to_point_scores(np.array([]), n_points=3, width=4)
        assert out.tolist() == [0.0, 0.0, 0.0]
