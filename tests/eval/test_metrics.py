"""Unit tests for the detection metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import (
    average_precision,
    best_f1,
    confusion,
    f1_score,
    point_adjust,
    precision,
    precision_at_k,
    recall,
    roc_auc,
)


class TestConfusion:
    def test_cells(self):
        y = [True, True, False, False]
        p = [True, False, True, False]
        c = confusion(y, p)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
        assert c.n == 4

    def test_precision_recall_f1(self):
        y = [True, True, True, False]
        p = [True, True, False, False]
        assert precision(y, p) == 1.0
        assert recall(y, p) == pytest.approx(2 / 3)
        assert f1_score(y, p) == pytest.approx(0.8)

    def test_empty_denominators(self):
        c = confusion([False, False], [False, False])
        assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion([True], [True, False])


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([False, False, True, True], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([True, True, False], [0.0, 0.1, 0.9]) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        y = rng.random(2000) < 0.1
        s = rng.random(2000)
        assert roc_auc(y, s) == pytest.approx(0.5, abs=0.05)

    def test_ties_average(self):
        # all scores equal: AUC must be exactly 0.5
        assert roc_auc([True, False, True, False], [1.0, 1.0, 1.0, 1.0]) == 0.5

    def test_single_class_returns_half(self):
        assert roc_auc([False, False], [0.1, 0.2]) == 0.5

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(1)
        y = rng.random(60) < 0.3
        s = rng.normal(size=60)
        pos = s[y]
        neg = s[~y]
        pairs = sum(
            1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg
        )
        expected = pairs / (len(pos) * len(neg))
        assert roc_auc(y, s) == pytest.approx(expected)

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            roc_auc([True, False], [np.nan, 0.0])


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision([False, True], [0.0, 1.0]) == 1.0

    def test_alternating(self):
        # ranks: pos at 1 and 3 → AP = (1/1 + 2/3)/2
        y = [True, False, True, False]
        s = [4.0, 3.0, 2.0, 1.0]
        assert average_precision(y, s) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_no_positives(self):
        assert average_precision([False, False], [0.1, 0.2]) == 0.0


class TestPrecisionAtK:
    def test_basic(self):
        y = [True, False, True, False]
        s = [0.9, 0.8, 0.7, 0.1]
        assert precision_at_k(y, s, 2) == 0.5
        assert precision_at_k(y, s, 3) == pytest.approx(2 / 3)

    def test_k_larger_than_n(self):
        assert precision_at_k([True], [1.0], 10) == 1.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            precision_at_k([True], [1.0], 0)


class TestBestF1:
    def test_finds_separating_threshold(self):
        y = [False] * 50 + [True] * 5
        s = list(np.linspace(0, 1, 50)) + [2.0] * 5
        f1, th = best_f1(y, s)
        assert f1 == 1.0
        assert th > 1.0

    def test_degenerate_scores(self):
        f1, __ = best_f1([True, False], [1.0, 1.0])
        assert 0.0 <= f1 <= 1.0


class TestPointAdjust:
    def test_full_event_credit(self):
        y = [False, True, True, True, False]
        p = [False, False, True, False, False]
        adj = point_adjust(y, p)
        assert adj.tolist() == [False, True, True, True, False]

    def test_missed_event_unchanged(self):
        y = [True, True, False]
        p = [False, False, True]
        adj = point_adjust(y, p)
        assert adj.tolist() == [False, False, True]

    def test_multiple_events_independent(self):
        y = [True, False, True, True]
        p = [True, False, False, False]
        adj = point_adjust(y, p)
        assert adj.tolist() == [True, False, False, False]

    def test_does_not_mutate_input(self):
        p = np.array([False, True])
        point_adjust(np.array([True, True]), p)
        assert p.tolist() == [False, True]
