"""Unit tests for the pattern-database (NPD / NMD) family."""

from __future__ import annotations

import pytest

from repro.detectors import (
    AnomalyDictionaryDetector,
    NormalPatternDatabaseDetector,
)
from repro.eval import roc_auc
from repro.timeseries import DiscreteSequence


def cyclic(n=48):
    return DiscreteSequence(tuple("ABCD" * (n // 4)))


class TestNPD:
    def test_familiar_windows_score_low(self):
        det = NormalPatternDatabaseDetector(window=4).fit([cyclic()] * 3)
        scores = det._score_positions(cyclic(16))
        assert scores.max() < 0.5

    def test_unseen_window_soft_mismatch(self):
        det = NormalPatternDatabaseDetector(window=4).fit([cyclic()] * 3)
        # one substituted symbol: soft mismatch ~ 0.5 + 0.5*(1/4)
        broken = DiscreteSequence(("A", "B", "Z", "D"))
        scores = det._score_positions(broken)
        assert 0.5 <= scores.max() <= 0.7

    def test_totally_alien_window_scores_high(self):
        det = NormalPatternDatabaseDetector(window=4).fit([cyclic()] * 3)
        alien = DiscreteSequence(("W", "X", "Y", "Z"))
        assert det._score_positions(alien).max() == 1.0

    def test_collection_auc(self, sequence_dataset):
        det = NormalPatternDatabaseDetector(window=5)
        scores = det.fit_score(list(sequence_dataset.sequences))
        assert roc_auc(sequence_dataset.labels, scores) > 0.9

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            NormalPatternDatabaseDetector().fit([DiscreteSequence(())])


class TestNMD:
    def test_fit_anomalies_direct(self):
        det = AnomalyDictionaryDetector(window=3)
        det.fit_anomalies([DiscreteSequence(tuple("xyz"))])
        hit = det._score_positions(DiscreteSequence(tuple("axyzb")))
        assert hit.max() == 1.0

    def test_exact_matching_mode(self):
        det = AnomalyDictionaryDetector(window=3, soft=False)
        det.fit_anomalies([DiscreteSequence(tuple("xyz"))])
        near_miss = det._score_positions(DiscreteSequence(tuple("xyq")))
        assert near_miss.max() == 0.0

    def test_soft_matching_scores_partial(self):
        det = AnomalyDictionaryDetector(window=4, soft=True)
        det.fit_anomalies([DiscreteSequence(tuple("wxyz"))])
        partial = det._score_positions(DiscreteSequence(tuple("wxya")))
        assert 0.5 <= partial.max() < 1.0

    def test_fit_labeled_excludes_normal_windows(self, sequence_dataset):
        seqs = list(sequence_dataset.sequences)
        y = sequence_dataset.labels
        det = AnomalyDictionaryDetector(window=4).fit_labeled(seqs, y)
        scores = det.score(seqs)
        assert roc_auc(y, scores) > 0.8

    def test_unsupervised_bootstrap(self, sequence_dataset):
        det = AnomalyDictionaryDetector(window=4)
        scores = det.fit_score(list(sequence_dataset.sequences))
        assert roc_auc(sequence_dataset.labels, scores) > 0.7

    def test_fit_labeled_requires_positives(self):
        seqs = [cyclic()] * 3
        with pytest.raises(ValueError, match="no anomalous"):
            AnomalyDictionaryDetector().fit_labeled(seqs, [False] * 3)

    def test_dictionary_capped(self):
        det = AnomalyDictionaryDetector(window=2, max_dictionary=5)
        seqs = [DiscreteSequence(tuple(f"{i}{i+1}")) for i in range(20)]
        det.fit_anomalies(seqs)
        assert len(det._dictionary) <= 5
