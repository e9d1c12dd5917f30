"""Cross-domain encoding paths of the detector framework.

Covers the less-travelled combinations: symbol detectors consuming TSS
collections (via SAX words), vector detectors consuming sequence
collections (via n-gram vectors), supervised detectors on series
collections, and detect() across shapes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors import (
    EMDetector,
    FSADetector,
    HMMDetector,
    MLPDetector,
    NotFittedError,
    OneClassSVMDetector,
    SAXDiscordDetector,
)
from repro.eval import roc_auc
from repro.timeseries import DiscreteSequence


class TestSymbolDetectorsOnSeriesCollections:
    @pytest.mark.parametrize("factory", [FSADetector, HMMDetector, SAXDiscordDetector],
                             ids=lambda f: f.name)
    def test_tss_via_sax_words(self, factory, series_collection):
        coll, labels = series_collection
        det = factory()
        scores = det.fit_score(list(coll))
        assert scores.shape == (len(coll),)
        assert roc_auc(labels, scores) > 0.6

    def test_fit_on_series_then_score_sequences_rejected(self, series_collection):
        coll, __ = series_collection
        det = FSADetector().fit(list(coll))
        with pytest.raises(NotFittedError):
            # symbolizer was fitted for series; raw sequences have no encoder
            det.score([DiscreteSequence(("a", "b"))] )


class TestVectorDetectorsOnSequences:
    def test_ngram_encoder_frozen_at_fit(self, sequence_dataset):
        seqs = list(sequence_dataset.sequences)
        det = OneClassSVMDetector().fit(seqs[:40])
        scores = det.score(seqs[40:])
        assert scores.shape == (len(seqs) - 40,)
        assert np.isfinite(scores).all()

    def test_fit_on_sequences_then_series_rejected(self, sequence_dataset, series_collection):
        seqs = list(sequence_dataset.sequences)
        coll, __ = series_collection
        det = EMDetector().fit(seqs)
        with pytest.raises(NotFittedError):
            det.score(list(coll))


class TestSupervisedOnCollections:
    def test_mlp_fit_labeled_on_series_collection(self, series_collection):
        coll, labels = series_collection
        det = MLPDetector(n_epochs=50, seed=0)
        det.fit_labeled(list(coll), labels)
        scores = det.score(list(coll))
        assert roc_auc(labels, scores) > 0.9

    def test_mlp_fit_labeled_on_sequences(self, sequence_dataset):
        seqs = list(sequence_dataset.sequences)
        det = MLPDetector(n_epochs=50, seed=0)
        det.fit_labeled(seqs, sequence_dataset.labels)
        assert roc_auc(sequence_dataset.labels, det.score(seqs)) > 0.95


class TestDetectAcrossShapes:
    def test_detect_on_sequence_collection(self, sequence_dataset):
        det = FSADetector().fit(list(sequence_dataset.sequences))
        result = det.detect(list(sequence_dataset.sequences), contamination=0.1)
        assert result.flags.shape == (len(sequence_dataset.sequences),)
        # the flagged items must include mostly true anomalies
        flagged_labels = sequence_dataset.labels[result.indices]
        if result.n_flagged:
            assert flagged_labels.mean() > 0.5

    def test_detect_on_series_collection(self, series_collection):
        coll, labels = series_collection
        det = OneClassSVMDetector().fit(list(coll))
        result = det.detect(list(coll), contamination=0.12)
        assert labels[result.indices].sum() >= 0.5 * labels.sum()
