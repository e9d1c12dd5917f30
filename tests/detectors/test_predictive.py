"""Unit tests for the predictive (PM) family: AR and VAR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors import ARDetector, NotFittedError, VARDetector, fit_ar_coefficients
from repro.eval import roc_auc
from repro.synthetic import ar_process, inject_additive, inject_level_shift


class TestFitAR:
    def test_recovers_coefficients(self, rng):
        ts = ar_process(20_000, rng, (0.7,), 1.0)
        coeffs, intercept, sigma = fit_ar_coefficients(ts.values, order=1)
        assert coeffs[0] == pytest.approx(0.7, abs=0.02)
        assert abs(intercept) < 0.05
        assert sigma == pytest.approx(1.0, rel=0.05)

    def test_ar2_recovery(self, rng):
        ts = ar_process(30_000, rng, (0.5, 0.3), 1.0)
        coeffs, __, __ = fit_ar_coefficients(ts.values, order=2)
        assert coeffs[0] == pytest.approx(0.5, abs=0.03)
        assert coeffs[1] == pytest.approx(0.3, abs=0.03)

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            fit_ar_coefficients(np.arange(4.0), order=3)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            fit_ar_coefficients(np.arange(100.0), order=0)


class TestARDetector:
    def test_additive_outlier_max_score(self, rng):
        base = ar_process(800, rng, (0.6,), 1.0)
        series, inj = inject_additive(base, 500, 10.0)
        scores = ARDetector(order=2).fit_score_series(series, width=1)
        assert scores.argmax() == inj.index

    def test_level_shift_onset_spikes(self, rng):
        base = ar_process(600, rng, (0.5,), 1.0)
        series, inj = inject_level_shift(base, 300, 8.0)
        scores = ARDetector(order=2).fit_score_series(series)
        assert scores[inj.index] > 5.0

    def test_localization_auc(self, labeled_series):
        scores = ARDetector().fit_score_series(labeled_series.series)
        assert roc_auc(labeled_series.labels(), scores) > 0.95

    def test_first_samples_zero(self, rng):
        series = ar_process(100, rng, (0.5,))
        scores = ARDetector(order=3).fit_score_series(series)
        assert np.all(scores[:3] == 0.0)

    def test_matrix_path_rows_as_signals(self, rng):
        clean = np.vstack([ar_process(50, rng, (0.5,), 0.5).values for __ in range(20)])
        spiky = clean.copy()
        spiky[3, 25] += 15.0
        det = ARDetector().fit(clean)
        scores = det.score(spiky)
        assert scores.argmax() == 3

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ARDetector(order=0)


class TestVARDetector:
    def test_cross_channel_residual(self, rng):
        n = 500
        x = ar_process(n, rng, (0.6,), 1.0).values
        y = 0.8 * np.roll(x, 1) + rng.normal(0, 0.3, n)  # y follows x
        X = np.column_stack([x, y])
        det = VARDetector(order=2).fit(X)
        broken = X.copy()
        broken[400, 1] += 8.0  # y breaks its relation to x
        scores = det.score(broken)
        assert scores.argmax() == 400

    def test_fit_score_shortcut(self, rng):
        X = rng.normal(size=(200, 3))
        scores = VARDetector().fit_score(X)
        assert scores.shape == (200,)
        assert np.all(scores[:1] == 0.0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            VARDetector().fit(np.arange(10.0))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            VARDetector(order=3).fit(np.zeros((4, 3)))

    def test_score_before_fit(self):
        with pytest.raises(NotFittedError):
            VARDetector().score(np.zeros((5, 2)))

    def test_channel_count_checked(self, rng):
        det = VARDetector().fit(rng.normal(size=(100, 2)))
        with pytest.raises(ValueError):
            det.score(rng.normal(size=(50, 3)))
