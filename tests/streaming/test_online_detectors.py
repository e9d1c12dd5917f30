"""Unit tests for online per-sample detectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streaming import CusumDetector, OnlineARDetector, OnlineEWMA, OnlineZScore
from repro.synthetic import ar_process, inject_additive, inject_level_shift


def run(detector, values):
    return np.array([detector.update(float(v)) for v in values])


class TestOnlineZScore:
    def test_flags_spike(self, rng):
        x = rng.normal(0, 1, 300)
        x[200] = 12.0
        scores = run(OnlineZScore(), x)
        assert scores.argmax() == 200
        assert scores[200] > 8.0

    def test_warmup_silent(self, rng):
        scores = run(OnlineZScore(warmup=20), rng.normal(0, 1, 30))
        assert np.all(scores[:20] == 0.0)

    def test_rejects_bad_warmup(self):
        with pytest.raises(ValueError):
            OnlineZScore(warmup=1)


class TestOnlineEWMA:
    def test_tolerates_slow_drift(self, rng):
        drift = np.linspace(0, 5, 500) + rng.normal(0, 0.3, 500)
        scores = run(OnlineEWMA(alpha=0.1), drift)
        assert scores[50:].max() < 6.0  # drift absorbed by the level

    def test_flags_jump_against_drift(self, rng):
        x = np.linspace(0, 5, 500) + rng.normal(0, 0.3, 500)
        x[400] += 5.0
        scores = run(OnlineEWMA(alpha=0.1), x)
        assert scores.argmax() == 400


class TestCusum:
    def test_detects_level_shift_quickly(self):
        detections = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            series, __ = inject_level_shift(
                ar_process(600, rng, (0.4,), 1.0), 400, 4.0
            )
            scores = run(CusumDetector(), series.values)
            first = next((i for i, s in enumerate(scores) if s > 8.0), None)
            detections.append(first)
        assert all(d is not None for d in detections)
        assert all(400 <= d <= 420 for d in detections)

    def test_quiet_on_stationary_ar(self):
        false_alarms = 0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            series = ar_process(600, rng, (0.4,), 1.0)
            scores = run(CusumDetector(), series.values)
            false_alarms += int(scores.max() > 8.0)
        assert false_alarms <= 1

    def test_reset_clears_chart(self, rng):
        det = CusumDetector(warmup=5)
        run(det, np.concatenate([rng.normal(0, 1, 50), np.full(20, 6.0)]))
        assert det.update(6.0) > 0.0
        det.reset()
        assert det._pos == 0.0 and det._neg == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CusumDetector(drift=-1.0)

    @pytest.mark.parametrize("drift", [float("nan"), float("inf")])
    def test_rejects_non_finite_drift(self, drift):
        # a NaN drift made every chart update max(0.0, nan) = 0.0: the
        # detector went silent through any level shift
        with pytest.raises(ValueError, match="drift"):
            CusumDetector(drift=drift)


class TestOnlineAR:
    def test_flags_additive_outlier(self, rng):
        series, inj = inject_additive(ar_process(800, rng, (0.6,), 1.0), 600, 10.0)
        scores = run(OnlineARDetector(), series.values)
        assert scores.argmax() == inj.index
        assert scores[inj.index] > 6.0

    def test_adapts_to_ar_structure(self, rng):
        # on a strongly autocorrelated signal the AR detector's residual
        # scale is far below the raw signal scale
        series = ar_process(2000, rng, (0.9,), 1.0)
        det = OnlineARDetector(order=2)
        run(det, series.values)
        assert det._residual_stats.std < 0.7 * np.std(series.values)

    def test_outlier_does_not_poison_scale(self, rng):
        series, inj = inject_additive(ar_process(800, rng, (0.5,), 1.0), 500, 15.0)
        det = OnlineARDetector()
        scores = run(det, series.values)
        # a second identical outlier later must still score high
        later, inj2 = inject_additive(
            ar_process(200, rng, (0.5,), 1.0), 100, 15.0
        )
        scores2 = run(det, later.values)
        assert scores2[inj2.index] > 6.0

    def test_nan_neutral(self):
        det = OnlineARDetector()
        assert det.update(float("nan")) == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            OnlineARDetector(order=0)
        with pytest.raises(ValueError):
            OnlineARDetector(lam=0.5)
        with pytest.raises(ValueError):
            OnlineARDetector(order=5, warmup=3)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_delta(self, delta):
        # delta=nan made P all-NaN, so every sample scored 0.0
        with pytest.raises(ValueError, match="delta"):
            OnlineARDetector(delta=delta)
