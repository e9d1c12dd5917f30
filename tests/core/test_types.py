"""Unit tests for Fig.-1 outlier-type classification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import classify_outlier_type, effect_profile
from repro.synthetic import (
    OutlierType,
    ar_process,
    inject_additive,
    inject_level_shift,
    inject_temporary_change,
)


@pytest.fixture
def base(rng):
    return ar_process(400, rng, (0.6,), 1.0)


DELTA = 12.0
ONSET = 250


class TestEffectProfile:
    def test_additive_effect_is_impulse(self, base):
        series, __ = inject_additive(base, ONSET, DELTA)
        effect, __, sigma = effect_profile(series, ONSET, ar_order=2, horizon=20)
        assert effect[0] == pytest.approx(DELTA, rel=0.3)
        assert np.abs(effect[5:]).mean() < DELTA / 3

    def test_requires_prefix(self, base):
        with pytest.raises(ValueError, match="pre-onset"):
            effect_profile(base, 2)

    def test_onset_bounds_checked(self, base):
        with pytest.raises(IndexError):
            effect_profile(base, 9999)


class TestClassification:
    def test_additive(self, base):
        series, __ = inject_additive(base, ONSET, DELTA)
        result = classify_outlier_type(series, ONSET)
        assert result.outlier_type is OutlierType.ADDITIVE

    def test_level_shift(self, base):
        series, __ = inject_level_shift(base, ONSET, DELTA)
        result = classify_outlier_type(series, ONSET)
        assert result.outlier_type is OutlierType.LEVEL_SHIFT

    def test_temporary_change(self, base):
        series, __ = inject_temporary_change(base, ONSET, DELTA, rho=0.7)
        result = classify_outlier_type(series, ONSET)
        assert result.outlier_type is OutlierType.TEMPORARY_CHANGE

    def test_magnitude_sign_recovered(self, base):
        series, __ = inject_level_shift(base, ONSET, -DELTA)
        result = classify_outlier_type(series, ONSET)
        assert result.magnitude < 0

    def test_errors_reported_for_all_four(self, base):
        series, __ = inject_additive(base, ONSET, DELTA)
        result = classify_outlier_type(series, ONSET)
        assert set(result.errors) == {
            OutlierType.ADDITIVE,
            OutlierType.INNOVATIVE,
            OutlierType.TEMPORARY_CHANGE,
            OutlierType.LEVEL_SHIFT,
        }

    def test_confidence_in_unit_interval(self, base):
        series, __ = inject_temporary_change(base, ONSET, DELTA)
        result = classify_outlier_type(series, ONSET)
        assert 0.0 <= result.confidence <= 1.0

    def test_describe_mentions_type(self, base):
        series, __ = inject_additive(base, ONSET, DELTA)
        result = classify_outlier_type(series, ONSET)
        assert "additive" in result.describe()


class TestConfusionMatrix:
    def test_strong_diagonal_over_many_trials(self):
        """Aggregate check: the classifier separates the four types."""
        correct = 0
        total = 0
        types = [
            OutlierType.ADDITIVE,
            OutlierType.INNOVATIVE,
            OutlierType.TEMPORARY_CHANGE,
            OutlierType.LEVEL_SHIFT,
        ]
        from repro.synthetic import inject

        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            base = ar_process(400, rng, (0.6,), 1.0)
            otype = types[trial % 4]
            kwargs = {}
            if otype is OutlierType.INNOVATIVE:
                kwargs["ar_coefficients"] = (0.6,)
            if otype is OutlierType.TEMPORARY_CHANGE:
                kwargs["rho"] = 0.75
            series, __ = inject(base, otype, ONSET, DELTA, rng=rng, **kwargs)
            result = classify_outlier_type(series, ONSET)
            correct += result.outlier_type is otype
            total += 1
        assert correct / total >= 0.7
