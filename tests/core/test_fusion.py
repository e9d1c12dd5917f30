"""Unit tests for cross-level fusion strategies."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    FUSION_STRATEGIES,
    ProductionLevel,
    fuse,
    fuse_fisher,
    fuse_max,
    fuse_mean,
    fuse_weighted,
)

L = ProductionLevel


class TestBasics:
    def test_all_strategies_bounded(self):
        scores = {L.PHASE: 0.9, L.JOB: 0.2, L.PRODUCTION: 0.7}
        for name in FUSION_STRATEGIES:
            out = fuse(scores, name)
            assert 0.0 <= out <= 1.0, name

    def test_single_level_passthrough_max_mean(self):
        scores = {L.PHASE: 0.42}
        assert fuse_max(scores) == 0.42
        assert fuse_mean(scores) == 0.42
        assert fuse_weighted(scores) == pytest.approx(0.42)

    def test_max_picks_strongest(self):
        assert fuse_max({L.PHASE: 0.1, L.JOB: 0.8}) == 0.8

    def test_mean_averages(self):
        assert fuse_mean({L.PHASE: 0.2, L.JOB: 0.6}) == pytest.approx(0.4)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            fuse({L.PHASE: 0.5}, "bogus")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_mean({})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fuse_mean({L.PHASE: 1.5})

    def test_non_level_key_rejected(self):
        with pytest.raises(TypeError):
            fuse_mean({"phase": 0.5})


class TestWeighted:
    def test_higher_levels_weigh_more(self):
        # same two scores, swapped between a low and a high level
        low_high = fuse_weighted({L.PHASE: 0.2, L.PRODUCTION: 0.8})
        high_low = fuse_weighted({L.PHASE: 0.8, L.PRODUCTION: 0.2})
        assert low_high > high_low

    def test_custom_weights(self):
        out = fuse_weighted(
            {L.PHASE: 1.0, L.JOB: 0.0},
            weights={L.PHASE: 3.0, L.JOB: 1.0},
        )
        assert out == pytest.approx(0.75)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            fuse_weighted({L.PHASE: 0.5}, weights={L.PHASE: -1.0})

    def test_explicit_empty_weights_mean_unweighted(self):
        # regression: `weights or DEFAULT` silently replaced an explicitly
        # passed empty mapping with the level-dependent defaults
        scores = {L.PHASE: 0.2, L.PRODUCTION: 0.8}
        assert fuse_weighted(scores, weights={}) == pytest.approx(0.5)
        assert fuse_weighted(scores, weights={}) != fuse_weighted(scores)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            fuse_weighted(
                {L.PHASE: 0.5, L.JOB: 0.5},
                weights={L.PHASE: 0.0, L.JOB: 0.0},
            )

    def test_partial_zero_weights_still_fuse(self):
        out = fuse_weighted(
            {L.PHASE: 1.0, L.JOB: 0.4},
            weights={L.PHASE: 0.0, L.JOB: 1.0},
        )
        assert out == pytest.approx(0.4)


class TestFisher:
    def test_consistent_evidence_amplifies(self):
        single = fuse_fisher({L.PHASE: 0.9})
        double = fuse_fisher({L.PHASE: 0.9, L.JOB: 0.9})
        assert double > single

    def test_weak_evidence_stays_low(self):
        out = fuse_fisher({L.PHASE: 0.1, L.JOB: 0.1, L.ENVIRONMENT: 0.1})
        assert out < 0.3

    def test_handles_extreme_scores(self):
        out = fuse_fisher({L.PHASE: 1.0, L.JOB: 0.0})
        assert 0.0 <= out <= 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_scipy_chi2_sf(self, k):
        # scipy.stats is the reference only; fuse_fisher uses the even-df
        # closed form.  Per-level p-values run log-uniformly from 1 down
        # to the 1e-12 floor, so the statistic covers [0, min(300, 55.3 k)].
        from scipy.stats import chi2

        rng = np.random.default_rng(k)
        levels = list(L)[:k]
        p_values = np.concatenate([
            np.ones((1, k)),
            10.0 ** -rng.uniform(0.0, 12.0, size=(400, k)),
            10.0 ** -rng.uniform(0.0, 1e-6, size=(50, k)),
            np.full((1, k), 1e-12),
        ])
        got, stats = [], []
        for row in p_values:
            scores = {level: 1.0 - float(p) for level, p in zip(levels, row)}
            got.append(fuse_fisher(scores))
            stats.append(sum(-2.0 * math.log(min(max(1.0 - v, 1e-12), 1.0))
                             for v in scores.values()))
        stats = np.array(stats)
        assert stats.min() == 0.0 and stats.max() >= min(300.0, 55.0 * k)
        assert all(0.0 <= g <= 1.0 for g in got)
        np.testing.assert_allclose(got, 1.0 - chi2.sf(stats, 2 * k), rtol=1e-12, atol=1e-15)


class TestMonotonicity:
    @pytest.mark.parametrize("name", sorted(FUSION_STRATEGIES))
    def test_raising_any_score_never_lowers_fused(self, name):
        base = {L.PHASE: 0.3, L.JOB: 0.5, L.ENVIRONMENT: 0.2}
        raised = dict(base, ENVIRONMENT=0.9)
        raised = {L.PHASE: 0.3, L.JOB: 0.5, L.ENVIRONMENT: 0.9}
        assert fuse(raised, name) >= fuse(base, name) - 1e-12
