"""Unit tests for outlierness unification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import unify, unify_gaussian, unify_minmax, unify_rank


class TestRank:
    def test_uniform_output(self):
        out = unify_rank([3.0, 1.0, 2.0])
        assert out.tolist() == [
            pytest.approx(2.5 / 3),
            pytest.approx(0.5 / 3),
            pytest.approx(1.5 / 3),
        ]

    def test_order_preserved(self, rng):
        s = rng.normal(size=100)
        out = unify_rank(s)
        assert np.array_equal(np.argsort(s), np.argsort(out))

    def test_bounded(self, rng):
        out = unify_rank(rng.normal(size=50))
        assert np.all((out > 0) & (out < 1))

    def test_ties_share_value(self):
        out = unify_rank([1.0, 1.0, 5.0])
        assert out[0] == out[1]

    def test_empty(self):
        assert unify_rank(np.array([])).size == 0


def _unify_rank_loop(scores) -> np.ndarray:
    """``unify_rank`` as it was written before the tie groups were found
    by one comparison of neighbours (kept verbatim as the reference)."""
    s = np.asarray(scores, dtype=np.float64)
    n = len(s)
    if n == 0:
        return s.copy()
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(n, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 0.5
        i = j + 1
    return ranks / n


def _rank_input(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "tied":  # few distinct values: long tie groups
        return rng.integers(0, 4, size=n).astype(float)
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "nan":  # NaNs never tie, with each other or anything else
        s = rng.integers(0, 3, size=n).astype(float)
        s[rng.random(n) < 0.3] = np.nan
        return s
    if kind == "signed-zero":
        return rng.choice([0.0, -0.0, 1.0], size=n)
    return rng.choice([-np.inf, np.inf, 0.0, 1.0], size=n)  # infinities


class TestRankAgainstLoop:
    @pytest.mark.parametrize(
        "kind", ("normal", "tied", "constant", "nan", "signed-zero", "inf")
    )
    def test_equals_the_loop_bitwise(self, kind):
        rng = np.random.default_rng(len(kind))
        for n in [*range(12), 576, 1152]:
            for __ in range(20 if n < 12 else 3):
                s = _rank_input(kind, n, rng)
                expected = _unify_rank_loop(s)
                got = unify_rank(s)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (kind, n, s)


class TestGaussian:
    def test_outlier_near_one(self, rng):
        s = np.concatenate([rng.normal(0, 1, 200), [50.0]])
        out = unify_gaussian(s)
        assert out[-1] > 0.999

    def test_median_maps_to_half(self, rng):
        s = rng.normal(5, 2, 501)
        out = unify_gaussian(s)
        med_idx = int(np.argsort(s)[len(s) // 2])
        assert out[med_idx] == pytest.approx(0.5, abs=0.05)

    def test_magnitude_preserved_vs_rank(self, rng):
        # two batches identical except the top score magnitude
        base = rng.normal(0, 1, 100)
        small = np.concatenate([base, [5.0]])
        large = np.concatenate([base, [50.0]])
        assert unify_gaussian(large)[-1] >= unify_gaussian(small)[-1]
        assert unify_rank(large)[-1] == unify_rank(small)[-1]

    def test_constant_input(self):
        out = unify_gaussian(np.full(10, 3.0))
        assert np.allclose(out, 0.5)

    @pytest.mark.parametrize(
        "seed,loc,scale", [(0, 0.0, 1.0), (1, 5.0, 0.01), (2, -3.0, 250.0), (3, 1e3, 2.5)]
    )
    def test_matches_scipy_norm_cdf_into_the_tails(self, seed, loc, scale):
        # scipy.stats is the reference only; the unifier uses math.erfc
        from scipy.stats import norm

        rng = np.random.default_rng(seed)
        bulk = rng.normal(loc, scale, 400)
        tails = loc + scale * rng.uniform(-30.0, 30.0, 20)
        s = np.concatenate([bulk, tails, [loc - 50.0 * scale, loc + 50.0 * scale]])

        def robust_z(s):
            center = np.median(s)
            return (s - center) / (np.median(np.abs(s - center)) * 1.4826)

        # the two extremes move to z = -37 / +37; they stay the extremes,
        # so the median and the MAD (order statistics) do not move
        z = robust_z(s)
        mad = (s[-1] - np.median(s)) / z[-1]
        s[-2:] = np.median(s) - 37.0 * mad, np.median(s) + 37.0 * mad
        z = robust_z(s)
        assert np.abs(z).max() == pytest.approx(37.0)
        np.testing.assert_allclose(unify_gaussian(s), norm.cdf(z), rtol=1e-12, atol=1e-15)


class TestMinmax:
    def test_range(self):
        out = unify_minmax([2.0, 4.0, 6.0])
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_constant_maps_to_half(self):
        assert np.allclose(unify_minmax(np.ones(5)), 0.5)


class TestDispatch:
    def test_known_methods(self, rng):
        s = rng.normal(size=20)
        for method in ("rank", "gaussian", "minmax"):
            out = unify(s, method)
            assert out.shape == s.shape
            assert np.all((out >= 0) & (out <= 1))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unification"):
            unify([1.0], "bogus")

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            unify_rank(np.zeros((2, 2)))
