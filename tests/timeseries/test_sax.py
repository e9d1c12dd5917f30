"""Unit tests for PAA and SAX symbolization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.timeseries import (
    DiscreteSequence,
    gaussian_breakpoints,
    paa,
    sax_symbolize,
    sax_word,
)


class TestPAA:
    def test_divisible_length(self):
        out = paa(np.array([1.0, 1.0, 3.0, 3.0]), 2)
        assert out.tolist() == [1.0, 3.0]

    def test_identity_when_segments_equal_length(self):
        x = np.array([1.0, 2.0, 3.0])
        assert paa(x, 3).tolist() == x.tolist()

    def test_fractional_weights_conserve_mean(self):
        x = np.arange(10.0)
        out = paa(x, 3)
        assert np.average(out, weights=[10 / 3] * 3) == pytest.approx(x.mean())

    def test_constant_series_constant_paa(self):
        out = paa(np.full(7, 4.0), 3)
        assert np.allclose(out, 4.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            paa(np.array([]), 2)

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError):
            paa(np.array([1.0]), 0)


class TestBreakpoints:
    def test_equiprobable_split(self):
        bp = gaussian_breakpoints(2)
        assert bp.tolist() == [0.0]

    def test_monotone(self):
        bp = gaussian_breakpoints(6)
        assert np.all(np.diff(bp) > 0)
        assert len(bp) == 5

    @pytest.mark.parametrize("alphabet_size", range(2, 21))
    def test_matches_scipy_norm_ppf(self, alphabet_size):
        # scipy.stats is the reference only; the breakpoints use NormalDist
        from scipy.stats import norm

        ref = norm.ppf(np.arange(1, alphabet_size) / alphabet_size)
        np.testing.assert_allclose(
            gaussian_breakpoints(alphabet_size), ref, rtol=1e-12, atol=1e-15
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gaussian_breakpoints(1)
        with pytest.raises(ValueError):
            gaussian_breakpoints(100)


class TestSaxWord:
    def test_word_length_and_alphabet(self):
        rng = np.random.default_rng(0)
        word = sax_word(rng.normal(size=64), word_length=8, alphabet_size=4)
        assert len(word) == 8
        assert set(word) <= set("abcd")

    def test_rising_signal_word_is_sorted(self):
        word = sax_word(np.arange(32.0), word_length=4, alphabet_size=4)
        assert list(word) == sorted(word)
        assert word[0] == "a" and word[-1] == "d"

    def test_constant_signal_mid_letter(self):
        word = sax_word(np.full(16, 5.0), word_length=4, alphabet_size=4)
        # z-normalized zeros land just above the middle breakpoint
        assert len(set(word)) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        w1 = sax_word(x, 8, 4)
        w2 = sax_word(5.0 * x + 100.0, 8, 4)
        assert w1 == w2

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError):
            sax_word(np.array([np.nan, np.nan]), 2, 4)


class TestSaxSymbolize:
    def test_word_count_and_starts(self):
        x = np.sin(np.arange(100.0) / 5.0)
        words, starts = sax_symbolize(x, window=20, word_length=5, stride=10)
        assert isinstance(words, DiscreteSequence)
        assert len(words) == len(starts) == 9
        assert starts.tolist() == list(range(0, 81, 10))

    def test_rejects_window_smaller_than_word(self):
        with pytest.raises(ValueError, match="word_length"):
            sax_symbolize(np.arange(50.0), window=4, word_length=8)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="shorter"):
            sax_symbolize(np.arange(5.0), window=10, word_length=4)

    def test_periodic_signal_repeats_words(self):
        x = np.tile(np.array([0.0, 1.0, 2.0, 1.0]), 25)
        words, __ = sax_symbolize(x, window=4, word_length=4, stride=4)
        assert len(set(words.symbols)) == 1
