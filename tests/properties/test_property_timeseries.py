"""Hypothesis property tests for the time-series substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.timeseries import (
    TimeSeries,
    downsample,
    paa,
    rolling_mean,
    sax_word,
    upsample,
    znormalize,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def float_arrays(min_size=1, max_size=200):
    return arrays(
        dtype=np.float64,
        shape=st.integers(min_size, max_size),
        elements=finite_floats,
    )


def _clears_flat_guard(x):
    """``sax_word`` treats a series as flat when ``sigma <= 1e-9·max(1, |mu|)``;
    True when ``x`` clears that guard 100-fold."""
    return x.std() > 100 * 1e-9 * max(1.0, abs(x.mean()))


class TestResampleProperties:
    @given(values=float_arrays(min_size=1, max_size=120),
           factor=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_sum_downsample_conserves_mass(self, values, factor):
        ts = TimeSeries(values)
        out = downsample(ts, factor, "sum")
        assert np.isclose(out.values.sum(), values.sum(), rtol=1e-9, atol=1e-6)

    @given(values=float_arrays(max_size=100), factor=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_downsample_length(self, values, factor):
        out = downsample(TimeSeries(values), factor, "mean")
        assert len(out) == -(-len(values) // factor)

    @given(values=float_arrays(max_size=60), factor=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_hold_upsample_then_mean_downsample_roundtrip(self, values, factor):
        ts = TimeSeries(values)
        back = downsample(upsample(ts, factor, "hold"), factor, "mean")
        assert np.allclose(back.values, values)

    @given(values=float_arrays(max_size=80), factor=st.integers(1, 8),
           scale=st.floats(-5, 5, allow_nan=False),
           shift=st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_mean_downsample_commutes_with_affine(self, values, factor, scale, shift):
        ts = TimeSeries(values)
        a = downsample(ts.map(lambda v: scale * v + shift), factor, "mean").values
        b = downsample(ts, factor, "mean").values * scale + shift
        assert np.allclose(a, b, rtol=1e-7, atol=1e-6)

    @given(values=float_arrays(max_size=80), factor=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_min_below_max(self, values, factor):
        ts = TimeSeries(values)
        lo = downsample(ts, factor, "min").values
        hi = downsample(ts, factor, "max").values
        assert np.all(lo <= hi)


class TestPAAProperties:
    @given(values=float_arrays(min_size=2, max_size=150),
           segments=st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_paa_within_minmax(self, values, segments):
        out = paa(values, min(segments, len(values)))
        assert np.nanmin(out) >= values.min() - 1e-6
        assert np.nanmax(out) <= values.max() + 1e-6

    @given(level=finite_floats, n=st.integers(2, 100), segments=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_paa_of_constant_is_constant(self, level, n, segments):
        out = paa(np.full(n, level), min(segments, n))
        assert np.allclose(out, level, rtol=1e-9, atol=1e-6)


class TestSAXProperties:
    @given(values=float_arrays(min_size=8, max_size=120),
           word_length=st.integers(2, 8), alphabet=st.integers(2, 8))
    @settings(max_examples=80, deadline=None)
    def test_word_length_and_alphabet(self, values, word_length, alphabet):
        word = sax_word(values, word_length, alphabet)
        assert len(word) == word_length
        allowed = set("abcdefghijklmnopqrst"[:alphabet])
        assert set(word) <= allowed

    @given(values=float_arrays(min_size=8, max_size=80),
           scale=st.floats(0.1, 100, allow_nan=False),
           shift=st.floats(-1000, 1000, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_sax_affine_invariance(self, values, scale, shift):
        from hypothesis import assume

        from repro.timeseries import gaussian_breakpoints, paa, znormalize

        # a PAA segment sitting exactly on a quantization breakpoint can
        # flip bins under float rounding; that is not a property violation
        segments = paa(znormalize(values), 4)
        breaks = gaussian_breakpoints(4)
        margin = np.abs(segments[:, None] - breaks[None, :]).min()
        assume(margin > 1e-7)
        # the domain of the invariance: a near-flat series may clear the
        # flat guard while its scaled/shifted copy does not (or vice
        # versa).  100-fold keeps the transform's rounding (~1e-16·|mu|)
        # below 1e-9·sigma, far inside the breakpoint margin above
        transformed = values * scale + shift
        assume(_clears_flat_guard(values) and _clears_flat_guard(transformed))
        a = sax_word(values, 4, 4)
        b = sax_word(transformed, 4, 4)
        assert a == b


class TestNormalizeProperties:
    @given(values=float_arrays(min_size=3, max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_znormalize_moments(self, values):
        z = znormalize(values)
        assert abs(np.nanmean(z)) < 1e-6
        std = np.nanstd(z)
        assert std < 1e-6 or abs(std - 1.0) < 1e-6

    @given(values=float_arrays(min_size=2, max_size=100),
           window=st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_rolling_mean_within_range(self, values, window):
        out = rolling_mean(values, window)
        assert np.nanmin(out) >= values.min() - 1e-6
        assert np.nanmax(out) <= values.max() + 1e-6
