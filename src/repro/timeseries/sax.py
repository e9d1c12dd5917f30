"""Symbolic Aggregate approXimation (SAX) after Lin et al. 2003.

Table 1 lists "Symbolic Representation [22]" as the outlier-subsequence
technique.  SAX is its substrate: a numeric series is z-normalized, reduced
with piecewise aggregate approximation (PAA), and quantized into a word over
a small alphabet using Gaussian-equiprobable breakpoints.
"""

from __future__ import annotations

from statistics import NormalDist
from typing import Tuple

import numpy as np

from .sequence import DiscreteSequence
from .series import TimeSeries

__all__ = [
    "paa",
    "gaussian_breakpoints",
    "sax_word",
    "sax_symbolize",
    "SAX_ALPHABET",
]

SAX_ALPHABET = "abcdefghijklmnopqrst"


def _values(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    return np.asarray(series, dtype=np.float64)


def paa(series, n_segments: int) -> np.ndarray:
    """Piecewise aggregate approximation: mean of ``n_segments`` equal chunks.

    Handles lengths not divisible by ``n_segments`` by fractional-weight
    assignment (the classic PAA generalization), so the result is exact for
    any length.
    """
    x = _values(series)
    n = len(x)
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    if n == 0:
        raise ValueError("cannot PAA an empty series")
    if n == n_segments:
        return x.copy()
    if n % n_segments == 0:
        return x.reshape(n_segments, n // n_segments).mean(axis=1)
    # fractional PAA: distribute each sample's mass over the segments it spans
    out = np.zeros(n_segments)
    weights = np.zeros(n_segments)
    seg_len = n / n_segments
    for i, v in enumerate(x):
        lo = i / seg_len
        hi = (i + 1) / seg_len
        j = int(lo)
        while j < min(n_segments, int(np.ceil(hi))):
            overlap = min(hi, j + 1) - max(lo, j)
            if overlap > 0 and not np.isnan(v):
                out[j] += v * overlap
                weights[j] += overlap
            j += 1
    with np.errstate(invalid="ignore"):
        return np.where(weights > 0, out / np.where(weights > 0, weights, 1.0), np.nan)


def gaussian_breakpoints(alphabet_size: int) -> np.ndarray:
    """Breakpoints splitting N(0,1) into ``alphabet_size`` equiprobable bins."""
    if not 2 <= alphabet_size <= len(SAX_ALPHABET):
        raise ValueError(
            f"alphabet_size must be in [2, {len(SAX_ALPHABET)}], got {alphabet_size}"
        )
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(i / alphabet_size) for i in range(1, alphabet_size)])


def sax_word(series, word_length: int, alphabet_size: int = 4) -> str:
    """The SAX word of one (sub)series: z-normalize → PAA → quantize."""
    x = _values(series).astype(np.float64)
    finite = x[~np.isnan(x)]
    if finite.size == 0:
        raise ValueError("cannot SAX a fully missing series")
    mu = finite.mean()
    sigma = finite.std()
    # relative degeneracy threshold so large constant offsets do not turn
    # float noise into spurious shape.  SAX is affine-invariant for series
    # that clear it before and after scaling/shifting; a near-flat series
    # can fall on either side, since the transform moves sigma and |mu|
    # differently.
    if sigma > 1e-9 * max(1.0, abs(mu)):
        z = (x - mu) / sigma
    else:
        z = np.zeros_like(x)
    segments = paa(z, word_length)
    breaks = gaussian_breakpoints(alphabet_size)
    codes = np.searchsorted(breaks, np.nan_to_num(segments, nan=0.0))
    return "".join(SAX_ALPHABET[c] for c in codes)


def sax_symbolize(
    series,
    window: int,
    word_length: int,
    alphabet_size: int = 4,
    stride: int = 1,
) -> Tuple[DiscreteSequence, np.ndarray]:
    """Slide a window over the series and emit one SAX word per window.

    Returns the word sequence (each word is one symbol of the resulting
    :class:`DiscreteSequence`) together with the window start indices, which
    downstream discord scoring needs to map surprising words back to sample
    positions.
    """
    x = _values(series)
    if window < word_length:
        raise ValueError("window must be >= word_length")
    if len(x) < window:
        raise ValueError(
            f"series of length {len(x)} shorter than window {window}"
        )
    words = []
    starts = []
    for s in range(0, len(x) - window + 1, stride):
        words.append(sax_word(x[s : s + window], word_length, alphabet_size))
        starts.append(s)
    return DiscreteSequence(tuple(words)), np.asarray(starts, dtype=np.int64)
