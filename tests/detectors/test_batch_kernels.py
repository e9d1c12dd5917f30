"""Batch-kernel contract: every ``supports_batch`` detector's vectorized
path must reproduce the scalar per-series path numerically (1e-9 abs —
the one documented exception to byte-identity, see PERFORMANCE.md), and
the capability flag must never drift from the actual kernel coverage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors import get_detector, has_batch_kernel
from repro.detectors.baselines import MADDetector
from repro.detectors.registry import BASELINE_ROWS, TABLE1_ROWS
from repro.plant import chaos  # noqa: F401  (registers the chaos-* wrappers)
from repro.timeseries import TimeSeries

ALL_ROWS = TABLE1_ROWS + BASELINE_ROWS
BATCHED = [entry for entry in ALL_ROWS if entry.cls.supports_batch]
SEEDS = (0, 7, 23)

#: The kernel floor this PR establishes; shrinking it is a regression.
MIN_BATCHED = {
    "ar",
    "dynamic-clustering",
    "knn",
    "lof",
    "mad",
    "pca-leverage",
    "pca-space",
    "rknn",
    "single-linkage",
    "zscore",
}


def _series_batch(seed, n_series=5, lengths=None, nan=False):
    rng = np.random.default_rng(seed)
    lengths = lengths or [96] * n_series
    out = []
    for i, n in enumerate(lengths):
        values = rng.normal(size=n).cumsum()
        values[10 + 3 * i] += 8.0  # one planted spike per series
        if nan:
            values[::17] = np.nan
        out.append(TimeSeries(values=values, start=0.0, step=1.0))
    return out


def _ids(entries):
    return [entry.name for entry in entries]


class TestNumericalEquality:
    @pytest.mark.parametrize("entry", BATCHED, ids=_ids(BATCHED))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_matches_scalar(self, entry, seed):
        series = _series_batch(seed)
        batched = entry.factory().fit_score_series_batch(series)
        looped = [entry.factory().fit_score_series(s) for s in series]
        assert len(batched) == len(looped)
        for got, want in zip(batched, looped):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("entry", BATCHED, ids=_ids(BATCHED))
    def test_nan_inputs_match_scalar(self, entry):
        series = _series_batch(SEEDS[0], nan=True)
        batched = entry.factory().fit_score_series_batch(series)
        looped = [entry.factory().fit_score_series(s) for s in series]
        for got, want in zip(batched, looped):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("entry", BATCHED, ids=_ids(BATCHED))
    def test_ragged_lengths_match_scalar(self, entry):
        series = _series_batch(SEEDS[1], lengths=[64, 96, 80])
        batched = entry.factory().fit_score_series_batch(series)
        looped = [entry.factory().fit_score_series(s) for s in series]
        for got, want in zip(batched, looped):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("entry", BATCHED, ids=_ids(BATCHED))
    def test_singleton_batch_matches_scalar(self, entry):
        (series,) = _series_batch(SEEDS[2], n_series=1)
        (batched,) = entry.factory().fit_score_series_batch([series])
        want = entry.factory().fit_score_series(series)
        np.testing.assert_allclose(batched, want, rtol=0.0, atol=1e-9)


class TestNoSilentDrift:
    @pytest.mark.parametrize("entry", ALL_ROWS, ids=_ids(ALL_ROWS))
    def test_flag_iff_kernel(self, entry):
        """``supports_batch`` and an actual kernel must move together.

        A detector gaining a kernel without the flag silently loses its
        batch win; a flag without a kernel advertises coverage the
        registry does not have.
        """
        assert has_batch_kernel(entry.cls) == entry.cls.supports_batch, entry.name

    @pytest.mark.parametrize("name", ["chaos-raise", "chaos-flaky", "chaos-hang"])
    def test_chaos_wrappers_flag_iff_kernel(self, name):
        """The chaos wrappers inject faults in ``_fit_matrix``, which MAD's
        inherited kernel never calls: no kernel, no flag."""
        cls = get_detector(name).cls
        assert has_batch_kernel(cls) is False
        assert cls.supports_batch is False

    def test_matrix_override_below_the_kernel_drops_it(self):
        class Refit(MADDetector):
            def _fit_matrix(self, X):
                super()._fit_matrix(X)

        class Rescore(MADDetector):
            def _score_matrix(self, X):
                return super()._score_matrix(X)

        assert has_batch_kernel(MADDetector)
        assert not has_batch_kernel(Refit)
        assert not has_batch_kernel(Rescore)

    def test_minimum_kernel_coverage(self):
        names = {entry.name for entry in BATCHED}
        assert MIN_BATCHED <= names, sorted(MIN_BATCHED - names)
