"""Unit tests for the TimeSeries container."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.timeseries import TimeSeries


def make(values, **kw):
    return TimeSeries(np.asarray(values, dtype=float), **kw)


class TestConstruction:
    def test_values_coerced_to_float64(self):
        ts = TimeSeries([1, 2, 3])
        assert ts.values.dtype == np.float64

    def test_rejects_2d_values(self):
        with pytest.raises(ValueError, match="1-D"):
            TimeSeries(np.zeros((3, 2)))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="step"):
            TimeSeries([1.0], step=0.0)
        with pytest.raises(ValueError, match="step"):
            TimeSeries([1.0], step=-1.0)

    def test_rejects_nonfinite_start(self):
        with pytest.raises(ValueError, match="start"):
            TimeSeries([1.0], start=math.inf)

    def test_empty_series_allowed(self):
        ts = TimeSeries([])
        assert len(ts) == 0
        assert ts.duration == 0.0


class TestTimeAxis:
    def test_times_and_end(self):
        ts = make([1, 2, 3], start=10.0, step=2.0)
        assert ts.times().tolist() == [10.0, 12.0, 14.0]
        assert ts.end == 16.0
        assert ts.duration == 6.0

    def test_time_at_negative_index(self):
        ts = make([1, 2, 3], start=0.0, step=1.0)
        assert ts.time_at(-1) == 2.0

    def test_slice_time_half_open(self):
        ts = make(range(10), start=0.0, step=1.0)
        cut = ts.slice_time(2.0, 5.0)
        assert cut.values.tolist() == [2.0, 3.0, 4.0]
        assert cut.start == 2.0

    def test_slice_time_outside_span_is_empty(self):
        ts = make(range(5))
        assert len(ts.slice_time(100.0, 200.0)) == 0

    def test_slice_time_rejects_inverted_window(self):
        ts = make(range(5))
        with pytest.raises(ValueError):
            ts.slice_time(3.0, 1.0)

    def test_getitem_slice_updates_start(self):
        ts = make(range(10), start=5.0, step=2.0)
        sub = ts[3:6]
        assert sub.start == 11.0
        assert sub.values.tolist() == [3.0, 4.0, 5.0]

    def test_getitem_scalar(self):
        ts = make([5.0, 6.0])
        assert ts[1] == 6.0


class TestMissing:
    def test_n_missing_counts_nans(self):
        ts = make([1.0, np.nan, 3.0, np.nan])
        assert ts.n_missing == 2

    def test_dropna(self):
        ts = make([1.0, np.nan, 3.0])
        assert ts.dropna().tolist() == [1.0, 3.0]

class TestStatistics:
    def test_mean_std_nan_aware(self):
        ts = make([1.0, np.nan, 3.0])
        assert ts.mean() == 2.0
        assert ts.std() == 1.0

    def test_median_mad(self):
        ts = make([1.0, 2.0, 3.0, 100.0])
        assert ts.median() == 2.5
        assert ts.mad() == 1.0

    def test_min_max(self):
        ts = make([3.0, np.nan, -1.0])
        assert ts.min() == -1.0
        assert ts.max() == 3.0

    def test_zscores_standard(self):
        ts = make([0.0, 0.0, 0.0, 4.0])
        z = ts.zscores()
        assert z[-1] == pytest.approx((4.0 - 1.0) / ts.std())

    def test_zscores_constant_series_is_zero(self):
        z = make([5.0] * 10).zscores()
        assert np.all(z == 0.0)

    def test_zscores_robust_ignore_outlier_scale(self):
        values = [0.0] * 20 + [1000.0]
        z_rob = make(values).zscores(robust=True)
        # robust scale is driven by the MAD of the zeros, so the outlier
        # cannot shrink its own score — degenerate MAD falls back to 0
        assert z_rob[-1] == 0.0 or z_rob[-1] > 100


class TestArithmetic:
    def test_add_scalar(self):
        ts = make([1.0, 2.0]) + 1.0
        assert ts.values.tolist() == [2.0, 3.0]

    def test_subtract_series(self):
        a = make([3.0, 4.0])
        b = make([1.0, 1.0])
        assert (a - b).values.tolist() == [2.0, 3.0]

    def test_multiply(self):
        assert (make([2.0, 3.0]) * 2.0).values.tolist() == [4.0, 6.0]

    def test_binop_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            make([1.0]) + make([1.0, 2.0])

    def test_binop_rejects_axis_mismatch(self):
        with pytest.raises(ValueError, match="axis"):
            make([1.0, 2.0]) + make([1.0, 2.0], start=5.0)

    def test_map_preserves_length(self):
        ts = make([1.0, 4.0]).map(np.sqrt)
        assert ts.values.tolist() == [1.0, 2.0]

    def test_map_rejects_length_change(self):
        with pytest.raises(ValueError):
            make([1.0, 2.0]).map(lambda v: v[:1])

    def test_diff(self):
        d = make([1.0, 3.0, 6.0], start=0.0).diff()
        assert d.values.tolist() == [2.0, 3.0]
        assert d.start == 1.0

    def test_diff_lag_longer_than_series(self):
        d = make([1.0, 2.0]).diff(lag=5)
        assert len(d) == 0

    def test_diff_rejects_bad_lag(self):
        with pytest.raises(ValueError):
            make([1.0]).diff(lag=0)


class TestEquality:
    def test_equal_series(self):
        assert make([1.0, np.nan]) == make([1.0, np.nan])

    def test_not_equal_different_axis(self):
        assert make([1.0]) != make([1.0], start=1.0)

    def test_replace_keeps_other_fields(self):
        ts = make([1.0], start=3.0, step=2.0, name="x", unit="u")
        rep = ts.replace(values=np.array([9.0]))
        assert rep.start == 3.0 and rep.step == 2.0
        assert rep.name == "x" and rep.unit == "u"
        assert rep.values.tolist() == [9.0]
