"""Regularly sampled time series container.

The paper's phase level consumes "multi-dimensional, high-resolution sensor
values that deliver either time series data or discrete value sequences"
(Section 2).  :class:`TimeSeries` is the numeric half of that contract: a
1-D, regularly sampled signal with an absolute start time and a fixed
sampling period.  Values are stored as ``float64``; missing samples are
``NaN`` and every statistic here is NaN-aware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["TimeSeries"]


def _as_float_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"TimeSeries values must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A regularly sampled, NaN-aware numeric signal.

    Parameters
    ----------
    values:
        Sample values; coerced to a 1-D ``float64`` array.  ``NaN`` marks a
        missing sample.
    start:
        Timestamp of the first sample, in seconds (an arbitrary epoch).
    step:
        Sampling period in seconds; must be positive.
    name:
        Optional human-readable identifier (usually the sensor id).
    unit:
        Optional physical unit label, e.g. ``"degC"``.
    """

    values: np.ndarray
    start: float = 0.0
    step: float = 1.0
    name: str = ""
    unit: str = ""
    _times_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_float_array(self.values))
        if not math.isfinite(self.start):
            raise ValueError(f"start must be finite, got {self.start}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be a positive finite number, got {self.step}")

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sliced = self.values[index]
            offset = index.indices(len(self))[0]
            return self.replace(values=sliced, start=self.time_at(offset))
        return float(self.values[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.start == other.start
            and self.step == other.step
            and self.name == other.name
            and self.unit == other.unit
            and np.array_equal(self.values, other.values, equal_nan=True)
        )

    def replace(self, **changes) -> "TimeSeries":
        """Return a copy with the given fields replaced."""
        kwargs = {
            "values": self.values,
            "start": self.start,
            "step": self.step,
            "name": self.name,
            "unit": self.unit,
        }
        kwargs.update(changes)
        return TimeSeries(**kwargs)

    # ------------------------------------------------------------------
    # time axis
    # ------------------------------------------------------------------
    @property
    def end(self) -> float:
        """Timestamp one step past the last sample (half-open interval end)."""
        return self.start + len(self) * self.step

    @property
    def duration(self) -> float:
        return len(self) * self.step

    def times(self) -> np.ndarray:
        """Timestamps of every sample (cached)."""
        cached = self._times_cache.get("times")
        if cached is None or cached.shape[0] != len(self):
            cached = self.start + self.step * np.arange(len(self), dtype=np.float64)
            self._times_cache["times"] = cached
        return cached

    def time_at(self, index: int) -> float:
        if index < 0:
            index += len(self)
        return self.start + index * self.step

    def slice_time(self, t0: float, t1: float) -> "TimeSeries":
        """Samples with timestamps in the half-open window ``[t0, t1)``."""
        if t1 < t0:
            raise ValueError(f"empty time window: t1={t1} < t0={t0}")
        lo = max(0, int(math.ceil((t0 - self.start) / self.step - 1e-12)))
        hi = min(len(self), int(math.ceil((t1 - self.start) / self.step - 1e-12)))
        hi = max(hi, lo)
        return self.replace(values=self.values[lo:hi], start=self.time_at(lo) if lo < len(self) else self.end)

    # ------------------------------------------------------------------
    # NaN handling
    # ------------------------------------------------------------------
    @property
    def n_missing(self) -> int:
        return int(np.isnan(self.values).sum())

    def dropna(self) -> np.ndarray:
        """The finite values only (loses the time axis)."""
        return self.values[~np.isnan(self.values)]

    # ------------------------------------------------------------------
    # statistics (all NaN-aware)
    # ------------------------------------------------------------------
    def mean(self) -> float:
        return float(np.nanmean(self.values)) if len(self) else math.nan

    def std(self, ddof: int = 0) -> float:
        finite = self.dropna()
        if finite.size <= ddof:
            return math.nan
        return float(np.std(finite, ddof=ddof))

    def median(self) -> float:
        return float(np.nanmedian(self.values)) if len(self) else math.nan

    def mad(self) -> float:
        """Median absolute deviation (robust scale)."""
        finite = self.dropna()
        if finite.size == 0:
            return math.nan
        med = np.median(finite)
        return float(np.median(np.abs(finite - med)))

    def min(self) -> float:
        return float(np.nanmin(self.values)) if self.dropna().size else math.nan

    def max(self) -> float:
        return float(np.nanmax(self.values)) if self.dropna().size else math.nan

    def zscores(self, robust: bool = False) -> np.ndarray:
        """Per-sample standard scores; robust uses median/MAD."""
        if robust:
            center = self.median()
            scale = self.mad() * 1.4826  # consistency constant for Gaussians
        else:
            center = self.mean()
            scale = self.std()
        if not (math.isfinite(scale) and scale > 0):
            return np.zeros(len(self))
        return (self.values - center) / scale

    # ------------------------------------------------------------------
    # arithmetic & transforms
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "TimeSeries":
        out = np.asarray(fn(self.values), dtype=np.float64)
        if out.shape != self.values.shape:
            raise ValueError("map function must preserve the series length")
        return self.replace(values=out)

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def _binop(self, other, op) -> "TimeSeries":
        if isinstance(other, TimeSeries):
            if len(other) != len(self):
                raise ValueError("series length mismatch")
            if other.step != self.step or other.start != self.start:
                raise ValueError("series time-axis mismatch")
            return self.replace(values=op(self.values, other.values))
        return self.replace(values=op(self.values, float(other)))

    def diff(self, lag: int = 1) -> "TimeSeries":
        """Lagged difference; the result is ``lag`` samples shorter."""
        if lag < 1:
            raise ValueError("lag must be >= 1")
        if lag >= len(self):
            return self.replace(values=np.empty(0), start=self.end)
        return self.replace(
            values=self.values[lag:] - self.values[:-lag],
            start=self.time_at(lag),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"TimeSeries(n={len(self)}, start={self.start}, step={self.step}"
            f"{label})"
        )
