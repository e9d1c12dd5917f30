"""Ground-truth outlier injectors for the four Fig.-1 outlier types.

Figure 1 of the paper (after Fox 1972 and the intervention-analysis
literature) distinguishes four canonical temporal outlier types:

* **additive outlier** — a single sample is displaced by ``delta``;
* **innovative outlier** — an impulse enters the *innovation* of the
  generating AR process and propagates through its dynamics;
* **temporary change** — a step of height ``delta`` that decays
  geometrically with rate ``rho``;
* **level shift** — a permanent step of height ``delta``.

Each injector returns the modified series plus an :class:`Injection`
record; :class:`LabeledSeries` bundles a series with all of its injections
and exposes per-sample ground-truth masks for the evaluation harness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..timeseries import TimeSeries

__all__ = [
    "OutlierType",
    "Injection",
    "LabeledSeries",
    "inject_additive",
    "inject_innovative",
    "inject_temporary_change",
    "inject_level_shift",
    "inject_subsequence",
    "inject",
]


class OutlierType(enum.Enum):
    """The Fig.-1 taxonomy plus the subsequence anomaly used by SSQ workloads."""

    ADDITIVE = "additive"
    INNOVATIVE = "innovative"
    TEMPORARY_CHANGE = "temporary_change"
    LEVEL_SHIFT = "level_shift"
    SUBSEQUENCE = "subsequence"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Injection:
    """One injected ground-truth anomaly.

    ``index`` is the onset sample; ``span`` is the number of samples the
    library considers anomalous for evaluation purposes (1 for additive,
    the effective decay length for temporary change / innovative, the rest
    of the series for level shift — capped at ``span`` for scoring).
    """

    type: OutlierType
    index: int
    span: int
    delta: float
    params: Tuple[Tuple[str, float], ...] = ()

    @property
    def end(self) -> int:
        return self.index + self.span

    def covers(self, i: int) -> bool:
        return self.index <= i < self.end


@dataclass
class LabeledSeries:
    """A series together with its injected ground truth."""

    series: TimeSeries
    injections: List[Injection] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.series)

    def labels(self) -> np.ndarray:
        """Boolean per-sample mask: True where any injection applies."""
        mask = np.zeros(len(self.series), dtype=bool)
        for inj in self.injections:
            mask[inj.index : min(inj.end, len(mask))] = True
        return mask

    def onset_labels(self) -> np.ndarray:
        """Mask marking only the onset sample of each injection."""
        mask = np.zeros(len(self.series), dtype=bool)
        for inj in self.injections:
            if 0 <= inj.index < len(mask):
                mask[inj.index] = True
        return mask


def _check_index(series: TimeSeries, index: int) -> int:
    n = len(series)
    if index < 0:
        index += n
    if not 0 <= index < n:
        raise IndexError(f"injection index {index} outside series of length {n}")
    return index


def inject_additive(series: TimeSeries, index: int, delta: float) -> Tuple[TimeSeries, Injection]:
    """Displace exactly one sample by ``delta``."""
    index = _check_index(series, index)
    values = series.values.copy()
    values[index] += delta
    return series.replace(values=values), Injection(OutlierType.ADDITIVE, index, 1, delta)


def _ma_weights(ar_coefficients: Sequence[float], n: int) -> np.ndarray:
    """psi-weights of the MA(inf) representation of an AR(p) polynomial."""
    phi = np.asarray(ar_coefficients, dtype=np.float64)
    psi = np.zeros(n)
    if n == 0:
        return psi
    psi[0] = 1.0
    for t in range(1, n):
        acc = 0.0
        for k in range(min(phi.size, t)):
            acc += phi[k] * psi[t - 1 - k]
        psi[t] = acc
    return psi


def inject_innovative(
    series: TimeSeries,
    index: int,
    delta: float,
    ar_coefficients: Sequence[float] = (0.6,),
    significance_floor: float = 0.05,
) -> Tuple[TimeSeries, Injection]:
    """Add an impulse to the innovation at ``index`` and propagate it.

    The disturbance at sample ``index + k`` is ``delta * psi_k`` where
    ``psi`` are the MA-representation weights of the AR polynomial — the
    textbook innovative-outlier model.  The labeled span covers samples
    while ``|psi_k| >= significance_floor``.
    """
    index = _check_index(series, index)
    n = len(series)
    psi = _ma_weights(ar_coefficients, n - index)
    values = series.values.copy()
    values[index:] += delta * psi
    significant = np.abs(psi) >= significance_floor
    span = int(np.max(np.where(significant)[0])) + 1 if significant.any() else 1
    return (
        series.replace(values=values),
        Injection(
            OutlierType.INNOVATIVE,
            index,
            span,
            delta,
            params=tuple((f"phi{k}", float(c)) for k, c in enumerate(ar_coefficients)),
        ),
    )


def inject_temporary_change(
    series: TimeSeries,
    index: int,
    delta: float,
    rho: float = 0.8,
    significance_floor: float = 0.05,
) -> Tuple[TimeSeries, Injection]:
    """Add ``delta * rho**k`` to sample ``index + k`` (geometric decay)."""
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    index = _check_index(series, index)
    n = len(series)
    k = np.arange(n - index, dtype=np.float64)
    effect = delta * rho**k
    values = series.values.copy()
    values[index:] += effect
    if delta != 0:
        span = min(
            n - index,
            max(1, int(math.ceil(math.log(significance_floor) / math.log(rho)))),
        )
    else:
        span = 1
    return (
        series.replace(values=values),
        Injection(OutlierType.TEMPORARY_CHANGE, index, span, delta, params=(("rho", rho),)),
    )


def inject_level_shift(
    series: TimeSeries,
    index: int,
    delta: float,
    label_span: int | None = None,
) -> Tuple[TimeSeries, Injection]:
    """Add a permanent step of ``delta`` from ``index`` onwards.

    The physical effect is permanent; for evaluation the labeled span
    defaults to the remainder of the series but can be capped with
    ``label_span`` (detectors are expected to flag the changepoint region,
    not every sample forever after).
    """
    index = _check_index(series, index)
    values = series.values.copy()
    values[index:] += delta
    span = len(series) - index if label_span is None else min(label_span, len(series) - index)
    return series.replace(values=values), Injection(OutlierType.LEVEL_SHIFT, index, span, delta)


def inject_subsequence(
    series: TimeSeries,
    index: int,
    length: int,
    rng: np.random.Generator,
    style: str = "noise",
    delta: float = 3.0,
) -> Tuple[TimeSeries, Injection]:
    """Replace a window with an anomalous pattern (SSQ ground truth).

    Styles: ``"noise"`` (high-variance noise burst), ``"flat"`` (stuck-at
    value, the classic dead-sensor fault), ``"invert"`` (pattern flipped
    around the local mean).
    """
    index = _check_index(series, index)
    length = min(length, len(series) - index)
    if length < 1:
        raise ValueError("subsequence length must be >= 1")
    values = series.values.copy()
    window = values[index : index + length]
    local_mean = float(np.nanmean(window))
    if style == "noise":
        scale = float(np.nanstd(series.values)) or 1.0
        values[index : index + length] = local_mean + rng.normal(
            0.0, abs(delta) * scale, size=length
        )
    elif style == "flat":
        values[index : index + length] = local_mean
    elif style == "invert":
        values[index : index + length] = 2 * local_mean - window
    else:
        raise ValueError(f"unknown subsequence style {style!r}")
    return (
        series.replace(values=values),
        Injection(OutlierType.SUBSEQUENCE, index, length, delta, params=(("style", hash(style) % 97),)),
    )


def inject(
    series: TimeSeries,
    outlier_type: OutlierType,
    index: int,
    delta: float,
    rng: np.random.Generator | None = None,
    **kwargs,
) -> Tuple[TimeSeries, Injection]:
    """Dispatch to the injector for ``outlier_type``."""
    if outlier_type is OutlierType.ADDITIVE:
        return inject_additive(series, index, delta)
    if outlier_type is OutlierType.INNOVATIVE:
        return inject_innovative(series, index, delta, **kwargs)
    if outlier_type is OutlierType.TEMPORARY_CHANGE:
        return inject_temporary_change(series, index, delta, **kwargs)
    if outlier_type is OutlierType.LEVEL_SHIFT:
        return inject_level_shift(series, index, delta, **kwargs)
    if outlier_type is OutlierType.SUBSEQUENCE:
        if rng is None:
            raise ValueError("subsequence injection requires an rng")
        length = int(kwargs.pop("length", 10))
        return inject_subsequence(series, index, length, rng, delta=delta, **kwargs)
    raise ValueError(f"unknown outlier type {outlier_type!r}")
