"""Detector framework: data shapes, families, and the base classes.

Scores follow one convention everywhere: **higher means more outlying**,
all scores are finite floats.  The paper's Section 5 argues for graded
*outlierness* over binary flags; ``score`` is therefore the primary
operation and ``detect`` merely thresholds it.

The three granularities of Table 1 map onto three item kinds:

* **PTS (points)** — rows of a feature matrix, or single samples of a
  series (via :meth:`BaseDetector.score_series` with a small window);
* **SSQ (subsequences)** — windows within a series, or label sequences in
  a collection;
* **TSS (time series)** — whole series within a collection.

Detectors declare which granularities they support; the blank cells of
Table 1 raise :class:`ShapeUnsupportedError` instead of degrading silently.
"""

from __future__ import annotations

import abc
import copy
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..timeseries import (
    DiscreteSequence,
    TimeSeries,
    sax_symbolize,
    sliding_window_matrix,
    window_scores_to_point_scores,
)
from ._math import batch_sliding_windows, batch_window_scores_to_point_scores
from .encoders import NGramVectorizer, SeriesFeaturizer, SeriesSymbolizer
from .errors import DataQualityError, DetectorError, NotFittedError, ShapeUnsupportedError

__all__ = [
    "DataShape",
    "Family",
    "Detection",
    "BaseDetector",
    "VectorDetector",
    "SymbolDetector",
    "coerce_items",
    "has_batch_kernel",
]


class DataShape(enum.Enum):
    """The PTS / SSQ / TSS granularity columns of Table 1."""

    POINTS = "pts"
    SUBSEQUENCES = "ssq"
    SERIES = "tss"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Family(enum.Enum):
    """The nine technique families of Table 1, plus a baseline bucket."""

    DISCRIMINATIVE = "DA"
    UNSUPERVISED_PARAMETRIC = "UPA"
    UNSUPERVISED_OLAP = "UOA"
    SUPERVISED = "SA"
    NORMAL_PATTERN_DB = "NPD"
    NEGATIVE_PATTERN_DB = "NMD"
    OUTLIER_SUBSEQUENCE = "OS"
    PREDICTIVE = "PM"
    INFORMATION_THEORETIC = "ITM"
    BASELINE = "BL"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def coerce_items(data) -> Tuple[str, object]:
    """Classify a fit/score argument into one of the three item kinds.

    Returns ``("vectors", 2-D float array)``, ``("sequences", tuple of
    DiscreteSequence)``, or ``("series", tuple of TimeSeries)``.
    """
    if isinstance(data, np.ndarray):
        if data.ndim == 2:
            return "vectors", np.asarray(data, dtype=np.float64)
        raise DataQualityError(
            f"expected a 2-D feature matrix, got ndim={data.ndim}; for a single "
            "series use score_series / a TimeSeries collection"
        )
    if isinstance(data, TimeSeries):
        return "series", (data,)
    if isinstance(data, DiscreteSequence):
        return "sequences", (data,)
    if isinstance(data, (list, tuple)):
        if len(data) == 0:
            raise DataQualityError("empty item collection")
        first = data[0]
        if isinstance(first, DiscreteSequence):
            if not all(isinstance(s, DiscreteSequence) for s in data):
                raise TypeError("mixed item types in sequence collection")
            return "sequences", tuple(data)
        if isinstance(first, TimeSeries):
            if not all(isinstance(s, TimeSeries) for s in data):
                raise TypeError("mixed item types in series collection")
            return "series", tuple(data)
        # fall back: rows of numbers
        return "vectors", np.asarray(data, dtype=np.float64).reshape(len(data), -1)
    raise TypeError(f"cannot interpret {type(data).__name__} as detector input")


@dataclass(frozen=True)
class Detection:
    """Thresholded detector output: per-item scores, flags, threshold."""

    scores: np.ndarray
    flags: np.ndarray
    threshold: float

    @property
    def indices(self) -> np.ndarray:
        """Indices of the flagged items."""
        return np.where(self.flags)[0]

    @property
    def n_flagged(self) -> int:
        return int(self.flags.sum())


class BaseDetector(abc.ABC):
    """Common fit / score / detect surface of every detector.

    Subclasses set the class attributes ``name``, ``family``, ``supports``
    (a frozenset of :class:`DataShape`), ``citation`` (the Table-1 row it
    reproduces), and implement the native-domain hooks of either
    :class:`VectorDetector` or :class:`SymbolDetector`.
    """

    name: str = "base"
    family: Family = Family.BASELINE
    supports: frozenset = frozenset()
    citation: str = ""
    #: Refit-determinism contract: two fresh instances built by the same
    #: zero-argument factory, fed the same input, must produce identical
    #: scores.  All randomness therefore flows from constructor seeds —
    #: never from global RNG state, wall clock, or object identity.  The
    #: incremental pipeline relies on this: a task outside the dirty
    #: closure keeps its persisted output instead of re-running, which is
    #: only sound if re-running *would have* reproduced it bit-for-bit.
    #: Subclasses that cannot honor the contract must set this to False
    #: (no in-tree detector does).
    deterministic_refit: bool = True
    #: Batch-kernel capability flag: True iff this detector ships a
    #: vectorized ``fit_score_series_batch`` kernel (either a direct
    #: override or a :class:`VectorDetector` ``_batch_score_windows``
    #: hook).  The flag and the kernel must move together —
    #: :func:`has_batch_kernel` checks the override structurally and the
    #: test suite asserts the two agree, so coverage cannot silently
    #: drift.  Kernels must be numerically equal to the scalar
    #: ``fit_score_series`` path (the pipeline's 1e-9 batch contract).
    supports_batch: bool = False

    def __init__(self) -> None:
        self._fitted = False
        self._fit_kind: Optional[str] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def fit(self, data) -> "BaseDetector":
        """Learn the normal model from ``data`` (matrix / sequences / series)."""
        kind, items = coerce_items(data)
        self._check_kind_supported(kind)
        self._run_hook("fit", self._fit_items, kind, items)
        self._fit_kind = kind
        self._fitted = True
        return self

    def score(self, data) -> np.ndarray:
        """Per-item outlierness; higher is more outlying."""
        self._require_fitted()
        kind, items = coerce_items(data)
        self._check_kind_supported(kind)
        scores = self._run_hook("score", self._score_items, kind, items)
        return self._sanitize(scores)

    def fit_score(self, data) -> np.ndarray:
        """Unsupervised shortcut: fit on ``data`` and score the same data."""
        return self.fit(data).score(data)

    def detect(self, data, contamination: float = 0.05,
               threshold: Optional[float] = None) -> Detection:
        """Threshold scores at the ``1 - contamination`` quantile (or a fixed value)."""
        if threshold is None and not 0 < contamination < 1:
            raise ValueError("contamination must be in (0, 1)")
        scores = self.score(data)
        if threshold is None:
            threshold = float(np.quantile(scores, 1 - contamination)) if len(scores) else 0.0
        return Detection(scores=scores, flags=scores >= threshold, threshold=float(threshold))

    # ------------------------------------------------------------------
    # within-series localization (PTS / SSQ granularity on a single series)
    # ------------------------------------------------------------------
    def fit_series(self, series: TimeSeries, width: int = 16,
                   stride: int = 1) -> "BaseDetector":
        """Fit the detector on the windows of one (training) series."""
        self._check_series_localization()
        self._series_width = width
        self._series_stride = stride
        self._run_hook("fit_series", self._fit_series_impl, series, width, stride)
        self._fitted = True
        self._fit_kind = "series-windows"
        return self

    def score_series(self, series: TimeSeries) -> np.ndarray:
        """Per-sample outlierness within one series (after :meth:`fit_series`)."""
        self._require_fitted()
        if self._fit_kind != "series-windows":
            raise NotFittedError(
                f"{self.name} (call fit_series before score_series)"
            )
        scores = self._run_hook("score_series", self._score_series_impl, series)
        return self._sanitize(scores)

    def fit_score_series(self, series: TimeSeries, width: int = 16,
                         stride: int = 1) -> np.ndarray:
        """Unsupervised shortcut: fit on the series' own windows, then localize."""
        return self.fit_series(series, width, stride).score_series(series)

    def fit_score_series_batch(self, series_list: Sequence[TimeSeries],
                               width: int = 16, stride: int = 1) -> List[np.ndarray]:
        """Score several series with one detector instance, one result each.

        The pipeline's batched scoring path calls this once per group of
        same-length channels.  The default refits this instance per
        series — semantically identical to a ``fit_score_series`` loop —
        and detectors whose model vectorizes across series override it
        to amortize the fit (see :class:`~repro.detectors.predictive.ar.ARDetector`).
        """
        return [self.fit_score_series(s, width=width, stride=stride) for s in series_list]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    #: Version tag of the generic ``__dict__``-based state format below.
    #: Detectors that change their attribute layout incompatibly should
    #: bump their own class-level tag so stale snapshots are rejected
    #: instead of silently misread.
    state_format: str = "repro.detector-state/1"

    def state_dict(self) -> Dict[str, object]:
        """Snapshot the full fitted state of this detector instance.

        The default captures a deep copy of ``__dict__`` — every in-tree
        detector keeps its model (means, covariances, pattern tables,
        encoders, …) in plain instance attributes, so this round-trips
        the fit exactly.  The copy means later fits cannot mutate a
        snapshot already taken.  The result is pickle-serializable, not
        JSON-serializable (it contains numpy arrays).
        """
        return {
            "format": self.state_format,
            "name": self.name,
            "attrs": copy.deepcopy(self.__dict__),
        }

    def load_state_dict(self, state: Dict[str, object]) -> "BaseDetector":
        """Restore state captured by :meth:`state_dict` onto this instance.

        The receiving instance must be the same detector kind (matched by
        ``name``) and understand the serialized ``format``; both checks
        raise ``ValueError`` rather than half-applying foreign state.
        """
        if not isinstance(state, dict) or "attrs" not in state:
            raise ValueError(f"malformed detector state for {self.name!r}")
        if state.get("format") != self.state_format:
            raise ValueError(
                f"detector {self.name!r} cannot load state format "
                f"{state.get('format')!r} (expected {self.state_format!r})"
            )
        if state.get("name") != self.name:
            raise ValueError(
                f"detector state for {state.get('name')!r} applied to {self.name!r}"
            )
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state["attrs"]))
        return self

    # ------------------------------------------------------------------
    # capability helpers
    # ------------------------------------------------------------------
    @classmethod
    def capabilities(cls) -> Tuple[bool, bool, bool]:
        """(PTS, SSQ, TSS) — the Table-1 checkmark row of this detector."""
        return (
            DataShape.POINTS in cls.supports,
            DataShape.SUBSEQUENCES in cls.supports,
            DataShape.SERIES in cls.supports,
        )

    def _check_kind_supported(self, kind: str) -> None:
        if kind == "vectors" and DataShape.POINTS not in self.supports:
            raise ShapeUnsupportedError(self.name, "pts")
        if kind == "sequences" and DataShape.SUBSEQUENCES not in self.supports:
            raise ShapeUnsupportedError(self.name, "ssq")
        if kind == "series" and DataShape.SERIES not in self.supports:
            raise ShapeUnsupportedError(self.name, "tss")

    def _check_series_localization(self) -> None:
        if not (DataShape.POINTS in self.supports or DataShape.SUBSEQUENCES in self.supports):
            raise ShapeUnsupportedError(self.name, "pts/ssq (series localization)")

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(self.name)

    def _run_hook(self, stage: str, hook, *args):
        """Run an implementation hook, wrapping stray exceptions.

        The public surface raises only :class:`DetectorError` subclasses:
        a ``ValueError`` / ``LinAlgError`` / arithmetic failure escaping a
        detector implementation (singular matrix, degenerate input, …)
        becomes a :class:`DetectorError` here, so callers — the pipeline's
        sandbox in particular — dispatch on one exception family.  A
        ``ValueError`` (almost always degenerate *input*: empty sequences,
        singular matrices) maps to :class:`DataQualityError`, which still
        IS-A ``ValueError`` for pre-existing callers.
        """
        try:
            return hook(*args)
        except DetectorError:
            raise
        except ValueError as exc:
            # np.linalg.LinAlgError subclasses ValueError, so it lands here
            raise DataQualityError(
                f"detector {self.name!r} failed during {stage}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        except (ArithmeticError, IndexError, KeyError) as exc:
            raise DetectorError(
                f"detector {self.name!r} failed during {stage}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    @staticmethod
    def _sanitize(scores) -> np.ndarray:
        out = np.asarray(scores, dtype=np.float64)
        if out.ndim != 1:
            raise ValueError("detector scores must be 1-D")
        return np.nan_to_num(out, nan=0.0, posinf=np.finfo(np.float64).max / 4,
                             neginf=-np.finfo(np.float64).max / 4)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _fit_items(self, kind: str, items) -> None: ...

    @abc.abstractmethod
    def _score_items(self, kind: str, items) -> np.ndarray: ...

    @abc.abstractmethod
    def _fit_series_impl(self, series: TimeSeries, width: int, stride: int) -> None: ...

    @abc.abstractmethod
    def _score_series_impl(self, series: TimeSeries) -> np.ndarray: ...

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}(name={self.name!r}, {state})"


class VectorDetector(BaseDetector):
    """Base class for detectors whose native domain is R^d.

    Subclasses implement ``_fit_matrix(X)`` and ``_score_matrix(X)``.
    Sequence collections are encoded as n-gram count vectors and series
    collections as statistical/spectral feature vectors; both encoders are
    frozen at fit time.
    """

    def __init__(self) -> None:
        super().__init__()
        self._ngram_encoder: Optional[NGramVectorizer] = None
        self._series_encoder: Optional[SeriesFeaturizer] = None

    @abc.abstractmethod
    def _fit_matrix(self, X: np.ndarray) -> None: ...

    @abc.abstractmethod
    def _score_matrix(self, X: np.ndarray) -> np.ndarray: ...

    # -- collection encoding ------------------------------------------
    def _encode(self, kind: str, items, fitting: bool) -> np.ndarray:
        if kind == "vectors":
            return items
        if kind == "sequences":
            if fitting:
                self._ngram_encoder = NGramVectorizer()
                return self._ngram_encoder.fit_transform(items)
            if self._ngram_encoder is None:
                raise NotFittedError(f"{self.name} (fitted on a different item kind)")
            return self._ngram_encoder.transform(items)
        if kind == "series":
            if fitting:
                self._series_encoder = SeriesFeaturizer()
            if self._series_encoder is None:
                raise NotFittedError(f"{self.name} (fitted on a different item kind)")
            return self._series_encoder.transform(items)
        raise ValueError(f"unknown item kind {kind!r}")

    def _fit_items(self, kind: str, items) -> None:
        self._fit_matrix(self._encode(kind, items, fitting=True))

    def _score_items(self, kind: str, items) -> np.ndarray:
        return self._score_matrix(self._encode(kind, items, fitting=False))

    # -- series localization ------------------------------------------
    def _fit_series_impl(self, series: TimeSeries, width: int, stride: int) -> None:
        mat = sliding_window_matrix(series, width, stride)
        if mat.shape[0] == 0:
            raise DataQualityError(
                f"series of length {len(series)} yields no windows of width {width}"
            )
        self._fit_matrix(np.nan_to_num(mat, nan=0.0))

    def _score_series_impl(self, series: TimeSeries) -> np.ndarray:
        width, stride = self._series_width, self._series_stride
        mat = sliding_window_matrix(series, width, stride)
        if mat.shape[0] == 0:
            return np.zeros(len(series))
        window_scores = self._score_matrix(np.nan_to_num(mat, nan=0.0))
        return window_scores_to_point_scores(
            window_scores, len(series), width, stride
        )

    # -- batched series localization ----------------------------------
    def _batch_score_windows(self, windows: np.ndarray) -> Optional[np.ndarray]:
        """Vectorized kernel hook: score a ``(n_series, n_windows, width)``
        stack in one shot, returning per-window scores ``(n_series,
        n_windows)`` or None to fall back to the scalar loop.

        Slice ``[i]`` must reproduce ``_fit_matrix(windows[i])`` followed
        by ``_score_matrix(windows[i])`` — the fit-score-own-windows path —
        to within the pipeline's 1e-9 batch tolerance.  Detectors
        implementing this set ``supports_batch = True``.
        """
        return None

    def fit_score_series_batch(self, series_list: Sequence[TimeSeries],
                               width: int = 16, stride: int = 1) -> List[np.ndarray]:
        """Batch scoring via the ``_batch_score_windows`` kernel when possible.

        The kernel path requires same-length series (one window stack) and
        at least one full window per series; ragged groups, single-series
        calls, and detectors without a kernel fall back to the scalar loop.
        """
        series_list = list(series_list)
        if type(self).supports_batch and len(series_list) > 1:
            lengths = {len(s.values) for s in series_list}
            if len(lengths) == 1:
                n_points = lengths.pop()
                windows = batch_sliding_windows(
                    [s.values for s in series_list], width, stride
                )
                if windows.shape[1] > 0:
                    windows = np.nan_to_num(windows, nan=0.0)
                    window_scores = self._run_hook(
                        "fit_score_series_batch", self._batch_score_windows, windows
                    )
                    if window_scores is not None:
                        window_scores = np.asarray(window_scores, dtype=np.float64)
                        if np.isnan(window_scores).any():
                            # NaN window scores flip the scalar helper's
                            # coverage semantics; only the loop gets those right
                            return super().fit_score_series_batch(
                                series_list, width=width, stride=stride
                            )
                        point_scores = batch_window_scores_to_point_scores(
                            window_scores, n_points, width, stride
                        )
                        return [self._sanitize(row) for row in point_scores]
        return super().fit_score_series_batch(series_list, width=width, stride=stride)


class SymbolDetector(BaseDetector):
    """Base class for detectors whose native domain is label sequences.

    Subclasses implement ``_fit_sequences(seqs)`` and
    ``_score_positions(seq) -> per-symbol scores``.  The per-sequence score
    defaults to the mean of the top quartile of position scores (so a
    short anomalous burst dominates a long normal remainder).  Numeric
    series are consumed through SAX symbolization.
    """

    #: SAX parameters used when a numeric series must be symbolized.
    sax_word_length: int = 8
    sax_alphabet_size: int = 4

    def __init__(self) -> None:
        super().__init__()
        self._tss_symbolizer: Optional[SeriesSymbolizer] = None

    @abc.abstractmethod
    def _fit_sequences(self, sequences: Sequence[DiscreteSequence]) -> None: ...

    @abc.abstractmethod
    def _score_positions(self, sequence: DiscreteSequence) -> np.ndarray: ...

    def _score_sequence(self, sequence: DiscreteSequence) -> float:
        pos = self._score_positions(sequence)
        if pos.size == 0:
            return 0.0
        k = max(1, pos.size // 4)
        return float(np.sort(pos)[-k:].mean())

    # -- collection handling -------------------------------------------
    def _as_sequences(self, kind: str, items, fitting: bool) -> Tuple[DiscreteSequence, ...]:
        if kind == "sequences":
            return items
        if kind == "series":
            if fitting:
                self._tss_symbolizer = SeriesSymbolizer(
                    word_length=16, alphabet_size=self.sax_alphabet_size
                )
            if self._tss_symbolizer is None:
                raise NotFittedError(f"{self.name} (fitted on a different item kind)")
            return self._tss_symbolizer.transform(items)
        raise ShapeUnsupportedError(self.name, kind)

    def _fit_items(self, kind: str, items) -> None:
        self._fit_sequences(self._as_sequences(kind, items, fitting=True))

    def _score_items(self, kind: str, items) -> np.ndarray:
        if self._fit_kind is not None and kind != self._fit_kind:
            # a model fitted on SAX words cannot judge raw label sequences
            # (different alphabets), and vice versa
            raise NotFittedError(f"{self.name} (fitted on a different item kind)")
        seqs = self._as_sequences(kind, items, fitting=False)
        return np.array([self._score_sequence(s) for s in seqs])

    # -- series localization via SAX words ------------------------------
    def _symbolize_series(self, series: TimeSeries, width: int, stride: int):
        return sax_symbolize(
            series,
            window=width,
            word_length=min(self.sax_word_length, width),
            alphabet_size=self.sax_alphabet_size,
            stride=stride,
        )

    def _fit_series_impl(self, series: TimeSeries, width: int, stride: int) -> None:
        words, __ = self._symbolize_series(series, width, stride)
        self._fit_sequences((words,))

    def _score_series_impl(self, series: TimeSeries) -> np.ndarray:
        width, stride = self._series_width, self._series_stride
        words, starts = self._symbolize_series(series, width, stride)
        word_scores = self._score_positions(words)
        return window_scores_to_point_scores(
            word_scores, len(series), width, stride
        )


def has_batch_kernel(detector_cls: type) -> bool:
    """True iff ``detector_cls`` ships a vectorized batch kernel.

    Structural twin of the ``supports_batch`` flag: a detector has a
    kernel when it overrides ``fit_score_series_batch`` beyond the generic
    loop/orchestrator implementations, or (for :class:`VectorDetector`
    subclasses) overrides the ``_batch_score_windows`` hook.  An inherited
    hook does not count once a subclass overrides ``_fit_matrix`` or
    ``_score_matrix``: the kernel never calls them, so it would bypass the
    override (the chaos wrappers inject their faults exactly there).  The
    test suite asserts ``has_batch_kernel(cls) == cls.supports_batch`` for
    every registry detector, so the flag cannot drift from the code.
    """
    generic = {BaseDetector.fit_score_series_batch, VectorDetector.fit_score_series_batch}
    if detector_cls.fit_score_series_batch not in generic:
        return True
    for klass in detector_cls.__mro__:
        if "_batch_score_windows" in vars(klass):
            return klass is not VectorDetector
        if "_fit_matrix" in vars(klass) or "_score_matrix" in vars(klass):
            return False
    return False
