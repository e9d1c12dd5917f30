"""Fault-tolerant pipeline execution: sandbox, quality gate, RunHealth.

The paper targets *industrial production settings* — environments where
sensors drop out mid-run, streams stall, and individual detectors hit
degenerate inputs.  This module is the resilience layer that lets the
hierarchical pipeline **always return a report, annotated with how
degraded it is**, instead of crashing:

* :class:`DetectorSandbox` — guarded execution of one detector call with a
  wall-clock budget, bounded retry with deterministic backoff for
  transient failures, and a structured :class:`SandboxOutcome` the caller
  dispatches on (fall back to the next ``ChooseAlgorithm`` candidate);
* the **data-quality gate** — :func:`assess_series` classifies a trace's
  infrastructure problems (NaN runs, flatlined/stuck sensors, truncated
  traces) into :class:`QualityIssue` records, :func:`repair_series` fixes
  the benign ones (short gap interpolation, ±inf clipping) and fatal ones
  quarantine the channel; :func:`clean_rows` prechecks a same-length stack
  of traces at once, so only the ones it rejects need the per-trace gate;
* :class:`RunHealth` — the structured degradation record attached to every
  pipeline run: fallbacks taken, quarantined channels, warnings, per-level
  degradation notes;
* :func:`robust_fallback_scores` / :func:`robust_matrix_scores` — the
  terminal robust z/MAD baseline that scores a trace when every configured
  detector has failed, so a level is degraded but never silent.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..detectors.errors import (
    DataQualityError,
    DetectorError,
    DetectorTimeoutError,
    NotFittedError,
    ShapeUnsupportedError,
)

__all__ = [
    "FallbackEvent",
    "QuarantineEvent",
    "RunHealth",
    "SandboxPolicy",
    "SandboxOutcome",
    "DetectorSandbox",
    "QualityPolicy",
    "QualityIssue",
    "assess_series",
    "clean_rows",
    "repair_series",
    "robust_fallback_scores",
    "robust_matrix_scores",
]


# ----------------------------------------------------------------------
# RunHealth — the structured degradation record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FallbackEvent:
    """One detector failure that the pipeline survived by falling back."""

    level: str  # production level label (or component name)
    unit: str  # what was being scored, e.g. "line0/m1/job3/printing/chamber_temp-0"
    failed_detector: str
    error: str  # "<ErrorClass>: <message>"
    fallback: str  # detector that took over, or "robust-baseline"
    attempts: int = 1
    timed_out: bool = False


@dataclass(frozen=True)
class QuarantineEvent:
    """One channel (or one trace of a channel) pulled from scoring/support.

    ``scope`` is either the specific trace coordinate
    (``"<machine>/job<j>/<phase>"``, or the line for environment channels)
    or the literal ``"channel"`` when the sensor produced no usable trace
    at all — the dead-sensor case whose vote is removed from the support
    divisor.
    """

    channel_id: str
    scope: str
    reason: str


@dataclass
class RunHealth:
    """How degraded one pipeline run is, and exactly why.

    Every resilience action — a fallback taken, a channel quarantined, a
    swallowed lookup surfaced as a warning — lands here, so a report
    consumer can tell a pristine run from one that survived on fallbacks.
    All record methods are deterministic (no timestamps, insertion order
    follows the pipeline's fixed iteration order), which keeps repeated
    seeded runs byte-identical.
    """

    fallbacks: List[FallbackEvent] = field(default_factory=list)
    quarantines: List[QuarantineEvent] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    level_notes: Dict[str, str] = field(default_factory=dict)

    # -- recording ------------------------------------------------------
    def record_fallback(self, event: FallbackEvent) -> None:
        self.fallbacks.append(event)

    def record_quarantine(self, channel_id: str, scope: str, reason: str) -> None:
        self.quarantines.append(QuarantineEvent(channel_id, scope, reason))

    def warn(self, message: str) -> None:
        """Record a warning once (repeat calls with the same text are no-ops)."""
        if message not in self.warnings:
            self.warnings.append(message)

    def note_level(self, level: str, note: str) -> None:
        """Mark a whole level as degraded (kept: first note wins)."""
        self.level_notes.setdefault(level, note)

    # -- queries --------------------------------------------------------
    @property
    def degraded(self) -> bool:
        return bool(
            self.fallbacks or self.quarantines or self.warnings or self.level_notes
        )

    @property
    def quarantined_channels(self) -> FrozenSet[str]:
        """Every channel with at least one quarantined trace."""
        return frozenset(q.channel_id for q in self.quarantines)

    @property
    def dead_channels(self) -> FrozenSet[str]:
        """Channels quarantined wholesale (scope ``"channel"``): these are
        excluded from the support divisor so a dead sensor no longer votes
        "no support" against a real fault."""
        return frozenset(
            q.channel_id for q in self.quarantines if q.scope == "channel"
        )

    def counters(self) -> Dict[str, int]:
        """Flat integer counters, merged into ``pipeline.stats()``."""
        return {
            "health_fallbacks": len(self.fallbacks),
            "health_quarantines": len(self.quarantines),
            "health_dead_channels": len(self.dead_channels),
            "health_warnings": len(self.warnings),
            "health_degraded_levels": len(self.level_notes),
        }

    def as_dict(self) -> Dict:
        """JSON-safe nested representation (stable key order)."""
        return {
            "degraded": self.degraded,
            "fallbacks": [
                {
                    "level": f.level,
                    "unit": f.unit,
                    "failed_detector": f.failed_detector,
                    "error": f.error,
                    "fallback": f.fallback,
                    "attempts": f.attempts,
                    "timed_out": f.timed_out,
                }
                for f in self.fallbacks
            ],
            "quarantines": [
                {"channel_id": q.channel_id, "scope": q.scope, "reason": q.reason}
                for q in self.quarantines
            ],
            "warnings": list(self.warnings),
            "level_notes": dict(self.level_notes),
            "counters": self.counters(),
        }

    def describe(self) -> str:
        """Multi-line operator summary (empty string when pristine)."""
        if not self.degraded:
            return ""
        lines = ["run health: DEGRADED"]
        for label, note in sorted(self.level_notes.items()):
            lines.append(f"  level {label}: {note}")
        for q in self.quarantines:
            lines.append(f"  quarantined {q.channel_id} [{q.scope}]: {q.reason}")
        for f in self.fallbacks:
            timeout = " (timeout)" if f.timed_out else ""
            lines.append(
                f"  fallback at {f.level} {f.unit}: {f.failed_detector} -> "
                f"{f.fallback}{timeout} after {f.attempts} attempt(s): {f.error}"
            )
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# DetectorSandbox — guarded execution with budget / retry / backoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SandboxPolicy:
    """How one detector call is guarded.

    ``time_budget`` is wall-clock seconds per attempt (None disables).
    With ``hard_timeout`` the call runs in a daemon worker thread that is
    abandoned when the budget expires — the only way to survive a *hanging*
    detector; without it the budget is enforced post hoc (a call that
    finished late still counts as timed out, so fallback behaviour is
    deterministic either way).  ``max_attempts`` bounds retries of
    *transient* failures (plain :class:`DetectorError`); deterministic
    failures — :class:`NotFittedError`, :class:`ShapeUnsupportedError`,
    :class:`DataQualityError`, :class:`DetectorTimeoutError` — are never
    retried.  Retry *k* (1-based) sleeps ``backoff_base * 2**(k-1)``
    seconds: deterministic exponential backoff, no jitter, so seeded runs
    replay identically.
    """

    time_budget: Optional[float] = 60.0
    max_attempts: int = 2
    backoff_base: float = 0.0
    hard_timeout: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive (or None)")


@dataclass
class SandboxOutcome:
    """Result of one guarded call: either ``value`` or ``error``."""

    ok: bool
    value: object = None
    error: Optional[BaseException] = None
    attempts: int = 1
    elapsed: float = 0.0
    timed_out: bool = False

    @property
    def error_text(self) -> str:
        if self.error is None:
            return ""
        return f"{type(self.error).__name__}: {self.error}"


#: DetectorError subclasses whose failure is deterministic — retrying the
#: same call cannot help.
_PERMANENT = (
    NotFittedError,
    ShapeUnsupportedError,
    DataQualityError,
    DetectorTimeoutError,
)


class DetectorSandbox:
    """Run detector calls so that no single failure can kill the run.

    ``sleep`` and ``clock`` are injectable for deterministic tests; the
    defaults are :func:`time.sleep` / :func:`time.monotonic`.
    """

    def __init__(
        self,
        policy: Optional[SandboxPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or SandboxPolicy()
        self._sleep = sleep
        self._clock = clock

    def call(self, fn: Callable[[], object], label: str = "detector") -> SandboxOutcome:
        """Execute ``fn`` under the policy; never raises."""
        policy = self.policy
        attempts = 0
        last_error: Optional[BaseException] = None
        elapsed = 0.0
        timed_out = False
        while attempts < policy.max_attempts:
            attempts += 1
            started = self._clock()
            try:
                value = self._invoke(fn, label)
            except BaseException as exc:  # noqa: BLE001 - sandbox boundary
                elapsed = self._clock() - started
                last_error = exc
                timed_out = isinstance(exc, DetectorTimeoutError)
                transient = isinstance(exc, DetectorError) and not isinstance(
                    exc, _PERMANENT
                )
                if not transient or attempts >= policy.max_attempts:
                    break
                if policy.backoff_base > 0:
                    self._sleep(policy.backoff_base * 2 ** (attempts - 1))
                continue
            elapsed = self._clock() - started
            if (
                policy.time_budget is not None
                and not policy.hard_timeout
                and elapsed > policy.time_budget
            ):
                # soft budget: the result arrived too late to trust the
                # detector with the rest of the level — treat as timeout
                last_error = DetectorTimeoutError(label, policy.time_budget)
                timed_out = True
                break
            return SandboxOutcome(
                ok=True, value=value, attempts=attempts, elapsed=elapsed
            )
        return SandboxOutcome(
            ok=False,
            error=last_error,
            attempts=attempts,
            elapsed=elapsed,
            timed_out=timed_out,
        )

    def _invoke(self, fn: Callable[[], object], label: str) -> object:
        if self.policy.time_budget is None or not self.policy.hard_timeout:
            return fn()
        box: Dict[str, object] = {}

        def worker() -> None:
            try:
                box["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 - relayed below
                box["error"] = exc

        thread = threading.Thread(
            target=worker, name=f"sandbox-{label}", daemon=True
        )
        thread.start()
        thread.join(self.policy.time_budget)
        if thread.is_alive():
            # the worker is abandoned (daemon): a hanging detector cannot
            # stall the pipeline, only waste its own thread
            raise DetectorTimeoutError(label, self.policy.time_budget)
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["value"]


# ----------------------------------------------------------------------
# data-quality gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QualityPolicy:
    """Thresholds of the trace validation gate.

    Fatal issues quarantine the trace (no scoring, no support vote);
    benign ones are repaired (:func:`repair_series`) and surfaced as
    RunHealth warnings.  The defaults are sized for the plant simulator's
    phase traces (60-400 samples at 1 Hz).
    """

    min_length: int = 8  # shorter traces carry no usable signal
    max_nan_fraction: float = 0.5
    max_nan_run: int = 32  # longest contiguous missing run tolerated
    repair_max_gap: int = 8  # gaps up to this length are interpolated
    flatline_run: int = 40  # identical consecutive samples => stuck sensor
    flatline_tolerance: float = 0.0  # |diff| considered "identical"

    def __post_init__(self) -> None:
        if not 0.0 < self.max_nan_fraction <= 1.0:
            raise ValueError("max_nan_fraction must be in (0, 1]")
        if self.min_length < 1 or self.max_nan_run < 1 or self.flatline_run < 2:
            raise ValueError("length thresholds must be positive")
        # a NaN or negative tolerance makes every `|diff| <= tolerance`
        # test False: the stuck-sensor check would silently switch off
        if not math.isfinite(self.flatline_tolerance) or self.flatline_tolerance < 0:
            raise ValueError(
                "flatline_tolerance must be finite and >= 0, "
                f"got {self.flatline_tolerance}"
            )
        if self.repair_max_gap < 0:
            raise ValueError(f"repair_max_gap must be >= 0, got {self.repair_max_gap}")


@dataclass(frozen=True)
class QualityIssue:
    """One problem the gate found in a trace."""

    code: str  # "all-missing" | "nan-fraction" | "nan-run" | "gap" |
    #            "non-finite" | "flatline" | "too-short" | "length-mismatch"
    detail: str
    fatal: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "fatal" if self.fatal else "warn"
        return f"[{kind}] {self.code}: {self.detail}"


def _longest_true_run(mask: np.ndarray) -> int:
    """Length of the longest run of True in a boolean array."""
    if mask.size == 0 or not mask.any():
        return 0
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return int((edges[1::2] - edges[::2]).max())


def assess_series(
    values: np.ndarray,
    policy: Optional[QualityPolicy] = None,
    expected_length: Optional[int] = None,
) -> List[QualityIssue]:
    """Validate one trace; returns the (possibly empty) issue list.

    ``expected_length`` enables the truncated-trace check: sibling channels
    of one phase must agree on sample count.
    """
    policy = policy or QualityPolicy()
    x = np.asarray(values, dtype=np.float64)
    issues: List[QualityIssue] = []

    if expected_length is not None and len(x) != expected_length:
        issues.append(
            QualityIssue(
                "length-mismatch",
                f"{len(x)} samples where siblings have {expected_length}",
                fatal=True,
            )
        )
    if len(x) < policy.min_length:
        issues.append(
            QualityIssue(
                "too-short", f"{len(x)} samples < min_length {policy.min_length}",
                fatal=True,
            )
        )
        return issues

    finite = np.isfinite(x)
    n_inf = int(np.isinf(x).sum())
    if n_inf:
        issues.append(
            QualityIssue("non-finite", f"{n_inf} infinite sample(s)", fatal=False)
        )
    missing = ~finite
    n_missing = int(missing.sum())
    if n_missing == len(x):
        issues.append(QualityIssue("all-missing", "every sample missing", fatal=True))
        return issues
    if n_missing:
        fraction = n_missing / len(x)
        run = _longest_true_run(missing)
        if fraction > policy.max_nan_fraction:
            issues.append(
                QualityIssue(
                    "nan-fraction",
                    f"{fraction:.0%} missing > {policy.max_nan_fraction:.0%}",
                    fatal=True,
                )
            )
        elif run > policy.max_nan_run:
            issues.append(
                QualityIssue(
                    "nan-run",
                    f"missing run of {run} samples > {policy.max_nan_run}",
                    fatal=True,
                )
            )
        else:
            issues.append(
                QualityIssue(
                    "gap", f"{n_missing} missing sample(s), longest run {run}",
                    fatal=False,
                )
            )

    # stuck-at detection on the observed samples: a healthy analog channel
    # never repeats the exact same value for flatline_run samples
    observed = x[finite]
    if observed.size >= policy.flatline_run:
        same = np.abs(np.diff(observed)) <= policy.flatline_tolerance
        run = _longest_true_run(same) + 1 if same.any() else 1
        if run >= policy.flatline_run:
            issues.append(
                QualityIssue(
                    "flatline",
                    f"stuck at {observed[-1]:.6g} for {run} samples",
                    fatal=True,
                )
            )
    return issues


def clean_rows(
    X: np.ndarray, policy: Optional[QualityPolicy] = None
) -> np.ndarray:
    """Which traces of a same-length stack the gate passes through untouched.

    True where :func:`assess_series` (without ``expected_length``) finds
    no issue and :func:`repair_series` would change nothing: every sample
    is finite and, once the trace is long enough for the stuck-sensor
    check, no two consecutive samples lie within ``flatline_tolerance``.
    The test is conservative — a False row need not be faulty, it only
    has to go through the scalar gate.  Every row is False below
    ``min_length``.
    """
    policy = policy or QualityPolicy()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("clean_rows takes a 2-D stack of same-length traces")
    if X.shape[1] < policy.min_length:
        return np.zeros(X.shape[0], dtype=bool)
    clean = np.isfinite(X).all(axis=1)
    if X.shape[1] >= policy.flatline_run and clean.any():
        # only finite rows: a diff across ±inf samples would warn
        rows = np.flatnonzero(clean)
        same = np.abs(np.diff(X[rows], axis=1)) <= policy.flatline_tolerance
        clean[rows] = ~same.any(axis=1)
    return clean


def repair_series(
    values: np.ndarray, policy: Optional[QualityPolicy] = None
) -> Tuple[np.ndarray, List[str]]:
    """Repair the benign problems of a gated trace.

    ±inf samples become missing; interior missing gaps of at most
    ``repair_max_gap`` samples are linearly interpolated (edge gaps hold
    the nearest observed value).  Longer gaps stay NaN — the detectors'
    NaN handling takes over.  Returns the repaired array (the input is
    never mutated) and human-readable notes of what was done; an empty
    note list means the array is returned unchanged.
    """
    policy = policy or QualityPolicy()
    x = np.asarray(values, dtype=np.float64)
    notes: List[str] = []
    n_inf = int(np.isinf(x).sum())
    if n_inf:
        x = np.where(np.isinf(x), np.nan, x)
        notes.append(f"replaced {n_inf} infinite sample(s) with missing")
    missing = np.isnan(x)
    if missing.any() and not missing.all():
        padded = np.concatenate(([False], missing, [False]))
        edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
        starts, stops = edges[::2], edges[1::2]
        filled = 0
        out = x.copy()
        idx = np.arange(len(x), dtype=np.float64)
        observed = ~missing
        for lo, hi in zip(starts, stops):
            if hi - lo > policy.repair_max_gap:
                continue
            out[lo:hi] = np.interp(idx[lo:hi], idx[observed], x[observed])
            filled += hi - lo
        if filled:
            x = out
            notes.append(f"interpolated {filled} missing sample(s)")
    return x, notes


# ----------------------------------------------------------------------
# terminal robust baseline
# ----------------------------------------------------------------------
def robust_fallback_scores(values: np.ndarray) -> np.ndarray:
    """|robust z| of every sample (median/MAD): the last-resort trace scorer.

    Used when every configured detector for a level has failed; missing
    samples score 0.  Deterministic and parameter-free, so a degraded
    level still produces comparable, finite outlierness.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        return np.zeros(0)
    finite = x[np.isfinite(x)]
    if finite.size == 0:
        return np.zeros(len(x))
    med = float(np.median(finite))
    mad = float(np.median(np.abs(finite - med))) * 1.4826
    if mad <= 1e-12:
        mad = float(finite.std()) or 1.0
    scores = np.abs(x - med) / mad
    return np.where(np.isfinite(scores), scores, 0.0)


def robust_matrix_scores(X: np.ndarray) -> np.ndarray:
    """Per-row max |robust z| over columns: the vector-level last resort."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        return np.zeros(X.shape[0] if X.ndim >= 1 else 0)
    # impute all-missing columns to 0 so nanmedian never sees an empty
    # slice (it would emit a RuntimeWarning, fatal under `-W error`)
    dead_cols = ~np.isfinite(X).any(axis=0)
    if dead_cols.any():
        X = X.copy()
        X[:, dead_cols] = 0.0
    med = np.nanmedian(X, axis=0)
    mad = np.nanmedian(np.abs(X - med), axis=0) * 1.4826
    mad = np.where(mad <= 1e-12, 1.0, mad)
    z = np.abs(X - med) / mad
    z = np.where(np.isfinite(z), z, 0.0)
    return z.max(axis=1)
