"""End-to-end hierarchical detection over a simulated plant run.

:class:`HierarchicalDetectionPipeline` wires everything together: the
per-level detectors chosen by :class:`~repro.core.selection.AlgorithmSelector`
score every level of a :class:`~repro.plant.PlantDataset`, the
correspondence graph feeds the support computation, and Algorithm 1 turns
phase-level candidates into ranked ⟨global score, outlierness, support⟩
reports.  A *flat* single-level baseline (outlierness only, no hierarchy)
is exposed for the alg1 benchmark.

The context is the Algorithm-1 hot path, so it is built to be queried
repeatedly: per-level flag/score indexes (machine→line map, job interval
index, sorted per-channel trace index, phase-candidate indexes) are
precomputed once, and ``confirm`` / ``support`` / ``find_candidates`` are
memoized on the candidate's canonical :attr:`~repro.core.OutlierCandidate.key`
(toggle with :attr:`PipelineConfig.enable_cache`; counters via
:meth:`PlantHierarchyContext.stats`).
"""

from __future__ import annotations

import functools
import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, cast

import numpy as np

from ..detectors import BaseDetector, make_detector
from ..obs import Telemetry
from ..obs.metrics import BYTE_BUCKETS, UNIT_BUCKETS
from ..obs.trace import Tracer
from ..plant import JobRecord, LineRecord, PlantDataset
from ..timeseries import TimeSeries
from .algorithm import HierarchyContext, find_hierarchical_outliers
from .levels import ProductionLevel
from .outlier import (
    HierarchicalOutlierReport,
    LevelConfirmation,
    OutlierCandidate,
    rank_reports,
)
from .parallel import EngineStats, ParallelEngine, Task, TaskGraph
from .resilience import (
    DetectorSandbox,
    FallbackEvent,
    QualityPolicy,
    RunHealth,
    SandboxPolicy,
    assess_series,
    clean_rows,
    repair_series,
    robust_fallback_scores,
    robust_matrix_scores,
)
from .scores import unify_rank
from .selection import AlgorithmSelector
from .support import CorrespondenceGraph, SupportCalculator, SupportResult, window_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .checkpoint import CheckpointManager

__all__ = [
    "PipelineConfig",
    "PipelineStats",
    "PlantHierarchyContext",
    "HierarchicalDetectionPipeline",
    "STATS_SCHEMA",
]

#: Version tag of the nested dict returned by ``stats()`` (see
#: docs/OBSERVABILITY.md for the full schema).
STATS_SCHEMA = "repro.stats/4"


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs of the plant pipeline (all robust-scale units)."""

    phase_sigma: float = 6.0  # MAD multiplier flagging phase-trace samples
    env_sigma: float = 5.0
    vector_sigma: float = 2.0  # job / line / production flags
    support_tolerance: float = 8.0
    fusion_strategy: str = "weighted"
    max_candidates_per_trace: int = 3
    candidate_gap: int = 3  # samples merging consecutive flagged runs
    line_history: int = 5  # jobs of temporal context at the line level
    enable_cache: bool = True  # memoize confirm/support/candidate lookups
    enable_telemetry: bool = True  # spans + metrics + structured logs
    gate_enabled: bool = True  # data-quality gate + trace repair/quarantine
    quality: QualityPolicy = QualityPolicy()  # gate thresholds
    sandbox: SandboxPolicy = SandboxPolicy()  # detector budget/retry policy
    executor: str = "serial"  # scoring DAG executor: serial | process
    max_workers: Optional[int] = None  # pool size; None = auto from CPU affinity
    checkpoint_dir: Optional[str] = None  # snapshot store directory; None = off
    checkpoint_every: int = 1  # snapshot after every Nth refresh()
    checkpoint_retain: int = 3  # snapshot files kept on disk
    perf_alloc: bool = False  # per-task tracemalloc peak capture (slow; opt-in)

    def __post_init__(self) -> None:
        # each rejected value would switch detection off without a word:
        # a NaN/inf sigma flags nothing, < 1 candidates per trace report none
        for name in ("phase_sigma", "env_sigma", "vector_sigma"):
            sigma = getattr(self, name)
            if not math.isfinite(sigma) or sigma <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {sigma}")
        if not math.isfinite(self.support_tolerance) or self.support_tolerance < 0:
            raise ValueError(
                "support_tolerance must be finite and >= 0, "
                f"got {self.support_tolerance}"
            )
        if self.max_candidates_per_trace < 1:
            raise ValueError(
                "max_candidates_per_trace must be >= 1, "
                f"got {self.max_candidates_per_trace}"
            )
        for name in ("candidate_gap", "line_history"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class PipelineStats:
    """Call/hit counters of the context's memoization layer.

    A *miss* is an actual recomputation; ``calls - hits == misses``, so a
    caller that re-runs Algorithm 1 N times over an unchanged context
    should see ``confirm_calls ≈ N × confirm_misses``.
    """

    confirm_calls: int = 0
    confirm_hits: int = 0
    support_calls: int = 0
    support_hits: int = 0
    candidate_time_calls: int = 0
    candidate_time_hits: int = 0
    find_candidates_calls: int = 0
    find_candidates_hits: int = 0

    @property
    def confirm_misses(self) -> int:
        return self.confirm_calls - self.confirm_hits

    @property
    def support_misses(self) -> int:
        return self.support_calls - self.support_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "confirm_calls": self.confirm_calls,
            "confirm_hits": self.confirm_hits,
            "confirm_misses": self.confirm_misses,
            "support_calls": self.support_calls,
            "support_hits": self.support_hits,
            "support_misses": self.support_misses,
            "candidate_time_calls": self.candidate_time_calls,
            "candidate_time_hits": self.candidate_time_hits,
            "find_candidates_calls": self.find_candidates_calls,
            "find_candidates_hits": self.find_candidates_hits,
        }

    def as_nested(self) -> Dict[str, Dict[str, int]]:
        """The ``cache`` block of the :data:`STATS_SCHEMA` stats dict:
        one ``{"calls", "hits", "misses"}`` entry per memo table."""
        def entry(calls: int, hits: int) -> Dict[str, int]:
            return {"calls": calls, "hits": hits, "misses": calls - hits}

        return {
            "confirm": entry(self.confirm_calls, self.confirm_hits),
            "support": entry(self.support_calls, self.support_hits),
            "candidate_time": entry(
                self.candidate_time_calls, self.candidate_time_hits
            ),
            "find_candidates": entry(
                self.find_candidates_calls, self.find_candidates_hits
            ),
        }


@dataclass
class _Trace:
    """Outlierness trace of one channel over one contiguous time span."""

    channel_id: str
    start: float
    step: float
    scores: np.ndarray
    threshold: float

    @property
    def end(self) -> float:
        return self.start + len(self.scores) * self.step

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


def _robust_standardize(X: np.ndarray) -> np.ndarray:
    """Per-column median/MAD scaling so no raw unit dominates distances."""
    med = np.median(X, axis=0)
    mad = np.median(np.abs(X - med), axis=0) * 1.4826
    mad[mad <= 1e-12] = 1.0
    return (X - med) / mad


def _robust_threshold(scores: np.ndarray, sigma: float) -> float:
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        return math.inf
    med = float(np.median(finite))
    mad = float(np.median(np.abs(finite - med))) * 1.4826
    if mad <= 1e-12:
        mad = float(finite.std()) or 1.0
    return med + sigma * mad


def _length_groups(arrays: Sequence[np.ndarray]) -> Dict[int, List[int]]:
    """Indices of ``arrays`` grouped by length, in first-occurrence order."""
    groups: Dict[int, List[int]] = {}
    for i, array in enumerate(arrays):
        groups.setdefault(len(array), []).append(i)
    return groups


def _robust_thresholds(
    rows: Sequence[np.ndarray], sigma: float
) -> Tuple[List[float], List[bool]]:
    """:func:`_robust_threshold` of every row, plus whether any score of the
    row reaches its threshold (the rows :func:`_peak_indices` can flag).

    One row-wise median pass per distinct length.  Medians are selections
    from the same multiset and the rest is elementwise, so every value is
    bit-identical to the scalar helper; rows with a non-finite score, no
    samples, or a degenerate MAD take the scalar helper itself.
    """
    thresholds = [0.0] * len(rows)
    reach = [False] * len(rows)
    for idxs in _length_groups(rows).values():
        S = np.stack([np.asarray(rows[i], dtype=np.float64) for i in idxs])
        thr = np.empty(len(idxs))
        scalar = np.ones(len(idxs), dtype=bool)
        ok = np.flatnonzero(np.isfinite(S).all(axis=1) & (S.shape[1] > 0))
        if ok.size:
            F = S[ok]
            med = np.median(F, axis=1)
            mad = np.median(np.abs(F - med[:, None]), axis=1) * 1.4826
            thr[ok] = med + sigma * mad
            scalar[ok[mad > 1e-12]] = False
        for k in np.flatnonzero(scalar):
            thr[k] = _robust_threshold(S[k], sigma)
        hit = (S >= thr[:, None]).any(axis=1)
        for i, t, h in zip(idxs, thr.tolist(), hit.tolist()):
            thresholds[i] = t
            reach[i] = h
    return thresholds, reach


def _peak_indices(scores: np.ndarray, threshold: float, gap: int,
                  max_peaks: int) -> List[int]:
    """Argmax of every flagged run (runs closer than ``gap`` merge)."""
    above = np.where(scores >= threshold)[0]
    if above.size == 0:
        return []
    peaks: List[Tuple[float, int]] = []
    run_start = above[0]
    prev = above[0]
    for idx in above[1:]:
        if idx - prev > gap:
            segment = scores[run_start : prev + 1]
            peaks.append((float(segment.max()), run_start + int(segment.argmax())))
            run_start = idx
        prev = idx
    segment = scores[run_start : prev + 1]
    peaks.append((float(segment.max()), run_start + int(segment.argmax())))
    peaks.sort(reverse=True)
    return [idx for __, idx in peaks[:max_peaks]]


def _modal_expected_length(
    items: Tuple[Tuple[str, TimeSeries], ...]
) -> Optional[int]:
    """Majority sample count among sibling channels (None when no majority)."""
    if len(items) < 2:
        return None
    counts: Dict[int, int] = {}
    for __, series in items:
        n = len(series.values)
        counts[n] = counts.get(n, 0) + 1
    expected = max(counts, key=lambda n: (counts[n], n))
    return None if counts[expected] == 1 else expected


# ----------------------------------------------------------------------
# scoring tasks (executed by repro.core.parallel, possibly out-of-process)
# ----------------------------------------------------------------------
#
# The five `_score_*_level` walks of the serial pipeline are decomposed
# into per-machine / per-line tasks.  A task is a pure function of its
# picklable payload: it records health/metric side effects as an ordered
# *event list* and its spans on a worker-local tracer, and the context
# replays both at merge time in graph insertion order — so the health
# record, the metrics, and the exported reports are bit-identical across
# the serial and process executors.

_EventList = List[Tuple[str, object]]
#: a phase task's output: (sensor, trace) pairs and candidates, in job order
_PhaseOut = Tuple[List[Tuple[str, _Trace]], List[OutlierCandidate]]
_T = TypeVar("_T")


@dataclass(frozen=True)
class _ScoreTask:
    """Picklable payload of one scoring task.

    Nothing in it depends on scheduling order; stochastic detectors seed
    themselves.
    """

    kind: str  # "phase" | "env" | "job" | "line" | "production"
    key: str
    level: ProductionLevel
    chain: Tuple[str, ...]
    config: PipelineConfig
    telemetry_enabled: bool
    executor: str
    #: Tuple of level inputs.
    data: Tuple[object, ...]


@dataclass
class _TaskResult:
    """What one scoring task ships back to the merge step."""

    key: str
    kind: str
    events: _EventList
    spans: List[Dict[str, object]]
    output: object
    batch_groups: int = 0


@dataclass
class _WorkerState:
    """Mutable per-task scratch shared by the worker-side helpers."""

    config: PipelineConfig
    level: ProductionLevel
    chain: Tuple[str, ...]
    tracer: Tracer
    sandbox: DetectorSandbox
    telemetry_enabled: bool
    events: _EventList = field(default_factory=list)
    batch_groups: int = 0


def _worker_label(executor: str) -> str:
    """Human-readable worker attribution for task root spans."""
    if executor == "process":
        return f"pid-{os.getpid()}"
    return "main"


def _gate_series_w(
    state: _WorkerState,
    channel_id: str,
    scope: str,
    series: TimeSeries,
    expected_length: Optional[int] = None,
) -> Optional[TimeSeries]:
    """Quality-gate one trace: repaired series, or None when quarantined."""
    cfg = state.config
    if not cfg.gate_enabled:
        return series
    issues = assess_series(
        np.asarray(series.values, dtype=float),
        cfg.quality,
        expected_length=expected_length,
    )
    fatal = [i for i in issues if i.fatal]
    if fatal:
        reason = "; ".join(f"{i.code}: {i.detail}" for i in fatal)
        state.events.append(
            ("quarantine", (channel_id, scope, reason, getattr(series, "start", None)))
        )
        return None
    repaired, notes = repair_series(
        np.asarray(series.values, dtype=float), cfg.quality
    )
    if notes:
        state.events.append(
            ("warn", f"repaired {channel_id} at {scope}: " + "; ".join(notes))
        )
        return series.replace(values=repaired)
    return series


def _gate_precheck(state: _WorkerState, series_list: Sequence[TimeSeries]) -> List[bool]:
    """:func:`~repro.core.resilience.clean_rows` of a task's traces, one
    stacked call per distinct length; records no events."""
    clean = [False] * len(series_list)
    if not state.config.gate_enabled:
        return clean  # _gate_series_w passes every trace through anyway
    values = [np.asarray(s.values, dtype=float) for s in series_list]
    for idxs in _length_groups(values).values():
        flags = clean_rows(np.stack([values[i] for i in idxs]), state.config.quality)
        for i, flag in zip(idxs, flags.tolist()):
            clean[i] = flag
    return clean


def _gate_group(
    state: _WorkerState,
    items: Sequence[Tuple[str, TimeSeries]],
    clean: Sequence[bool],
    scope: str,
    expected_length: Optional[int] = None,
) -> List[Tuple[str, TimeSeries]]:
    """Gate one group of traces: a precheck-clean trace of the expected
    length is kept as is, every other one takes :func:`_gate_series_w` in
    its usual position, so events keep their order."""
    gated: List[Tuple[str, TimeSeries]] = []
    for (unit_id, series), ok in zip(items, clean):
        fits = expected_length is None or len(series.values) == expected_length
        if not (ok and fits):
            kept = _gate_series_w(state, unit_id, scope, series, expected_length)
            if kept is None:
                continue
            series = kept
        gated.append((unit_id, series))
    return gated


def _gate_matrix_w(state: _WorkerState, X: np.ndarray, label: str) -> np.ndarray:
    """Impute non-finite cells of a vector-level matrix (column median)."""
    X = np.asarray(X, dtype=float)
    bad = ~np.isfinite(X)
    if not bad.any() or not state.config.gate_enabled:
        return X
    masked = np.where(bad, np.nan, X)
    dead_cols = ~np.isfinite(masked).any(axis=0)
    if dead_cols.any():
        masked[:, dead_cols] = 0.0  # keep nanmedian off empty slices
    med = np.nanmedian(masked, axis=0)
    state.events.append(
        ("warn", f"imputed {int(bad.sum())} non-finite cell(s) in the {label} matrix")
    )
    return np.where(bad, med[None, :], X)


def _observe_outcome(
    state: _WorkerState, name: str, outcome: object
) -> None:
    if state.telemetry_enabled:
        state.events.append(
            ("obs", (state.level.name, name, outcome.ok, outcome.elapsed))  # type: ignore[attr-defined]
        )


def _score_resilient(
    state: _WorkerState,
    units: Sequence[str],
    call: Callable[[BaseDetector], _T],
    terminal: Callable[[], _T],
) -> Tuple[_T, str]:
    """Score one group of units through the level's fallback chain.

    ``call`` scores the whole group with one detector instance (a batched
    series call, or one vector-level ``fit_score``).  Each
    ``ChooseAlgorithm`` candidate runs inside the sandbox (budget +
    bounded retry); on failure the next chain entry takes over and one
    :class:`FallbackEvent` per unit in ``units`` is queued for the merge
    step, so health keeps per-trace granularity.  If the whole chain
    fails, ``terminal`` (the robust z/MAD baseline) scores the group — a
    level is degraded, never silent.
    """
    level_name = state.level.name
    chain = state.chain
    for pos, name in enumerate(chain):
        with state.tracer.span(
            "detector", level=level_name, detector=name, unit=units[0],
            batch=len(units),
        ) as sp:
            outcome = state.sandbox.call(
                lambda name=name: call(make_detector(name)), label=name
            )
            sp.set(
                ok=outcome.ok,
                attempts=outcome.attempts,
                timed_out=outcome.timed_out,
            )
        _observe_outcome(state, name, outcome)
        if outcome.ok:
            return cast(_T, outcome.value), name
        fallback = chain[pos + 1] if pos + 1 < len(chain) else "robust-baseline"
        for unit in units:
            state.events.append(
                (
                    "fallback",
                    FallbackEvent(
                        level=level_name,
                        unit=unit,
                        failed_detector=name,
                        error=outcome.error_text,
                        fallback=fallback,
                        attempts=outcome.attempts,
                        timed_out=outcome.timed_out,
                    ),
                )
            )
    state.events.append(("terminal", level_name))
    return terminal(), "robust-baseline"


def _score_series_batch(
    state: _WorkerState,
    gated: List[Tuple[str, TimeSeries]],
    units: List[str],
) -> List[Tuple[np.ndarray, str]]:
    """Score gated traces, stacking same-length ones through one detector fit.

    Traces are grouped by sample count in first-occurrence order and each
    group walks the fallback chain once via ``fit_score_series_batch`` —
    amortizing detector construction, sandbox overhead, and (for
    detectors with a batch kernel) the model fit itself.  ``units`` label
    each trace in fallback events.  Results come back in trace order.
    """
    groups = _length_groups([series.values for __, series in gated])
    results: List[Optional[Tuple[np.ndarray, str]]] = [None] * len(gated)
    for idxs in groups.values():
        series_list = [gated[i][1] for i in idxs]
        scores_list, name = _score_resilient(
            state,
            [units[i] for i in idxs],
            lambda detector: [
                np.asarray(v, dtype=float)
                for v in detector.fit_score_series_batch(series_list)
            ],
            lambda: [
                robust_fallback_scores(np.asarray(s.values, dtype=float))
                for s in series_list
            ],
        )
        for i, scores in zip(idxs, scores_list):
            results[i] = (scores, name)
    state.batch_groups += len(groups)
    return cast(List[Tuple[np.ndarray, str]], results)


def _score_matrix_resilient(
    state: _WorkerState, unit: str, X: np.ndarray
) -> Tuple[np.ndarray, str]:
    """Vector-level scoring: one fallback-chain walk over one matrix."""
    return _score_resilient(
        state,
        [unit],
        lambda detector: np.asarray(detector.fit_score(X), dtype=float),
        lambda: robust_matrix_scores(X),
    )


def _run_phase_task(state: _WorkerState, data: Tuple[object, ...]) -> object:
    """Score the phase traces of the jobs in the payload (one machine's).

    Per-trace work is stacked per distinct length: one gate precheck
    before the group loop and one threshold/peak pass after it.  Gating
    and scoring stay per (job, phase) group, so events, fallback units and
    batch groups are those of a trace-by-trace walk, and the output for
    several jobs is the output for each job, concatenated in job order.
    """
    machine_id, jobs = cast(
        Tuple[str, Tuple[Tuple[int, Tuple[Tuple[str, Tuple[Tuple[str, TimeSeries], ...]], ...]], ...]],
        data,
    )
    cfg = state.config
    clean = _gate_precheck(
        state,
        [series for __, phases in jobs for __, items in phases for __, series in items],
    )
    offset = 0
    traces: List[Tuple[str, _Trace]] = []
    origins: List[Tuple[int, str, str]] = []  # (job, phase, detector) per trace
    for job_index, phases in jobs:
        for phase_name, items in phases:
            scope = f"{machine_id}/job{job_index}/{phase_name}"
            gated = _gate_group(
                state, items, clean[offset : offset + len(items)], scope,
                _modal_expected_length(items),
            )
            offset += len(items)
            scored = _score_series_batch(
                state, gated, [f"{scope}/{sensor_id}" for sensor_id, __ in gated]
            )
            for (sensor_id, series), (scores, detector_name) in zip(gated, scored):
                trace = _Trace(sensor_id, series.start, series.step, scores, math.nan)
                traces.append((sensor_id, trace))
                origins.append((job_index, phase_name, detector_name))
    thresholds, reach = _robust_thresholds(
        [trace.scores for __, trace in traces], cfg.phase_sigma
    )
    candidates: List[OutlierCandidate] = []
    for (sensor_id, trace), (job_index, phase_name, detector_name), threshold, hit in zip(
        traces, origins, thresholds, reach
    ):
        trace.threshold = threshold
        if not hit:
            continue  # nothing reaches the threshold: no peaks to find
        for idx in _peak_indices(
            trace.scores, threshold, cfg.candidate_gap, cfg.max_candidates_per_trace
        ):
            candidates.append(
                OutlierCandidate(
                    level=ProductionLevel.PHASE,
                    outlierness=float(trace.scores[idx]),
                    machine_id=machine_id,
                    job_index=job_index,
                    phase_name=phase_name,
                    sensor_id=sensor_id,
                    index=idx,
                    detector=detector_name,
                )
            )
    return traces, candidates


def _run_env_task(state: _WorkerState, data: Tuple[object, ...]) -> object:
    line_id, items = cast(Tuple[str, Tuple[Tuple[str, TimeSeries], ...]], data)
    cfg = state.config
    gated = _gate_group(
        state, items, _gate_precheck(state, [series for __, series in items]), line_id
    )
    scored = _score_series_batch(
        state, gated, [channel_id for channel_id, __ in gated]
    )
    thresholds = _robust_thresholds([scores for scores, __ in scored], cfg.env_sigma)[0]
    traces = [
        (channel_id, _Trace(channel_id, series.start, series.step, scores, threshold))
        for (channel_id, series), (scores, __), threshold in zip(gated, scored, thresholds)
    ]
    return traces, [channel_id for channel_id, __ in gated]


def _run_job_task(state: _WorkerState, data: Tuple[object, ...]) -> object:
    keys, raw = cast(Tuple[Tuple[Tuple[str, int], ...], np.ndarray], data)
    X = _robust_standardize(_gate_matrix_w(state, raw, "job"))
    scores, detector_name = _score_matrix_resilient(state, "job-table", X)
    return keys, scores, detector_name


def _run_line_task(state: _WorkerState, data: Tuple[object, ...]) -> object:
    line_id, mat, identity = cast(
        Tuple[str, np.ndarray, Tuple[Tuple[str, int], ...]], data
    )
    cfg = state.config
    mat = _gate_matrix_w(state, mat, f"{line_id}/jobs-over-time")
    # jobs-over-time: augment each row with its deviation from the
    # trailing robust baseline so the level sees temporal change,
    # not just static position
    history = cfg.line_history
    deltas = np.zeros_like(mat)
    for i in range(mat.shape[0]):
        lo = max(0, i - history)
        context = mat[lo:i]
        if context.shape[0] >= 2:
            med = np.median(context, axis=0)
            mad = np.median(np.abs(context - med), axis=0) * 1.4826
            mad[mad <= 1e-12] = 1.0
            deltas[i] = (mat[i] - med) / mad
    augmented = np.hstack([_robust_standardize(mat), deltas])
    scores, __ = _score_matrix_resilient(
        state, f"{line_id}/jobs-over-time", augmented
    )
    return identity, scores


def _run_production_task(state: _WorkerState, data: Tuple[object, ...]) -> object:
    panel, machine_ids = cast(Tuple[np.ndarray, Tuple[str, ...]], data)
    panel = _robust_standardize(_gate_matrix_w(state, panel, "production"))
    scores, __ = _score_matrix_resilient(state, "production-panel", panel)
    return machine_ids, scores


_TASK_RUNNERS: Dict[str, Callable[[_WorkerState, Tuple[object, ...]], object]] = {
    "phase": _run_phase_task,
    "env": _run_env_task,
    "job": _run_job_task,
    "line": _run_line_task,
    "production": _run_production_task,
}


def _run_scoring_task(
    task: _ScoreTask, clock: Optional[Callable[[], float]] = None
) -> _TaskResult:
    """Execute one scoring task (module-level: process workers run it).

    The serial executor injects the run's shared telemetry clock;
    process workers fall back to ``time.monotonic`` and their span trees
    are grafted as roots (worker clocks are not comparable with an
    injected main-process clock).
    """
    tracer = Tracer(
        clock=clock if clock is not None else time.monotonic,
        enabled=task.telemetry_enabled,
    )
    state = _WorkerState(
        config=task.config,
        level=task.level,
        chain=task.chain,
        tracer=tracer,
        sandbox=DetectorSandbox(task.config.sandbox),
        telemetry_enabled=task.telemetry_enabled,
    )
    with tracer.span(
        f"score.{task.level.name}",
        level=task.level.name,
        task=task.key,
        executor=task.executor,
        worker=_worker_label(task.executor),
    ):
        output = _TASK_RUNNERS[task.kind](state, task.data)
    return _TaskResult(
        key=task.key,
        kind=task.kind,
        events=state.events,
        spans=[s.as_dict() for s in tracer.spans],
        output=output,
        batch_groups=state.batch_groups,
    )


def _trace_at(
    traces_by_channel: Dict[str, List[_Trace]],
    starts_by_channel: Dict[str, List[float]],
    channel_id: str,
    time: float,
) -> Optional[Tuple[np.ndarray, float, float, float]]:
    """The scored trace of ``channel_id`` covering ``time``, if any
    (support and environment confirmation look traces up through this)."""
    traces = traces_by_channel.get(channel_id)
    if not traces:
        return None
    # traces are sorted by start and non-overlapping per channel, so the
    # rightmost trace starting at or before `time` is the only candidate
    i = bisect_right(starts_by_channel[channel_id], time) - 1
    if i >= 0 and traces[i].covers(time):
        trace = traces[i]
        return trace.scores, trace.threshold, trace.start, trace.step
    return None


class PlantHierarchyContext(HierarchyContext):
    """Hierarchy oracle over one plant dataset (see module docstring)."""

    def __init__(
        self,
        dataset: PlantDataset,
        selector: Optional[AlgorithmSelector] = None,
        config: Optional[PipelineConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._init_state(dataset, selector, config, telemetry)
        self._execute("pipeline.build", self._build_task_graph())
        self._publish_engine_metrics()

    def _init_state(
        self,
        dataset: PlantDataset,
        selector: Optional[AlgorithmSelector],
        config: Optional[PipelineConfig],
        telemetry: Optional[Telemetry],
    ) -> None:
        """Everything ``__init__`` sets up *before* any scoring runs.

        Shared by the cold build and the checkpoint restore path
        (:meth:`_from_snapshot_state`), which installs snapshotted task
        outputs instead of executing the level DAG.  No machine has a
        scored job yet, so the first graph scores every job.
        """
        self.dataset = dataset
        self.selector = selector or AlgorithmSelector()
        self.config = config or PipelineConfig()
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(enabled=self.config.enable_telemetry)
        )
        self._init_instruments()
        # deferred detector observations: the per-call hot path appends a
        # tuple here and publish_stats() folds the batch into the registry
        self._pending_detector_obs: List[Tuple[str, str, bool, float]] = []
        self.health = RunHealth()
        self._sandbox = DetectorSandbox(self.config.sandbox)
        self._graph = CorrespondenceGraph.from_plant(dataset)
        self._traces: Dict[str, List[_Trace]] = {}
        self._phase_candidates: List[OutlierCandidate] = []
        self._env_channels: Dict[str, List[str]] = {}
        self._line_scores: Dict[Tuple[str, int], float] = {}
        self._line_unified: Dict[Tuple[str, int], float] = {}
        self._line_flags: set = set()
        self._batch_group_count = 0
        # Per-task retained state: the persisted fits (scored trace /
        # candidate outputs) and replayable event lists that make the DAG
        # incremental — a refresh re-runs only the dirty tasks, appends
        # (phase) or overwrites (every other kind) their entries here, and
        # reassembles everything else from cache.
        self._task_events: Dict[str, List[Tuple[str, object]]] = {}
        self._phase_out: Dict[str, object] = {}
        # machine -> how many of its jobs (a prefix of ``machine.jobs``)
        # the phase outputs above cover
        self._scored_jobs: Dict[str, int] = {}
        self._env_out: Dict[str, object] = {}
        self._job_out: Optional[object] = None
        self._line_out: Dict[str, object] = {}
        self._production_out: Optional[object] = None
        self._dead_metric_emitted: set = set()
        self._incr_refreshes = 0
        self._incr_dirty_jobs = 0
        self._incr_dirty_tasks = 0
        self._incr_evicted: Dict[str, int] = {
            "confirm": 0, "support": 0, "candidate_time": 0, "find_candidates": 0,
        }
        self._incr_retained: Dict[str, int] = dict(self._incr_evicted)
        self._incr_instruments_ready = False
        self._cache_enabled = bool(self.config.enable_cache)
        self._stats = PipelineStats()
        self._confirm_cache: Dict[Tuple, LevelConfirmation] = {}
        self._support_cache: Dict[Tuple, SupportResult] = {}
        self._candidate_time_cache: Dict[Tuple, Optional[float]] = {}
        self._candidates_cache: Dict[ProductionLevel, List[OutlierCandidate]] = {}

    # ------------------------------------------------------------------
    # checkpoint snapshot / restore (see repro.core.checkpoint)
    # ------------------------------------------------------------------
    def _snapshot_task_state(self) -> Dict[str, object]:
        """The per-task persisted outputs a snapshot must carry.

        Together with the dataset (re-supplied at resume time) these
        reconstruct every derived store through the exact
        ``_assemble()`` / ``_rebuild_health()`` / ``_build_indexes()``
        path a refresh already uses — the restore path runs no detector.
        """
        return {
            "task_events": {k: list(v) for k, v in self._task_events.items()},
            "phase_out": dict(self._phase_out),
            "env_out": dict(self._env_out),
            "job_out": self._job_out,
            "line_out": dict(self._line_out),
            "production_out": self._production_out,
            "batch_group_count": self._batch_group_count,
            "dead_metric_emitted": set(self._dead_metric_emitted),
            "pending_detector_obs": list(self._pending_detector_obs),
            "engine_stats": self._engine_stats,
        }

    def _snapshot_cache_state(self) -> Dict[str, object]:
        """The confirmation/support/candidate memo tables and counters."""
        return {
            "confirm": dict(self._confirm_cache),
            "support": dict(self._support_cache),
            "candidate_time": dict(self._candidate_time_cache),
            "candidates": dict(self._candidates_cache),
            "stats": self._stats,
        }

    def _snapshot_watermark(self) -> List[Tuple[str, int]]:
        """Every job the stored outputs cover, as sorted ``(machine_id,
        job_index)`` pairs: each machine's first scored jobs.  A job
        ingested but not yet refreshed is past it, so a resume replays it.
        """
        return sorted(
            (m.machine_id, j.job_index)
            for m in self.dataset.iter_machines()
            for j in m.jobs[: self._scored_jobs[m.machine_id]]
        )

    def _snapshot_incremental_state(self) -> Dict[str, object]:
        """The executor-invariant incremental counters of ``stats()``."""
        return {
            "refreshes": self._incr_refreshes,
            "dirty_jobs": self._incr_dirty_jobs,
            "dirty_tasks": self._incr_dirty_tasks,
            "evicted": dict(self._incr_evicted),
            "retained": dict(self._incr_retained),
        }

    @classmethod
    def _from_snapshot_state(
        cls,
        dataset: PlantDataset,
        sections: Dict[str, object],
        selector: Optional[AlgorithmSelector] = None,
        config: Optional[PipelineConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "PlantHierarchyContext":
        """Rebuild a context from snapshot sections without scoring.

        ``dataset`` must be the watermark partition of the plant the
        snapshot was taken on: the canonical task order, the assemble
        loop, and the correspondence graph are all re-derived from it, so
        the restored context is indistinguishable from the one that wrote
        the snapshot — byte-identical reports, health, and stats.
        """
        self = cls.__new__(cls)
        self._init_state(dataset, selector, config, telemetry)
        tasks = cast(Dict[str, object], sections["tasks"])
        self._task_events = {
            k: list(v)
            for k, v in cast(
                Dict[str, List[Tuple[str, object]]], tasks["task_events"]
            ).items()
        }
        self._phase_out = dict(cast(Dict[str, object], tasks["phase_out"]))
        # the watermark partition holds exactly the jobs the phase outputs cover
        self._scored_jobs = {m.machine_id: len(m.jobs) for m in dataset.iter_machines()}
        self._env_out = dict(cast(Dict[str, object], tasks["env_out"]))
        self._job_out = tasks["job_out"]
        self._line_out = dict(cast(Dict[str, object], tasks["line_out"]))
        self._production_out = tasks["production_out"]
        self._batch_group_count = cast(int, tasks["batch_group_count"])
        self._dead_metric_emitted = set(
            cast(set, tasks["dead_metric_emitted"])
        )
        self._pending_detector_obs = list(
            cast(
                List[Tuple[str, str, bool, float]], tasks["pending_detector_obs"]
            )
        )
        self._engine_stats = cast(EngineStats, tasks["engine_stats"])
        caches = cast(Dict[str, object], sections["caches"])
        self._confirm_cache = dict(
            cast(Dict[Tuple, LevelConfirmation], caches["confirm"])
        )
        self._support_cache = dict(
            cast(Dict[Tuple, SupportResult], caches["support"])
        )
        self._candidate_time_cache = dict(
            cast(Dict[Tuple, Optional[float]], caches["candidate_time"])
        )
        self._candidates_cache = dict(
            cast(
                Dict[ProductionLevel, List[OutlierCandidate]],
                caches["candidates"],
            )
        )
        self._stats = cast(PipelineStats, caches["stats"])
        incremental = cast(Dict[str, object], sections["incremental"])
        self._incr_refreshes = cast(int, incremental["refreshes"])
        self._incr_dirty_jobs = cast(int, incremental["dirty_jobs"])
        self._incr_dirty_tasks = cast(int, incremental["dirty_tasks"])
        self._incr_evicted = dict(cast(Dict[str, int], incremental["evicted"]))
        self._incr_retained = dict(cast(Dict[str, int], incremental["retained"]))
        with self.telemetry.tracer.span("pipeline.restore"):
            with self.telemetry.tracer.span("pipeline.index"):
                self._assemble()
                self._rebuild_health()
                self._build_indexes()
        self._build_support_calc()
        self._publish_engine_metrics()
        return self

    def _execute(self, span_name: str, graph: TaskGraph) -> None:
        """Run one task graph and fold its results into the context.

        Shared by the cold build (the full level DAG) and :meth:`refresh`
        (the dirty subgraph): runs the engine, stores per-task outputs and
        event lists, reassembles the derived stores, rebuilds the health
        record by canonical event replay, and re-derives the indexes and
        the support calculator.
        """
        tracer = self.telemetry.tracer
        with tracer.span(span_name, executor=self.config.executor) as outer_span:
            engine = ParallelEngine(
                self.config.executor,
                self.config.max_workers,
                capture_alloc=self.config.perf_alloc,
            )
            if self.config.executor == "process":
                # worker clocks are not comparable with an injected
                # main-process clock: ship the bare worker and graft the
                # returned span trees as roots
                worker: Callable[[object], object] = cast(
                    Callable[[object], object], _run_scoring_task
                )
                parent_id: Optional[int] = None
            else:
                worker = cast(
                    Callable[[object], object],
                    functools.partial(_run_scoring_task, clock=self.telemetry.clock),
                )
                parent_id = outer_span.span_id if tracer.enabled else None
            results, self._engine_stats = engine.run(graph, worker)
            self._merge_results(results, parent_id)
            with tracer.span("pipeline.index"):
                self._assemble()
                self._rebuild_health()
                self._build_indexes()
        self._build_support_calc()

    def _build_support_calc(self) -> None:
        # The lookup closes over the trace dicts, not over ``self``: a bound
        # method here would make every context a reference cycle that only
        # the cyclic GC frees.
        self._support_calc = SupportCalculator(
            self._graph,
            functools.partial(_trace_at, self._traces, self._trace_starts),
            tolerance=self.config.support_tolerance,
            # renormalized divisor: fully-quarantined channels do not vote
            excluded=self.health.dead_channels,
        )

    def _build_indexes(self) -> None:
        """Precompute the lookup structures behind ``confirm``/``support``.

        Everything here is a pure function of the scored dataset, so it is
        built once and shared by cached and cache-disabled contexts alike:
        only the per-candidate memoization is optional.
        """
        # line / machine resolution: O(1) dict hits instead of line scans
        self._line_by_id = {line.line_id: line for line in self.dataset.lines}
        self._machine_line = {
            m.machine_id: line
            for line in self.dataset.lines
            for m in line.machines
        }
        # per-line job interval index, sorted by start with a running max
        # end: bisect + short backward scan finds every job covering a time
        self._job_intervals: Dict[str, Tuple[List[float], List[float], List]] = {}
        for line in self.dataset.lines:
            spans = self.dataset.job_intervals(line.line_id)
            starts = [s[0] for s in spans]
            run_max_end: List[float] = []
            peak = -math.inf
            for __, end, __, __ in spans:
                peak = max(peak, end)
                run_max_end.append(peak)
            self._job_intervals[line.line_id] = (starts, run_max_end, spans)
        # per-channel traces sorted by start so one bisect finds the cover
        self._trace_starts: Dict[str, List[float]] = {}
        for channel_id, traces in self._traces.items():
            traces.sort(key=lambda t: t.start)
            self._trace_starts[channel_id] = [t.start for t in traces]
        # per-trace robust stats for the environment confirmation
        self._trace_stats: Dict[Tuple[str, float], Tuple[float, float]] = {}
        # phase candidates grouped by machine and (machine, job), plus the
        # sorted outlierness array _confirm_phase previously rebuilt per call
        self._phase_by_machine: Dict[str, List[OutlierCandidate]] = {}
        self._phase_by_machine_job: Dict[Tuple[str, Optional[int]], List[OutlierCandidate]] = {}
        for c in self._phase_candidates:
            self._phase_by_machine.setdefault(c.machine_id, []).append(c)
            self._phase_by_machine_job.setdefault(
                (c.machine_id, c.job_index), []
            ).append(c)
        self._phase_scores_sorted = np.sort(
            np.array([c.outlierness for c in self._phase_candidates], dtype=float)
        )
        # channels with exactly one trace (every environment channel, and
        # most sensors) resolve candidate timestamps without scanning
        self._primary_trace: Dict[str, _Trace] = {
            channel_id: traces[0]
            for channel_id, traces in self._traces.items()
            if len(traces) == 1
        }

    # ------------------------------------------------------------------
    # task graph construction and merge (see repro.core.parallel)
    # ------------------------------------------------------------------
    def _build_task_graph(self, only: Optional[set] = None) -> TaskGraph:
        """Decompose the run into the level DAG.

        Phase scoring per machine, environment scoring per line, the
        global job table, jobs-over-time per line (after the job table,
        per the paper's hierarchy), and the production panel (after all
        lines).  Insertion order mirrors the serial pipeline's historical
        method order — the merge step replays events in this order, which
        is what makes the health record executor-invariant.

        A phase task carries only the machine's jobs its stored outputs
        do not cover yet (every job on a cold build); :meth:`_merge_results`
        appends what it scores.  With ``only`` (a set of task keys — the
        dirty closure of a refresh), the graph is restricted to those
        tasks: others are skipped and dependency edges are clamped to the
        keys actually present, preserving relative insertion order.  A
        task's output is a function of its payload alone, so a task
        scheduled in a restricted graph scores exactly as it would in the
        full one.
        """
        cfg = self.config
        graph = TaskGraph()
        enabled = self.telemetry.enabled

        def add(
            kind: str,
            key: str,
            level: ProductionLevel,
            data: Tuple[object, ...],
            deps: Tuple[str, ...] = (),
        ) -> None:
            if only is not None:
                if key not in only:
                    return
                deps = tuple(dep for dep in deps if dep in graph)
            graph.add(
                Task(
                    key=key,
                    deps=deps,
                    payload=_ScoreTask(
                        kind=kind,
                        key=key,
                        level=level,
                        chain=tuple(self.selector.fallback_chain(level)),
                        config=cfg,
                        telemetry_enabled=enabled,
                        executor=cfg.executor,
                        data=data,
                    ),
                )
            )

        def wanted(key: str) -> bool:
            return only is None or key in only

        for machine in self.dataset.iter_machines():
            if not wanted(f"phase/{machine.machine_id}"):
                continue
            jobs = tuple(
                (
                    job.job_index,
                    tuple(
                        (phase.name, tuple(sorted(phase.series.items())))
                        for phase in job.phases
                    ),
                )
                for job in machine.jobs[self._scored_jobs.get(machine.machine_id, 0):]
            )
            add(
                "phase", f"phase/{machine.machine_id}", ProductionLevel.PHASE,
                (machine.machine_id, jobs),
            )
        for line in self.dataset.lines:
            if not wanted(f"env/{line.line_id}"):
                continue
            items = tuple(
                (f"{line.line_id}/env/{kind}", series)
                for kind, series in sorted(line.environment.items())
            )
            add(
                "env", f"env/{line.line_id}", ProductionLevel.ENVIRONMENT,
                (line.line_id, items),
            )
        if wanted("job"):
            rows: List[np.ndarray] = []
            keys: List[Tuple[str, int]] = []
            for machine in self.dataset.iter_machines():
                table = self.dataset.job_table(machine.machine_id)
                for job, row in zip(machine.jobs, table):
                    rows.append(row)
                    keys.append((machine.machine_id, job.job_index))
            add("job", "job", ProductionLevel.JOB, (tuple(keys), np.vstack(rows)))
        line_keys: List[str] = []
        for line in self.dataset.lines:
            if not wanted(f"line/{line.line_id}"):
                continue
            mat, identity = self.dataset.jobs_over_time(line.line_id)
            if mat.shape[0] == 0:
                continue
            key = f"line/{line.line_id}"
            line_keys.append(key)
            add(
                "line", key, ProductionLevel.PRODUCTION_LINE,
                (line.line_id, mat, tuple(identity)), deps=("job",),
            )
        if wanted("production"):
            panel, machine_ids = self.dataset.production_panel()
            add(
                "production", "production", ProductionLevel.PRODUCTION,
                (panel, tuple(machine_ids)), deps=tuple(line_keys),
            )
        return graph

    def _merge_results(
        self, results: Dict[str, object], parent_id: Optional[int]
    ) -> None:
        """Fold task results into the per-task stores in insertion order.

        Completion order never matters: the engine returns results keyed
        in insertion order, worker event lists replay through the same
        metrics/log paths the serial pipeline used (health is rebuilt
        afterwards by :meth:`_rebuild_health` so refreshed tasks never
        double-record), and span trees graft under the open build/refresh
        span (or as roots for process workers).

        A phase result covers the machine's newly scored jobs only: its
        traces, candidates and events extend the stored ones, which is
        exact because a phase task's output is a job-by-job concatenation
        (DESIGN §10).  New lists are built, so a snapshot holding the old
        ones never changes.  Every other kind replaces its output.
        """
        # like ``parallel.tasks``: the last engine run, not a running total
        self._batch_group_count = 0
        for result in results.values():
            assert isinstance(result, _TaskResult)
            self.telemetry.tracer.graft(result.spans, parent_id=parent_id)
            for event_kind, payload in result.events:
                self._apply_event(event_kind, payload, health=False)
            self._batch_group_count += result.batch_groups
            output = result.output
            events = list(result.events)
            if result.kind == "phase":
                machine_id = result.key.split("/", 1)[1]
                traces, candidates = cast(_PhaseOut, output)
                old_traces, old_candidates = cast(
                    _PhaseOut, self._phase_out.get(machine_id, ([], []))
                )
                self._phase_out[machine_id] = (
                    old_traces + traces, old_candidates + candidates,
                )
                events = self._task_events.get(result.key, []) + events
                self._scored_jobs[machine_id] = len(self.dataset.machine(machine_id).jobs)
            elif result.kind == "env":
                self._env_out[result.key.split("/", 1)[1]] = output
            elif result.kind == "job":
                self._job_out = output
            elif result.kind == "line":
                self._line_out[result.key.split("/", 1)[1]] = output
            elif result.kind == "production":
                self._production_out = output
            else:  # pragma: no cover - graph construction is exhaustive
                raise ValueError(f"unknown task kind {result.kind!r}")
            self._task_events[result.key] = events

    def _assemble(self) -> None:
        """Rebuild the derived stores from the per-task outputs.

        Iterates machines and lines in dataset order — the same order the
        full graph inserts tasks — so an incremental refresh (which
        overwrites only the dirty tasks' outputs) reassembles traces and
        candidates in exactly the order a cold build would have produced.
        """
        self._traces = {}
        self._phase_candidates = []
        self._env_channels = {}
        for machine in self.dataset.iter_machines():
            output = self._phase_out.get(machine.machine_id)
            if output is None:
                continue
            traces, candidates = cast(_PhaseOut, output)
            for sensor_id, trace in traces:
                self._traces.setdefault(sensor_id, []).append(trace)
            self._phase_candidates.extend(candidates)
        for line in self.dataset.lines:
            output = self._env_out.get(line.line_id)
            if output is None:
                continue
            env_traces, ids = cast(
                Tuple[List[Tuple[str, _Trace]], List[str]], output
            )
            for channel_id, trace in env_traces:
                self._traces.setdefault(channel_id, []).append(trace)
            self._env_channels[line.line_id] = list(ids)
        if self._job_out is not None:
            job_keys, scores, detector_name = cast(
                Tuple[Tuple[Tuple[str, int], ...], np.ndarray, str], self._job_out
            )
            threshold = _robust_threshold(scores, self.config.vector_sigma)
            unified = unify_rank(scores)
            self._job_scores = {
                k: float(s) for k, s in zip(job_keys, scores)
            }
            self._job_unified = {
                k: float(u) for k, u in zip(job_keys, unified)
            }
            self._job_flags = {
                k for k, s in zip(job_keys, scores) if s >= threshold
            }
            self._job_detector = detector_name
        self._line_scores = {}
        self._line_unified = {}
        self._line_flags = set()
        self._finalize_line_level(
            [
                cast(
                    Tuple[Tuple[Tuple[str, int], ...], np.ndarray],
                    self._line_out[line.line_id],
                )
                for line in self.dataset.lines
                if line.line_id in self._line_out
            ]
        )
        if self._production_out is not None:
            machine_ids, scores = cast(
                Tuple[Tuple[str, ...], np.ndarray], self._production_out
            )
            threshold = _robust_threshold(scores, self.config.vector_sigma)
            unified = unify_rank(scores)
            self._machine_scores = {
                m: float(s) for m, s in zip(machine_ids, scores)
            }
            self._machine_unified = {
                m: float(u) for m, u in zip(machine_ids, unified)
            }
            self._machine_flags = {
                m for m, s in zip(machine_ids, scores) if s >= threshold
            }

    def _canonical_task_order(self) -> List[str]:
        """Full-graph insertion order, recomputed from the dataset."""
        order = [f"phase/{m.machine_id}" for m in self.dataset.iter_machines()]
        order.extend(f"env/{line.line_id}" for line in self.dataset.lines)
        order.append("job")
        order.extend(
            f"line/{line.line_id}"
            for line in self.dataset.lines
            if any(m.jobs for m in line.machines)
        )
        order.append("production")
        return order

    def _rebuild_health(self) -> None:
        """Rebuild the health record by replaying cached task events.

        Replay happens in canonical full-graph insertion order over every
        task's *current* event list, so after a refresh the health record
        is byte-identical to a cold build on the mutated dataset: re-run
        tasks contribute their fresh events exactly once, untouched tasks
        contribute their retained events, and first-wins/dedup semantics
        of :class:`RunHealth` see the same sequence either way.
        """
        self.health = RunHealth()
        for key in self._canonical_task_order():
            for event_kind, payload in self._task_events.get(key, ()):
                self._apply_event(event_kind, payload, instruments=False)
        self._flag_dead_channels()

    def _finalize_line_level(
        self,
        outputs: List[Tuple[Tuple[Tuple[str, int], ...], np.ndarray]],
    ) -> None:
        """Pool per-line scores, then threshold and unify globally.

        The line level is flagged against the *production-wide* score
        distribution (one line must not look normal just because its
        siblings are worse), so this stage needs every line task's output
        — the one genuine barrier in the merge.
        """
        all_scores: List[Tuple[Tuple[str, int], float]] = []
        for identity, scores in outputs:
            for key, s in zip(identity, scores):
                all_scores.append((key, float(s)))
        if not all_scores:
            return
        raw = np.array([s for __, s in all_scores])
        threshold = _robust_threshold(raw, self.config.vector_sigma)
        unified = unify_rank(raw)
        for (key, s), u in zip(all_scores, unified):
            self._line_scores[key] = s
            self._line_unified[key] = float(u)
            if s >= threshold:
                self._line_flags.add(key)

    def _apply_event(
        self,
        kind: str,
        payload: object,
        *,
        health: bool = True,
        instruments: bool = True,
    ) -> None:
        """Replay one worker-recorded side effect on the main process.

        Event replay happens in graph insertion order, so the resulting
        health record (which is insertion-ordered and first-wins for
        warnings) is identical to the serial pipeline's regardless of the
        executor or scheduling order.  The two flags separate the event's
        effects: ``instruments`` (metrics, logs, deferred detector
        observations) fires once per *execution* during the merge, while
        ``health`` fires during :meth:`_rebuild_health` replay — a
        refreshed task's events re-count as work done without ever
        duplicating health records.
        """
        if kind == "quarantine":
            channel_id, scope, reason, timestamp = cast(
                Tuple[str, str, str, Optional[float]], payload
            )
            if health:
                self.health.record_quarantine(channel_id, scope, reason)
            if instruments:
                self._m_quarantines.inc(scope="trace")
                self.telemetry.warning(
                    f"quarantined {channel_id} [{scope}]: {reason}",
                    channel_id=channel_id,
                    scope=scope,
                    timestamp=timestamp,
                )
        elif kind == "warn":
            if health:
                self.health.warn(cast(str, payload))
        elif kind == "fallback":
            event = cast(FallbackEvent, payload)
            if health:
                self.health.record_fallback(event)
            if instruments:
                self._m_fallbacks.inc(level=event.level)
                self.telemetry.warning(
                    f"detector fallback at {event.level} {event.unit}: "
                    f"{event.failed_detector} -> {event.fallback} ({event.error})",
                    level=event.level,
                    unit=event.unit,
                    failed_detector=event.failed_detector,
                    fallback=event.fallback,
                    timed_out=event.timed_out,
                )
        elif kind == "terminal":
            level_name = cast(str, payload)
            if health:
                self.health.note_level(
                    level_name, "scored with the terminal robust baseline"
                )
            if instruments:
                self.telemetry.warning(
                    f"level {level_name} scored with the terminal robust baseline",
                    level=level_name,
                )
        elif kind == "obs":
            if instruments:
                self._pending_detector_obs.append(
                    cast(Tuple[str, str, bool, float], payload)
                )
        else:  # pragma: no cover - the worker emits a closed event set
            raise ValueError(f"unknown task event {kind!r}")

    def engine_stats(self) -> EngineStats:
        """Execution-engine cost of the scoring DAG (executor, timings)."""
        return self._engine_stats

    def _publish_engine_metrics(self) -> None:
        """Emit the engine's cost counters (once, at construction time)."""
        es = self._engine_stats
        counts: Dict[str, int] = {}
        latencies: Dict[str, List[float]] = {}
        for key, seconds in es.task_seconds.items():
            kind = key.split("/", 1)[0]
            counts[kind] = counts.get(kind, 0) + 1
            latencies.setdefault(kind, []).append(max(0.0, seconds))
        for kind in sorted(counts):
            self._m_tasks.inc(counts[kind], kind=kind)
            self._m_task_latency.observe_many(latencies[kind], kind=kind)
        self._m_queue_depth.set(float(es.max_queue_depth))
        self._m_parallel_workers.set(float(es.workers), executor=es.executor)
        speedup = es.speedup
        if speedup is not None and math.isfinite(speedup):
            self._m_parallel_speedup.set(speedup)
        # perf attribution (snapshot-tolerant: pre-perf EngineStats pickles
        # carry neither dict)
        cpu_by_kind: Dict[str, List[float]] = {}
        for key, seconds in getattr(es, "task_cpu_seconds", {}).items():
            cpu_by_kind.setdefault(key.split("/", 1)[0], []).append(
                max(0.0, seconds)
            )
        for kind in sorted(cpu_by_kind):
            self._m_perf_cpu.observe_many(cpu_by_kind[kind], kind=kind)
        alloc_by_kind: Dict[str, List[float]] = {}
        for key, peak in getattr(es, "task_peak_alloc", {}).items():
            alloc_by_kind.setdefault(key.split("/", 1)[0], []).append(
                float(max(0, peak))
            )
        for kind in sorted(alloc_by_kind):
            self._m_perf_alloc.observe_many(alloc_by_kind[kind], kind=kind)
        utilization = es.cpu_utilization if hasattr(es, "task_cpu_seconds") else 0.0
        if math.isfinite(utilization):
            self._m_perf_utilization.set(utilization)
        # transport attribution (snapshot-tolerant like the perf dicts)
        self._m_transport_bytes.set(
            float(getattr(es, "bytes_pickled", 0)), mode="pickled"
        )
        self._m_transport_bytes.set(
            float(getattr(es, "bytes_shared", 0)), mode="shared"
        )
        self._m_transport_overhead.set(
            float(getattr(es, "transport_encode_seconds", 0.0)), stage="encode"
        )
        self._m_transport_overhead.set(
            float(getattr(es, "transport_decode_seconds", 0.0)), stage="decode"
        )

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def _init_instruments(self) -> None:
        """Register this run's metric instruments (no-ops when disabled)."""
        m = self.telemetry.metrics
        self._m_detector_calls = m.counter(
            "repro_detector_calls_total",
            "Sandboxed detector invocations by level, detector, and outcome.",
            labelnames=("level", "detector", "outcome"),
        )
        self._m_detector_latency = m.histogram(
            "repro_detector_latency_seconds",
            "Wall-clock latency of sandboxed detector calls.",
            labelnames=("level",),
        )
        self._m_fallbacks = m.counter(
            "repro_fallbacks_total",
            "Detector failures survived by falling back to the next choice.",
            labelnames=("level",),
        )
        self._m_quarantines = m.counter(
            "repro_quarantines_total",
            "Traces (scope=trace) or whole channels (scope=channel) pulled "
            "from scoring by the data-quality gate.",
            labelnames=("scope",),
        )
        self._m_candidates = m.counter(
            "repro_candidates_total",
            "Outlier candidates found per hierarchy level.",
            labelnames=("level",),
        )
        self._m_confirmations = m.counter(
            "repro_confirmations_total",
            "Cross-level confirmation computations by level and outcome.",
            labelnames=("level", "detected"),
        )
        self._m_support = m.histogram(
            "repro_support",
            "Distribution of computed Algorithm-1 support values.",
            buckets=UNIT_BUCKETS,
        )
        self._m_tasks = m.counter(
            "repro_tasks_total",
            "Scoring tasks executed by the level-DAG engine, by task kind.",
            labelnames=("kind",),
        )
        self._m_task_latency = m.histogram(
            "repro_task_latency_seconds",
            "In-worker wall-clock latency of one scoring task.",
            labelnames=("kind",),
        )
        self._m_queue_depth = m.gauge(
            "repro_task_queue_depth",
            "Peak number of simultaneously ready or in-flight tasks.",
        )
        self._m_parallel_workers = m.gauge(
            "repro_parallel_workers",
            "Worker-pool size the execution engine resolved for this run.",
            labelnames=("executor",),
        )
        self._m_parallel_speedup = m.gauge(
            "repro_parallel_speedup",
            "Measured serial baseline seconds over wall-seconds of the scoring "
            "task graph (unset when a parallel run has no baseline).",
        )
        self._m_perf_cpu = m.histogram(
            "repro_perf_task_cpu_seconds",
            "In-worker CPU seconds of one scoring task.",
            labelnames=("kind",),
        )
        self._m_perf_alloc = m.histogram(
            "repro_perf_task_peak_alloc_bytes",
            "Peak tracemalloc allocation inside one scoring task "
            "(populated only when allocation capture is enabled).",
            labelnames=("kind",),
            buckets=BYTE_BUCKETS,
        )
        self._m_perf_utilization = m.gauge(
            "repro_perf_cpu_utilization",
            "CPU seconds per wall second of the scoring task graph.",
        )
        self._m_transport_bytes = m.gauge(
            "repro_transport_bytes",
            "Task-payload bytes moved per engine run, by transport mode "
            "(pickled = crossed the pickle boundary, 0 when workers inherit "
            "payloads by fork; shared = the retired shared-memory arena, 0).",
            labelnames=("mode",),
        )
        self._m_transport_overhead = m.gauge(
            "repro_transport_overhead_seconds",
            "Transport overhead per engine run of the retired shared-memory "
            "arena: publish (encode) and worker-side rebuilds (decode); 0.",
            labelnames=("stage",),
        )

    def stats(self) -> Dict[str, object]:
        """The run's telemetry counters as one nested, documented dict.

        Schema (:data:`STATS_SCHEMA`, documented in docs/OBSERVABILITY.md):
        ``{"schema", "cache": {<memo table>: {"calls", "hits", "misses"}},
        "health": {"degraded", "fallbacks", "quarantines", "dead_channels",
        "warnings", "degraded_levels"}, "parallel": {"tasks",
        "batch_groups"}, "incremental": {"refreshes", "dirty_jobs",
        "dirty_tasks", "evicted": {<memo table>: n}, "retained":
        {<memo table>: n}}}``.  This is the single source the metrics
        registry consumes (:meth:`publish_stats`) and the ``telemetry``
        block of the JSON report export.  Every entry is
        executor-invariant — wall-clock numbers live in
        :meth:`engine_stats` and the metrics registry instead, so stats
        (and therefore serialized reports) stay byte-identical across
        ``serial``/``process`` runs.  ``parallel`` describes the last
        engine run (the cold build, or the latest refresh): its task
        count and its same-length scoring groups.
        """
        health = self.health
        return {
            "schema": STATS_SCHEMA,
            "cache": self._stats.as_nested(),
            "health": {
                "degraded": health.degraded,
                "fallbacks": len(health.fallbacks),
                "quarantines": len(health.quarantines),
                "dead_channels": len(health.dead_channels),
                "warnings": len(health.warnings),
                "degraded_levels": len(health.level_notes),
            },
            "parallel": {
                "tasks": self._engine_stats.n_tasks,
                "batch_groups": self._batch_group_count,
            },
            "incremental": {
                "refreshes": self._incr_refreshes,
                "dirty_jobs": self._incr_dirty_jobs,
                "dirty_tasks": self._incr_dirty_tasks,
                "evicted": dict(self._incr_evicted),
                "retained": dict(self._incr_retained),
            },
        }

    def publish_stats(self) -> None:
        """Fold the :meth:`stats` tree into the metrics registry.

        Cache and health counters become ``repro_stats_*`` gauges plus a
        ``repro_cache_hit_ratio{cache=...}`` gauge per memo table, so one
        Prometheus scrape carries the whole run story.
        """
        self._flush_detector_observations()
        tree = self.stats()
        m = self.telemetry.metrics
        m.import_nested(
            "repro_stats",
            {
                "cache": tree["cache"],
                "health": tree["health"],
                "parallel": tree["parallel"],
                "incremental": tree["incremental"],
            },
        )
        ratio = m.gauge(
            "repro_cache_hit_ratio",
            "Hit ratio per confirmation/support memo table.",
            labelnames=("cache",),
        )
        for cache_name, entry in tree["cache"].items():
            if entry["calls"]:
                ratio.set(entry["hits"] / entry["calls"], cache=cache_name)

    def reset_stats(self) -> None:
        self._stats = PipelineStats()

    def invalidate_caches(self) -> None:
        """Drop every memoized result (keeps the precomputed indexes).

        The blunt instrument: everything recomputes on next use.  An
        incremental :meth:`refresh` instead calls :meth:`_evict_dirty`,
        which drops only the entries the dirty subgraph can have changed.
        """
        self._confirm_cache.clear()
        self._support_cache.clear()
        self._candidate_time_cache.clear()
        self._candidates_cache.clear()

    # ------------------------------------------------------------------
    # incremental recomputation (see DESIGN §10)
    # ------------------------------------------------------------------
    def refresh(self) -> Dict[str, object]:
        """Incrementally re-score the dirty subgraph after job ingests.

        Consumes the dataset's dirty set (jobs appended through
        :meth:`~repro.plant.PlantDataset.ingest_job`), maps every dirty
        job to its task-DAG closure — its machine's phase task, the
        ``job`` table, its line's jobs-over-time task, and ``production``
        — re-runs exactly those tasks on the configured executor, and
        reassembles the derived state from the persisted outputs of every
        untouched task.  The
        phase task scores only the machine's jobs its stored outputs do
        not cover yet (the newly ingested ones) and its outputs are
        appended; the vector tasks rescore every job.  Cache entries are
        then evicted *scoped*: only what the dirty subgraph can have
        changed (see :meth:`_evict_dirty`).

        The contract is the one the parallel engine established: after a
        refresh, reports and health are byte-identical to a cold build on
        the mutated dataset, on every executor.  Returns a summary dict
        (dirty jobs/tasks, evicted/retained cache entries, engine wall
        seconds).
        """
        dirty = self.dataset.consume_dirty()
        if not dirty:
            return {"dirty_jobs": 0, "dirty_tasks": 0, "evicted": {}, "retained": {}}
        self._ensure_incremental_instruments()
        dirty_machines: List[str] = []
        for machine_id, __ in dirty:
            if machine_id not in dirty_machines:
                dirty_machines.append(machine_id)
        old_phase_scores = getattr(
            self, "_phase_scores_sorted", np.empty(0, dtype=float)
        )
        old_dead = set(self.health.dead_channels)
        # A new job changes its machine's phase task, the job table, its
        # line's jobs-over-time matrix and the production panel; environment
        # tasks read no jobs.
        closure = {"job", "production"}
        for machine_id in dirty_machines:
            closure.add(f"phase/{machine_id}")
            closure.add(f"line/{self.dataset.line_of(machine_id).line_id}")
        graph = self._build_task_graph(only=closure)
        self._execute("pipeline.refresh", graph)
        self._publish_engine_metrics()
        phase_changed = not np.array_equal(
            old_phase_scores, self._phase_scores_sorted
        )
        dead_changed = old_dead != set(self.health.dead_channels)
        evicted, retained = self._evict_dirty(
            dirty_machines, phase_changed=phase_changed, dead_changed=dead_changed
        )
        self._incr_refreshes += 1
        self._incr_dirty_jobs += len(dirty)
        self._incr_dirty_tasks += len(graph)
        for table, n in evicted.items():
            self._incr_evicted[table] += n
        for table, n in retained.items():
            self._incr_retained[table] += n
        self._publish_incremental_metrics(dirty, graph, evicted, retained)
        return {
            "dirty_jobs": len(dirty),
            "dirty_tasks": len(graph),
            "task_keys": graph.keys,
            "evicted": evicted,
            "retained": retained,
            "wall_seconds": self._engine_stats.wall_seconds,
        }

    def _evict_dirty(
        self,
        dirty_machines: List[str],
        *,
        phase_changed: bool,
        dead_changed: bool,
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Scoped cache eviction: drop only what the refresh can have changed.

        Dependency analysis per memo table (candidate keys are
        ``(level, machine, job, phase, sensor, index)`` tuples):

        * ``confirm`` — confirmations *at* the JOB / PRODUCTION_LINE /
          PRODUCTION levels read the globally recomputed score tables, so
          they always go; confirmations at PHASE read the global sorted
          phase-score distribution and go only when that distribution
          actually changed; confirmations at ENVIRONMENT depend only on
          environment traces and the candidate's own time — both
          untouched by a job ingest — and are retained.
        * ``support`` — a support verdict reads corresponding channels'
          traces *at the candidate's time*; appended jobs occupy new time
          spans and re-scored dirty tasks are deterministic, so verdicts
          survive — unless the dead-channel set changed, which alters the
          renormalized divisor for every candidate and clears the table.
        * ``candidate_time`` — phase-series timestamps and job midpoints
          are immutable for existing jobs; entries are dropped only for
          candidates on re-scored (dirty) machines, conservatively.
        * ``find_candidates`` — PHASE/JOB/PRODUCTION_LINE/PRODUCTION
          listings derive from recomputed state and go; the ENVIRONMENT
          listing derives from untouched environment traces and stays.
        """
        evicted = {"confirm": 0, "support": 0, "candidate_time": 0,
                   "find_candidates": 0}
        dirty_set = set(dirty_machines)
        vector_levels = (
            ProductionLevel.JOB,
            ProductionLevel.PRODUCTION_LINE,
            ProductionLevel.PRODUCTION,
        )
        for key in list(self._confirm_cache):
            __, level = key
            if level in vector_levels or (
                phase_changed and level is ProductionLevel.PHASE
            ):
                del self._confirm_cache[key]
                evicted["confirm"] += 1
        if dead_changed:
            evicted["support"] = len(self._support_cache)
            self._support_cache.clear()
        for key in list(self._candidate_time_cache):
            if key[1] in dirty_set:
                del self._candidate_time_cache[key]
                evicted["candidate_time"] += 1
        for level in list(self._candidates_cache):
            if level is not ProductionLevel.ENVIRONMENT:
                del self._candidates_cache[level]
                evicted["find_candidates"] += 1
        retained = {
            "confirm": len(self._confirm_cache),
            "support": len(self._support_cache),
            "candidate_time": len(self._candidate_time_cache),
            "find_candidates": len(self._candidates_cache),
        }
        return evicted, retained

    def _ensure_incremental_instruments(self) -> None:
        """Register the ``repro_incremental_*`` instruments lazily.

        Lazy so a never-refreshed context exposes exactly the metric
        families it always has — zero-valued incremental families must
        not appear in cold-run expositions.
        """
        if self._incr_instruments_ready:
            return
        self._incr_instruments_ready = True
        m = self.telemetry.metrics
        self._m_incr_refreshes = m.counter(
            "repro_incremental_refreshes_total",
            "Incremental subgraph refreshes triggered by job ingests.",
        )
        self._m_incr_dirty_jobs = m.counter(
            "repro_incremental_dirty_jobs_total",
            "Ingested jobs consumed by incremental refreshes.",
        )
        self._m_incr_tasks = m.counter(
            "repro_incremental_tasks_total",
            "Dirty-closure tasks re-run by incremental refreshes, by kind.",
            labelnames=("kind",),
        )
        self._m_incr_evicted = m.counter(
            "repro_incremental_evicted_total",
            "Cache entries dropped by scoped eviction, by memo table.",
            labelnames=("table",),
        )
        self._m_incr_retained = m.counter(
            "repro_incremental_retained_total",
            "Cache entries retained across a refresh, by memo table.",
            labelnames=("table",),
        )
        self._m_incr_latency = m.histogram(
            "repro_incremental_refresh_latency_seconds",
            "Engine wall-clock latency of one incremental refresh.",
        )

    def _publish_incremental_metrics(
        self,
        dirty: List[Tuple[str, int]],
        graph: TaskGraph,
        evicted: Dict[str, int],
        retained: Dict[str, int],
    ) -> None:
        self._m_incr_refreshes.inc()
        self._m_incr_dirty_jobs.inc(len(dirty))
        kinds: Dict[str, int] = {}
        for key in graph.keys:
            kind = key.split("/", 1)[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        for kind in sorted(kinds):
            self._m_incr_tasks.inc(kinds[kind], kind=kind)
        for table in sorted(evicted):
            if evicted[table]:
                self._m_incr_evicted.inc(evicted[table], table=table)
        for table in sorted(retained):
            if retained[table]:
                self._m_incr_retained.inc(retained[table], table=table)
        self._m_incr_latency.observe(max(0.0, self._engine_stats.wall_seconds))

    def _flush_detector_observations(self) -> None:
        """Fold deferred detector observations into the metrics registry.

        Batching keeps registry lookups and histogram label resolution off
        the per-detector hot path: counts aggregate in plain dicts here and
        land with one ``inc``/``observe_many`` per label set.
        """
        pending = self._pending_detector_obs
        if not pending:
            return
        self._pending_detector_obs = []
        call_counts: Dict[Tuple[str, str, str], int] = {}
        latencies: Dict[str, List[float]] = {}
        for level_name, detector, ok, elapsed in pending:
            key = (level_name, detector, "ok" if ok else "error")
            call_counts[key] = call_counts.get(key, 0) + 1
            latencies.setdefault(level_name, []).append(max(0.0, elapsed))
        for (level_name, detector, outcome_label), n in sorted(call_counts.items()):
            self._m_detector_calls.inc(
                n, level=level_name, detector=detector, outcome=outcome_label
            )
        for level_name, values in sorted(latencies.items()):
            self._m_detector_latency.observe_many(values, level=level_name)

    def _flag_dead_channels(self) -> None:
        """Channels with zero surviving traces are quarantined wholesale.

        These are the sensors the support divisor must renormalize over:
        with no usable trace anywhere they cannot vote, and the explicit
        ``scope="channel"`` record feeds :attr:`RunHealth.dead_channels`
        (belt and braces on top of the lookup's natural None-vote).  The
        health record is re-derived on every :meth:`_rebuild_health`, but
        the channel-death metric and log line fire once per channel per
        context lifetime — refreshes must not re-count a death already
        reported."""
        for channel_id in sorted({q.channel_id for q in self.health.quarantines}):
            if not self._traces.get(channel_id):
                self.health.record_quarantine(
                    channel_id, "channel",
                    "no usable trace survived the quality gate",
                )
                if channel_id in self._dead_metric_emitted:
                    continue
                self._dead_metric_emitted.add(channel_id)
                self._m_quarantines.inc(scope="channel")
                self.telemetry.warning(
                    f"dead channel {channel_id}: no usable trace survived "
                    "the quality gate; removed from the support divisor",
                    channel_id=channel_id,
                    scope="channel",
                )

    # ------------------------------------------------------------------
    # trace lookup (support + environment confirmation)
    # ------------------------------------------------------------------
    def _candidate_time(self, candidate: OutlierCandidate) -> Optional[float]:
        self._stats.candidate_time_calls += 1
        key = candidate.key
        if key in self._candidate_time_cache:
            self._stats.candidate_time_hits += 1
            return self._candidate_time_cache[key]
        time = self._candidate_time_uncached(candidate)
        if self._cache_enabled:
            self._candidate_time_cache[key] = time
        return time

    def _candidate_time_uncached(self, candidate: OutlierCandidate) -> Optional[float]:
        if candidate.index is not None and "/env/" in candidate.sensor_id:
            # environment candidates live on the line-wide trace; single-trace
            # channels (the common case) resolve through the O(1) primary
            # index, multi-trace channels keep the first-match scan
            primary = self._primary_trace.get(candidate.sensor_id)
            if primary is not None:
                if candidate.index < len(primary.scores):
                    return primary.start + candidate.index * primary.step
                return None
            for trace in self._traces.get(candidate.sensor_id, ()):
                if candidate.index < len(trace.scores):
                    return trace.start + candidate.index * trace.step
            return None
        if candidate.index is None or not candidate.sensor_id:
            if candidate.job_index is None:
                return None
            job = self.dataset.find_job(candidate.machine_id, candidate.job_index)
            if job is None:
                # explicit membership check: a candidate pointing at a job
                # the dataset does not know is a data defect worth surfacing,
                # not a silent un-timestamped candidate
                self.health.warn(
                    f"candidate references unknown job "
                    f"{candidate.machine_id}/job{candidate.job_index}; "
                    "skipping its timestamp"
                )
                return None
            return (job.start + job.end) / 2.0
        trace = self._traces.get(candidate.sensor_id)
        if not trace:
            return None
        phase = self.dataset.phase_series(
            candidate.machine_id, candidate.job_index, candidate.phase_name
        )
        any_series = phase.series[candidate.sensor_id]
        return any_series.start + candidate.index * any_series.step

    def _line_of_candidate(self, candidate: OutlierCandidate) -> Optional[LineRecord]:
        """The line a candidate belongs to (environment candidates carry the
        line id in the machine_id field)."""
        line = self._line_by_id.get(candidate.machine_id)
        if line is not None:
            return line
        return self._machine_line.get(candidate.machine_id)

    # ------------------------------------------------------------------
    # HierarchyContext interface
    # ------------------------------------------------------------------
    def find_candidates(self, level: ProductionLevel) -> List[OutlierCandidate]:
        self._stats.find_candidates_calls += 1
        cached = self._candidates_cache.get(level)
        if cached is not None:
            self._stats.find_candidates_hits += 1
            return list(cached)
        with self.telemetry.tracer.span(
            "find_candidates", level=level.name
        ) as sp:
            result = self._find_candidates_uncached(level)
            sp.set(n_candidates=len(result))
        self._m_candidates.inc(len(result), level=level.name)
        if self._cache_enabled:
            self._candidates_cache[level] = result
            return list(result)
        return result

    def _find_candidates_uncached(
        self, level: ProductionLevel
    ) -> List[OutlierCandidate]:
        if level is ProductionLevel.PHASE:
            return list(self._phase_candidates)
        if level is ProductionLevel.JOB:
            return [
                OutlierCandidate(
                    level=level,
                    outlierness=self._job_scores[key],
                    machine_id=key[0],
                    job_index=key[1],
                    detector=self._job_detector,
                )
                for key in sorted(self._job_flags)
            ]
        if level is ProductionLevel.ENVIRONMENT:
            out = []
            for line in self.dataset.lines:
                for channel_id in self._env_channels[line.line_id]:
                    for trace in self._traces.get(channel_id, ()):
                        for idx in _peak_indices(
                            trace.scores, trace.threshold,
                            self.config.candidate_gap,
                            self.config.max_candidates_per_trace,
                        ):
                            out.append(
                                OutlierCandidate(
                                    level=level,
                                    outlierness=float(trace.scores[idx]),
                                    machine_id=line.line_id,
                                    sensor_id=channel_id,
                                    index=idx,
                                )
                            )
            return out
        if level is ProductionLevel.PRODUCTION_LINE:
            return [
                OutlierCandidate(
                    level=level,
                    outlierness=self._line_scores[key],
                    machine_id=key[0],
                    job_index=key[1],
                )
                for key in sorted(self._line_flags)
            ]
        if level is ProductionLevel.PRODUCTION:
            return [
                OutlierCandidate(
                    level=level,
                    outlierness=self._machine_scores[m],
                    machine_id=m,
                )
                for m in sorted(self._machine_flags)
            ]
        raise ValueError(f"unknown level {level!r}")

    def _is_line_scoped(self, candidate: OutlierCandidate) -> bool:
        return candidate.machine_id in self._line_by_id

    def _jobs_in_window(self, candidate: OutlierCandidate) -> List[Tuple[str, int]]:
        """(machine, job) keys of the candidate line's jobs near its time."""
        line = self._line_of_candidate(candidate)
        if line is None:
            return []
        time = self._candidate_time(candidate)
        starts, run_max_end, spans = self._job_intervals[line.line_id]
        if time is None:
            return [(machine_id, job_index) for __, __, machine_id, job_index in spans]
        eps = 1e-9
        keys = []
        # jobs with start <= time + eps, walked right-to-left; the running
        # max end bounds how far left a covering interval can still sit
        i = bisect_right(starts, time + eps) - 1
        while i >= 0 and run_max_end[i] >= time - eps:
            __, end, machine_id, job_index = spans[i]
            if end >= time - eps:
                keys.append((machine_id, job_index))
            i -= 1
        keys.reverse()
        return keys

    def _confirm_line_scoped(self, candidate: OutlierCandidate,
                             level: ProductionLevel) -> LevelConfirmation:
        """Cross-level checks for environment (line-scoped) candidates."""
        if level is ProductionLevel.JOB:
            keys = self._jobs_in_window(candidate)
            hits = [k for k in keys if k in self._job_flags]
            best = max((self._job_unified.get(k, 0.0) for k in keys), default=0.0)
            return LevelConfirmation(
                level, bool(hits), best,
                note=f"{len(hits)} concurrent job(s) flagged" if hits else "",
            )
        if level is ProductionLevel.PRODUCTION_LINE:
            keys = self._jobs_in_window(candidate)
            hits = [k for k in keys if k in self._line_flags]
            best = max((self._line_unified.get(k, 0.0) for k in keys), default=0.0)
            return LevelConfirmation(level, bool(hits), best)
        if level is ProductionLevel.PRODUCTION:
            line = self._line_of_candidate(candidate)
            machines = [m.machine_id for m in line.machines] if line else []
            hits = [m for m in machines if m in self._machine_flags]
            best = max(
                (self._machine_unified.get(m, 0.0) for m in machines), default=0.0
            )
            return LevelConfirmation(level, bool(hits), best)
        raise ValueError(f"unexpected line-scoped level {level!r}")

    def confirm(self, candidate: OutlierCandidate,
                level: ProductionLevel) -> LevelConfirmation:
        self._stats.confirm_calls += 1
        key = (candidate.key, level)
        cached = self._confirm_cache.get(key)
        if cached is not None:
            self._stats.confirm_hits += 1
            return cached
        level_name = getattr(level, "name", str(level))
        with self.telemetry.tracer.span(
            "confirm", level=level_name, candidate=candidate.location
        ) as sp:
            result = self._confirm_uncached(candidate, level)
            sp.set(detected=result.detected)
        self._m_confirmations.inc(
            level=level_name, detected=str(bool(result.detected)).lower()
        )
        if self._cache_enabled:
            self._confirm_cache[key] = result
        return result

    def _confirm_uncached(self, candidate: OutlierCandidate,
                          level: ProductionLevel) -> LevelConfirmation:
        if (
            self._is_line_scoped(candidate)
            and level in (
                ProductionLevel.JOB,
                ProductionLevel.PRODUCTION_LINE,
                ProductionLevel.PRODUCTION,
            )
        ):
            return self._confirm_line_scoped(candidate, level)
        key = (candidate.machine_id, candidate.job_index)
        if level is ProductionLevel.JOB:
            detected = key in self._job_flags
            return LevelConfirmation(
                level, detected, self._job_unified.get(key, 0.0),
                note="CAQ+setup row flagged" if detected else "job row normal",
            )
        if level is ProductionLevel.ENVIRONMENT:
            return self._confirm_environment(candidate)
        if level is ProductionLevel.PRODUCTION_LINE:
            detected = key in self._line_flags
            return LevelConfirmation(
                level, detected, self._line_unified.get(key, 0.0),
                note="jobs-over-time row flagged" if detected else "",
            )
        if level is ProductionLevel.PRODUCTION:
            detected = candidate.machine_id in self._machine_flags
            return LevelConfirmation(
                level, detected,
                self._machine_unified.get(candidate.machine_id, 0.0),
                note="machine KPI flagged" if detected else "",
            )
        if level is ProductionLevel.PHASE:
            return self._confirm_phase(candidate)
        raise ValueError(f"unknown level {level!r}")

    def _confirm_environment(self, candidate: OutlierCandidate) -> LevelConfirmation:
        time = self._candidate_time(candidate)
        level = ProductionLevel.ENVIRONMENT
        if time is None:
            return LevelConfirmation(level, False, 0.0, note="no timestamp")
        line = self._line_of_candidate(candidate)
        if line is None:
            return LevelConfirmation(level, False, 0.0, note="unknown line")
        tol = max(self.config.support_tolerance, 4.0)
        best = 0.0
        detected = False
        for channel_id in self._env_channels[line.line_id]:
            entry = _trace_at(self._traces, self._trace_starts, channel_id, time)
            if entry is None:
                continue
            scores, threshold, start, step = entry
            lo, hi = window_bounds(time, tol, start, step, len(scores))
            if hi <= lo:
                continue
            window = scores[lo:hi]
            peak = float(window.max())
            med, spread = self._trace_med_spread(channel_id, start, scores)
            best = max(best, min(1.0, max(0.0, (peak - med) / (spread * 10.0))))
            if peak >= threshold:
                detected = True
        return LevelConfirmation(
            level, detected, best,
            note="environment anomaly in window" if detected else "",
        )

    def _trace_med_spread(
        self, channel_id: str, start: float, scores: np.ndarray
    ) -> Tuple[float, float]:
        """Median / MAD spread of one trace, computed once per trace."""
        key = (channel_id, start)
        cached = self._trace_stats.get(key)
        if cached is None:
            med = float(np.median(scores))
            spread = float(np.median(np.abs(scores - med))) * 1.4826 or 1.0
            cached = (med, spread)
            self._trace_stats[key] = cached
        return cached

    def _confirm_phase(self, candidate: OutlierCandidate) -> LevelConfirmation:
        level = ProductionLevel.PHASE
        line = self._line_of_candidate(candidate)
        line_machines = (
            {m.machine_id for m in line.machines} if line is not None else set()
        )
        if candidate.machine_id in line_machines or line is None:
            # machine-scoped candidate: match its machine (and job when known)
            if candidate.job_index is None:
                matches = self._phase_by_machine.get(candidate.machine_id, [])
            else:
                matches = self._phase_by_machine_job.get(
                    (candidate.machine_id, candidate.job_index), []
                )
        else:
            # line-scoped candidate (environment level): any machine of the
            # line with a phase-level sighting near the candidate's time
            time = self._candidate_time(candidate)
            tol = max(self.config.support_tolerance * 4, 32.0)
            matches = []
            for machine in line.machines:
                for c in self._phase_by_machine.get(machine.machine_id, ()):
                    c_time = self._candidate_time(c)
                    if time is None or c_time is None or abs(c_time - time) <= tol:
                        matches.append(c)
        if not matches:
            return LevelConfirmation(level, False, 0.0, note="no phase anomaly")
        best = max(c.outlierness for c in matches)
        # rank of `best` among all phase scores == (scores <= best).mean()
        n = len(self._phase_scores_sorted)
        unified = float(
            np.searchsorted(self._phase_scores_sorted, best, side="right")
        ) / n
        return LevelConfirmation(
            level, True, unified,
            note=f"{len(matches)} phase-level candidate(s) in job",
        )

    def support(self, candidate: OutlierCandidate) -> SupportResult:
        self._stats.support_calls += 1
        key = candidate.key
        cached = self._support_cache.get(key)
        if cached is not None:
            self._stats.support_hits += 1
            return cached
        with self.telemetry.tracer.span(
            "support", candidate=candidate.location
        ) as sp:
            result = self._support_uncached(candidate)
            sp.set(
                support=float(result.support),
                n_corresponding=result.n_corresponding,
            )
        self._m_support.observe(float(result.support))
        if self._cache_enabled:
            self._support_cache[key] = result
        return result

    def _support_uncached(self, candidate: OutlierCandidate) -> SupportResult:
        if not candidate.sensor_id:
            return SupportResult(0.0, 0, ())
        time = self._candidate_time(candidate)
        if time is None:
            return SupportResult(0.0, 0, ())
        return self._support_calc.support_for(candidate.sensor_id, time)

    # convenience accessors used by benches -----------------------------
    @property
    def phase_candidates(self) -> List[OutlierCandidate]:
        return list(self._phase_candidates)

    @property
    def correspondence_graph(self) -> CorrespondenceGraph:
        return self._graph


class HierarchicalDetectionPipeline:
    """Public facade: simulate-once, then query hierarchical reports."""

    def __init__(
        self,
        dataset: PlantDataset,
        selector: Optional[AlgorithmSelector] = None,
        config: Optional[PipelineConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or PipelineConfig()
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(enabled=self.config.enable_telemetry)
        )
        self.context = PlantHierarchyContext(
            dataset, selector, self.config, telemetry=self.telemetry
        )
        self.checkpoint = self._build_checkpoint_manager()
        if self.checkpoint is not None:
            self.checkpoint.snapshot(trigger="build")

    def _build_checkpoint_manager(self) -> Optional["CheckpointManager"]:
        """Bind a :class:`~repro.core.checkpoint.CheckpointManager` when
        ``config.checkpoint_dir`` is set (imported lazily: the checkpoint
        module depends on this one)."""
        if self.config.checkpoint_dir is None:
            return None
        from .checkpoint import CheckpointManager, SnapshotStore

        return CheckpointManager(
            pipeline=self,
            store=SnapshotStore(
                self.config.checkpoint_dir,
                retain=self.config.checkpoint_retain,
                telemetry=self.telemetry,
            ),
            every=max(1, self.config.checkpoint_every),
        )

    @classmethod
    def _resumed(
        cls,
        dataset: PlantDataset,
        sections: Dict[str, object],
        selector: Optional[AlgorithmSelector] = None,
        config: Optional[PipelineConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "HierarchicalDetectionPipeline":
        """Build a pipeline around a snapshot-restored context.

        Used by :func:`repro.core.checkpoint.resume_pipeline`; never runs
        the cold build and never writes a snapshot of its own until the
        first post-restore refresh.
        """
        self = cls.__new__(cls)
        self.dataset = dataset
        self.config = config or PipelineConfig()
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(enabled=self.config.enable_telemetry)
        )
        self.context = PlantHierarchyContext._from_snapshot_state(
            dataset, sections, selector, self.config, telemetry=self.telemetry
        )
        self.checkpoint = self._build_checkpoint_manager()
        return self

    def run(
        self,
        start_level: ProductionLevel = ProductionLevel.PHASE,
        fusion_strategy: Optional[str] = None,
        unify_method: str = "rank",
    ) -> List[HierarchicalOutlierReport]:
        """Algorithm 1 from ``start_level``, reports ranked best-first.

        ``unify_method`` controls how the start-level outlierness batch is
        mapped to [0, 1] (``"rank"`` by default — note this differs from
        the ``"gaussian"`` default of the low-level ``unify()`` helper).
        Repeated calls reuse the context's confirmation/support caches;
        see :meth:`stats`.
        """
        fusion = fusion_strategy or self.config.fusion_strategy
        with self.telemetry.tracer.span(
            "alg1.run",
            start_level=start_level.name,
            fusion=fusion,
            unify=unify_method,
        ) as sp:
            reports = find_hierarchical_outliers(
                self.context,
                start_level,
                fusion_strategy=fusion,
                unify_method=unify_method,
            )
            ranked = rank_reports(reports)
            sp.set(n_reports=len(ranked))
        self._publish_run_metrics(start_level, ranked)
        return ranked

    def _publish_run_metrics(
        self,
        start_level: ProductionLevel,
        reports: List[HierarchicalOutlierReport],
    ) -> None:
        m = self.telemetry.metrics
        m.counter(
            "repro_runs_total", "Algorithm-1 runs executed.",
            labelnames=("start_level",),
        ).inc(start_level=start_level.name)
        m.counter(
            "repro_reports_total", "Hierarchical outlier reports emitted.",
        ).inc(len(reports))
        warnings_total = m.counter(
            "repro_measurement_warnings_total",
            "Reports carrying the wrong-measurement warning.",
        )
        confirmed = m.counter(
            "repro_confirmed_levels_total",
            "Level confirmations attached to emitted reports, by outcome.",
            labelnames=("level", "detected"),
        )
        for report in reports:
            if report.measurement_warning:
                warnings_total.inc()
            for conf in report.confirmations:
                confirmed.inc(
                    level=conf.level.name,
                    detected=str(bool(conf.detected)).lower(),
                )
        self.context.publish_stats()

    def ingest_job(self, machine_id: str, job: JobRecord) -> Dict[str, object]:
        """Ingest one arriving job and incrementally refresh the context.

        Routes the mutation through
        :meth:`~repro.plant.PlantDataset.ingest_job` (the one sanctioned
        mutation path) and immediately consumes the dirty set with
        :meth:`PlantHierarchyContext.refresh`, re-scoring only the job's
        task-DAG closure.  The next :meth:`run` produces reports
        byte-identical to a cold pipeline built on the mutated dataset,
        on every executor.  Returns the refresh summary dict.
        """
        self.dataset.ingest_job(machine_id, job)
        return self.refresh()

    def refresh(self) -> Dict[str, object]:
        """Consume pending dataset ingests via an incremental refresh.

        When checkpointing is enabled, every ``checkpoint_every``-th
        non-empty refresh is followed by a snapshot — the crash-recovery
        point the chaos harness SIGKILLs at.
        """
        summary = self.context.refresh()
        if self.checkpoint is not None and summary.get("dirty_jobs"):
            self.checkpoint.after_refresh()
        return summary

    @property
    def health(self) -> RunHealth:
        """Structured degradation record of the run (fallbacks, quarantines)."""
        return self.context.health

    def stats(self) -> Dict[str, object]:
        """The unified nested stats dict (see :data:`STATS_SCHEMA`)."""
        return self.context.stats()

    def flat_baseline(self) -> List[HierarchicalOutlierReport]:
        """Single-level baseline: phase candidates ranked by outlierness only.

        Reports carry global score 1 and neutral support, exactly what a
        non-hierarchical detector could know.
        """
        candidates = self.context.find_candidates(ProductionLevel.PHASE)
        if not candidates:
            return []
        unified = unify_rank([c.outlierness for c in candidates])
        reports = [
            HierarchicalOutlierReport(
                candidate=c,
                global_score=1,
                outlierness=float(u),
                support=0.0,
                n_corresponding=0,
                fused_score=float(u),
            )
            for c, u in zip(candidates, unified)
        ]
        return sorted(reports, key=lambda r: r.outlierness, reverse=True)
