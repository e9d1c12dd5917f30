"""The scoring tasks: everything that runs inside a pool worker.

One decision lives here: how one per-machine or per-line task of the
level DAG turns its picklable :class:`_ScoreTask` payload into scores
(gate, score through the fallback chain, threshold, pick peaks).  A task
is a pure function of its payload: it records health/metric side effects
as an ordered *event list* and its spans on a worker-local tracer, and
:mod:`repro.core.runner` replays both at merge time in graph insertion
order, so health, metrics and reports are bit-identical across the serial
and process executors.  Nothing here touches main-process state: this
module is the DET1xx worker-purity scope of repro-lint.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, cast

import numpy as np

from ..detectors import BaseDetector, make_detector
from ..obs.trace import Tracer
from ..timeseries import TimeSeries
from .levels import ProductionLevel
from .outlier import OutlierCandidate
from .resilience import (
    DetectorSandbox,
    FallbackEvent,
    assess_series,
    clean_rows,
    repair_series,
    robust_fallback_scores,
    robust_matrix_scores,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .pipeline import PipelineConfig


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
    if not bad.any():
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
    task: _ScoreTask, executor: str, clock: Optional[Callable[[], float]] = None
) -> _TaskResult:
    """Execute one scoring task (module-level: process workers run it).

    The task root span names ``executor``, the running engine's, and the
    worker.  The serial executor injects the run's shared telemetry clock;
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
        executor=executor,
        worker=_worker_label(executor),
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
