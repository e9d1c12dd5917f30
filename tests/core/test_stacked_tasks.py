"""The stacked phase/env tasks against a trace-by-trace reference.

The phase and environment tasks gate-precheck, threshold and peak-filter
their traces one same-length stack at a time.  The reference below is a
verbatim copy of the trace-by-trace task loops they replaced; both run on
the same payloads (chaos plants with dropout, NaN bursts short enough to
repair and too long to keep, stuck runs, truncations, hand-injected ±inf
samples, and an always-raising detector at the head of the phase chain)
and must agree on every trace, candidate, event — order included — and
batch group.  Both sides run the same AR kernel in one process, so the
comparison holds on any BLAS kernel.
"""

from __future__ import annotations

from typing import List, Tuple, cast

import numpy as np
import pytest

from repro.core import PipelineConfig, ProductionLevel
from repro.core.outlier import OutlierCandidate
from repro.core.runner import LevelRunner
from repro.core.tasks import (
    _gate_series_w,
    _modal_expected_length,
    _peak_indices,
    _robust_threshold,
    _run_env_task,
    _run_phase_task,
    _score_series_batch,
    _ScoreTask,
    _Trace,
    _WorkerState,
)
from repro.core.resilience import DetectorSandbox, QualityPolicy, SandboxPolicy
from repro.core.selection import AlgorithmSelector
from repro.obs.trace import Tracer
from repro.plant import ChaosConfig, FaultConfig, PlantConfig, inject_chaos, simulate_plant
from repro.timeseries import TimeSeries


# ----------------------------------------------------------------------
# reference: the trace-by-trace task loops, verbatim
# ----------------------------------------------------------------------
def _reference_phase_task(state: _WorkerState, data: Tuple[object, ...]) -> object:
    machine_id, jobs = cast(
        Tuple[str, Tuple[Tuple[int, Tuple[Tuple[str, Tuple[Tuple[str, TimeSeries], ...]], ...]], ...]],
        data,
    )
    cfg = state.config
    traces: List[Tuple[str, _Trace]] = []
    candidates: List[OutlierCandidate] = []
    for job_index, phases in jobs:
        for phase_name, items in phases:
            expected = _modal_expected_length(items)
            scope = f"{machine_id}/job{job_index}/{phase_name}"
            gated: List[Tuple[str, TimeSeries]] = []
            for sensor_id, series in items:
                kept = _gate_series_w(
                    state, sensor_id, scope, series, expected_length=expected
                )
                if kept is not None:
                    gated.append((sensor_id, kept))
            scored = _score_series_batch(
                state, gated, [f"{scope}/{sensor_id}" for sensor_id, __ in gated]
            )
            for (sensor_id, series), (scores, detector_name) in zip(gated, scored):
                trace = _Trace(
                    channel_id=sensor_id,
                    start=series.start,
                    step=series.step,
                    scores=scores,
                    threshold=_robust_threshold(scores, cfg.phase_sigma),
                )
                traces.append((sensor_id, trace))
                for idx in _peak_indices(
                    scores, trace.threshold, cfg.candidate_gap,
                    cfg.max_candidates_per_trace,
                ):
                    candidates.append(
                        OutlierCandidate(
                            level=ProductionLevel.PHASE,
                            outlierness=float(scores[idx]),
                            machine_id=machine_id,
                            job_index=job_index,
                            phase_name=phase_name,
                            sensor_id=sensor_id,
                            index=idx,
                            detector=detector_name,
                        )
                    )
    return traces, candidates


def _reference_env_task(state: _WorkerState, data: Tuple[object, ...]) -> object:
    line_id, items = cast(Tuple[str, Tuple[Tuple[str, TimeSeries], ...]], data)
    cfg = state.config
    gated: List[Tuple[str, TimeSeries]] = []
    for channel_id, series in items:
        kept = _gate_series_w(state, channel_id, line_id, series)
        if kept is not None:
            gated.append((channel_id, kept))
    scored = _score_series_batch(
        state, gated, [channel_id for channel_id, __ in gated]
    )
    traces: List[Tuple[str, _Trace]] = []
    ids: List[str] = []
    for (channel_id, series), (scores, __) in zip(gated, scored):
        trace = _Trace(
            channel_id=channel_id,
            start=series.start,
            step=series.step,
            scores=scores,
            threshold=_robust_threshold(scores, cfg.env_sigma),
        )
        traces.append((channel_id, trace))
        ids.append(channel_id)
    return traces, ids


# ----------------------------------------------------------------------
# payloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def base_plant():
    return simulate_plant(
        PlantConfig(
            seed=31, n_lines=2, machines_per_line=2, jobs_per_machine=4,
            faults=FaultConfig(
                process_fault_rate=0.3, sensor_fault_rate=0.3, setup_anomaly_rate=0.1
            ),
        )
    )


def _inject_inf(dataset, every: int):
    """±inf into every ``every``-th phase trace and one sample gap plus
    ±inf into each environment channel (in place, on a chaos copy)."""
    k = 0
    for machine in dataset.iter_machines():
        for job in machine.jobs:
            for phase in job.phases:
                for sensor_id, series in sorted(phase.series.items()):
                    k += 1
                    if k % every or len(series.values) < 12:
                        continue
                    values = np.array(series.values, dtype=float)
                    values[2] = np.inf
                    values[len(values) // 2] = -np.inf
                    phase.series[sensor_id] = series.replace(values=values)
    for line in dataset.lines:
        for kind, series in sorted(line.environment.items()):
            values = np.array(series.values, dtype=float)
            if np.isnan(values).all():
                continue  # a dropped channel stays dropped
            values[10:14] = np.nan
            values[40] = np.inf
            values[41] = -np.inf
            line.environment[kind] = series.replace(values=values)
    return dataset


#: (chaos plan, ±inf stride or None, chaos-raise at the head of the phase
#: chain, config) — NaN bursts of 6 samples are repaired (≤ repair_max_gap 8),
#: bursts of 40 exceed max_nan_run 32 and quarantine the trace
CASES = {
    "dropout+short-nan": (
        ChaosConfig(seed=0, sensor_dropout_rate=0.15, nan_burst_rate=0.3,
                    nan_burst_length=6, dropout_sensors=("line-0/env/humidity",)),
        17, False, PipelineConfig(),
    ),
    "long-nan+stuck+truncate": (
        ChaosConfig(seed=1, nan_burst_rate=0.25, nan_burst_length=40,
                    stuck_rate=0.2, truncate_rate=0.15),
        13, True, PipelineConfig(sandbox=SandboxPolicy(max_attempts=1)),
    ),
    "everything": (
        ChaosConfig(seed=2, sensor_dropout_rate=0.1, nan_burst_rate=0.3,
                    nan_burst_length=6, stuck_rate=0.15, truncate_rate=0.15),
        11, True, PipelineConfig(),
    ),
    "tolerant-gate": (
        ChaosConfig(seed=3, sensor_dropout_rate=0.05, nan_burst_rate=0.2,
                    nan_burst_length=40, stuck_rate=0.2, truncate_rate=0.1),
        19, False, PipelineConfig(quality=QualityPolicy(flatline_tolerance=0.05)),
    ),
}


def _tasks(base_plant, case: str) -> List[_ScoreTask]:
    chaos, every, raising_head, config = CASES[case]
    dataset, __ = inject_chaos(base_plant, chaos)
    if every is not None:
        dataset = _inject_inf(dataset, every)
    selector = AlgorithmSelector()
    if raising_head:
        selector.override(
            ProductionLevel.PHASE, ["chaos-raise", "ar", "deviants", "zscore"]
        )
    # the payloads the pipeline itself would ship, without running it
    return [
        cast(_ScoreTask, task.payload)
        for task in LevelRunner(dataset, selector, config, None).task_graph()
        if task.key.startswith(("phase/", "env/"))
    ]


def _fresh_state(task: _ScoreTask) -> _WorkerState:
    # frozen clocks: the `obs` events carry sandbox-elapsed seconds
    return _WorkerState(
        config=task.config,
        level=task.level,
        chain=task.chain,
        tracer=Tracer(clock=lambda: 0.0, enabled=True),
        sandbox=DetectorSandbox(task.config.sandbox, clock=lambda: 0.0),
        telemetry_enabled=True,
    )


def _trace_rows(traces) -> list:
    return [
        (unit, t.channel_id, t.start, t.step, t.scores.tobytes(), t.threshold)
        for unit, t in traces
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_stacked_tasks_match_the_trace_by_trace_reference(base_plant, case):
    tasks = _tasks(base_plant, case)
    assert {t.kind for t in tasks} == {"phase", "env"}
    kinds_seen = set()
    for task in tasks:
        run, reference = {
            "phase": (_run_phase_task, _reference_phase_task),
            "env": (_run_env_task, _reference_env_task),
        }[task.kind]
        got_state, ref_state = _fresh_state(task), _fresh_state(task)
        got = cast(tuple, run(got_state, cast(tuple, task.data)))
        ref = cast(tuple, reference(ref_state, cast(tuple, task.data)))

        assert _trace_rows(got[0]) == _trace_rows(ref[0]), task.key
        assert got[1] == ref[1], task.key  # candidates / env channel ids
        assert got_state.events == ref_state.events, task.key
        assert got_state.batch_groups == ref_state.batch_groups, task.key
        assert [s.name for s in got_state.tracer.spans] == [
            s.name for s in ref_state.tracer.spans
        ], task.key
        kinds_seen.update(kind for kind, __ in ref_state.events)
    # the plants must actually exercise what the comparison is about
    expected = {"quarantine", "warn", "obs"}
    if CASES[case][2]:
        expected.add("fallback")
    assert expected <= kinds_seen
