"""The level build: runs the scoring DAG and derives the scored plant.

One decision lives here: how task results become a plant's scored state.
:class:`LevelRunner` runs the level DAG of :mod:`repro.core.tasks`, keeps
every task's output and event list, and derives from them, in the
canonical task order, the health record and the :class:`ScoredPlant`
that Algorithm 1 reads.  A cold build, a refresh and a snapshot restore
all end in that one derivation (DESIGN §10).
"""

from __future__ import annotations

import copy
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple,
    TypeVar, cast,
)

import numpy as np

from ..obs import Telemetry
from ..obs.metrics import BYTE_BUCKETS
from ..plant import PlantDataset
from .levels import ProductionLevel
from .outlier import OutlierCandidate
from .parallel import EngineStats, ParallelEngine, Task, TaskGraph
from .resilience import FallbackEvent, RunHealth
from .scores import unify_rank
from .selection import AlgorithmSelector
from .support import CorrespondenceGraph, SupportCalculator
from .tasks import _PhaseOut, _robust_threshold, _run_scoring_task, _ScoreTask, _TaskResult, _Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .pipeline import PipelineConfig


def _copied(section: object) -> Dict[str, Any]:
    """A snapshot section's entries, each shallow-copied: taken from the
    ``vars()`` of the section's dataclass on snapshot and passed back to it
    as keyword arguments on restore, so no container is shared."""
    return {k: copy.copy(v) for k, v in cast(Dict[str, object], section).items()}


_K = TypeVar("_K", bound=Hashable)


def _level_tables(
    keys: Sequence[_K], scores: np.ndarray, sigma: float
) -> Tuple[Dict[_K, float], Dict[_K, float], Set[_K]]:
    """A vector level's score, rank-unified and flag tables: the keys whose
    score reaches the level's robust threshold are flagged."""
    threshold = _robust_threshold(scores, sigma)
    unified = unify_rank(scores)
    return (
        {k: float(s) for k, s in zip(keys, scores)},
        {k: float(u) for k, u in zip(keys, unified)},
        {k for k, s in zip(keys, scores) if s >= threshold},
    )


def _by_kind(values: Mapping[str, float]) -> Dict[str, List[float]]:
    """Per-task values grouped by task kind (the key's first segment),
    clamped at zero."""
    out: Dict[str, List[float]] = {}
    for key, value in values.items():
        out.setdefault(key.split("/", 1)[0], []).append(max(0.0, float(value)))
    return out


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


# no eq/repr on the records of this module: nothing compares or prints
# them, and each generated method costs import time on the cold path
@dataclass(eq=False, repr=False)
class ScoredPlant:
    """What Algorithm 1 reads of a plant, derived afresh after every engine
    run and restore, so a context never sees a half-updated one."""

    #: per-channel outlierness traces (sorted by start) and their starts
    traces: Dict[str, List[_Trace]] = field(default_factory=dict)
    trace_starts: Dict[str, List[float]] = field(default_factory=dict)
    #: per-trace robust stats for the environment confirmation, filled lazily
    trace_stats: Dict[Tuple[str, float], Tuple[float, float]] = field(default_factory=dict)
    phase_candidates: List[OutlierCandidate] = field(default_factory=list)
    #: phase candidates grouped by machine and (machine, job), plus the
    #: sorted outlierness array the phase confirmation ranks against
    phase_by_machine: Dict[str, List[OutlierCandidate]] = field(default_factory=dict)
    phase_by_machine_job: Dict[Tuple[str, Optional[int]], List[OutlierCandidate]] = field(
        default_factory=dict
    )
    phase_scores_sorted: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=float))
    env_channels: Dict[str, List[str]] = field(default_factory=dict)
    job_scores: Dict[Tuple[str, int], float] = field(default_factory=dict)
    job_unified: Dict[Tuple[str, int], float] = field(default_factory=dict)
    job_flags: Set[Tuple[str, int]] = field(default_factory=set)
    job_detector: str = ""
    line_scores: Dict[Tuple[str, int], float] = field(default_factory=dict)
    line_unified: Dict[Tuple[str, int], float] = field(default_factory=dict)
    line_flags: Set[Tuple[str, int]] = field(default_factory=set)
    machine_scores: Dict[str, float] = field(default_factory=dict)
    machine_unified: Dict[str, float] = field(default_factory=dict)
    machine_flags: Set[str] = field(default_factory=set)
    #: per line: job starts, running max end, and (start, end, machine, job) spans
    job_intervals: Dict[str, Tuple[List[float], List[float], List[Tuple[float, float, str, int]]]] = (
        field(default_factory=dict)
    )
    health: RunHealth = field(init=False)
    support_calc: SupportCalculator = field(init=False)


@dataclass(eq=False, repr=False)
class _TaskState:
    """Per-task retained state: the ``tasks`` snapshot section, field by field.

    Task outputs and replayable event lists: a refresh re-runs only the
    dirty tasks and appends (phase) or overwrites (other kinds) their
    entries, and a restore installs them and runs no detector.
    """

    task_events: Dict[str, List[Tuple[str, object]]] = field(default_factory=dict)
    phase_out: Dict[str, _PhaseOut] = field(default_factory=dict)
    env_out: Dict[str, object] = field(default_factory=dict)
    job_out: Optional[object] = None
    line_out: Dict[str, object] = field(default_factory=dict)
    production_out: Optional[object] = None
    batch_group_count: int = 0
    #: channels whose death the metric and log line already reported
    dead_metric_emitted: Set[str] = field(default_factory=set)
    #: deferred detector observations: the per-call hot path appends a
    #: tuple here and publish_stats() folds the batch into the registry
    pending_detector_obs: List[Tuple[str, str, bool, float]] = field(default_factory=list)
    engine_stats: Optional[EngineStats] = None


class LevelRunner:
    """Runs one plant's level DAG and derives its :class:`ScoredPlant`."""

    def __init__(
        self,
        dataset: PlantDataset,
        selector: AlgorithmSelector,
        config: "PipelineConfig",
        telemetry: Optional[Telemetry],
    ) -> None:
        self.dataset = dataset
        self.selector = selector
        self.config = config
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(enabled=config.enable_telemetry)
        )
        self._init_instruments()
        self._graph = CorrespondenceGraph.from_plant(dataset)
        self._tasks = _TaskState()
        # machine -> how many of its jobs (a prefix of ``machine.jobs``)
        # the phase outputs cover; no machine has a scored job yet, so the
        # first graph scores every job
        self._scored_jobs: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # engine runs and snapshot restore
    # ------------------------------------------------------------------
    def run(self, span_name: str, graph: TaskGraph, executor: str) -> ScoredPlant:
        """Run one task graph on ``executor`` and derive the scored plant.

        Shared by the cold build (the full level DAG, on the configured
        executor) and the context's refresh (the dirty subgraph, always
        ``"serial"``): runs the engine, stores per-task outputs and event
        lists, reassembles the derived stores, rebuilds the health record
        by canonical event replay, re-derives the indexes and the support
        calculator, and publishes the engine's cost counters.
        """
        tracer = self.telemetry.tracer
        with tracer.span(span_name, executor=executor) as outer_span:
            engine = ParallelEngine(
                executor, self.config.max_workers, capture_alloc=self.config.perf_alloc
            )
            # process workers' clocks are not comparable with the injected
            # main-process clock: they keep their own, and their span trees
            # graft as roots
            pooled = executor == "process"
            worker = functools.partial(
                _run_scoring_task, executor=executor,
                clock=None if pooled else self.telemetry.clock,
            )
            parent_id = None if pooled or not tracer.enabled else outer_span.span_id
            results, self._tasks.engine_stats = engine.run(
                graph, cast(Callable[[object], object], worker)
            )
            self._merge_results(results, parent_id)
            plant = self._index()
        self._publish_engine_metrics()
        return plant

    def snapshot_state(self) -> Dict[str, object]:
        """The ``tasks`` snapshot section (see :class:`_TaskState`)."""
        return _copied(vars(self._tasks))

    def snapshot_watermark(self) -> List[Tuple[str, int]]:
        """Every job the stored outputs cover, as sorted ``(machine_id,
        job_index)`` pairs: each machine's first scored jobs.  A job
        ingested but not yet refreshed is past it, so a resume replays it.
        """
        return sorted(
            (m.machine_id, j.job_index)
            for m in self.dataset.iter_machines()
            for j in m.jobs[: self._scored_jobs[m.machine_id]]
        )

    def restore(self, section: object) -> ScoredPlant:
        """Install a ``tasks`` snapshot section and derive the scored plant
        from it without scoring (the dataset is the snapshot's watermark
        partition, see ``PlantHierarchyContext._from_snapshot_state``)."""
        self._tasks = _TaskState(**_copied(section))
        # the watermark partition holds exactly the jobs the phase outputs cover
        self._scored_jobs = {m.machine_id: len(m.jobs) for m in self.dataset.iter_machines()}
        with self.telemetry.tracer.span("pipeline.restore"):
            plant = self._index()
        self._publish_engine_metrics()
        return plant

    def _index(self) -> ScoredPlant:
        """Assemble, replay health and index the stored task outputs."""
        with self.telemetry.tracer.span("pipeline.index"):
            plant = self._assemble()
            plant.health = self._rebuild_health(plant.traces)
            self._build_indexes(plant)
        return plant

    def engine_stats(self) -> EngineStats:
        """Execution-engine cost of the last engine run: the cold build, on
        the configured executor, or the latest refresh, always serial."""
        return cast(EngineStats, self._tasks.engine_stats)

    def parallel_stats(self) -> Dict[str, int]:
        """The ``parallel`` block of ``stats()``: the last engine run's task
        count and its same-length scoring groups."""
        return {
            "tasks": self.engine_stats().n_tasks,
            "batch_groups": self._tasks.batch_group_count,
        }

    # ------------------------------------------------------------------
    # task graph construction and merge (see repro.core.parallel)
    # ------------------------------------------------------------------
    def _task_order(self) -> List[Tuple[str, str, str]]:
        """``(kind, key, unit id)`` of every task of the full level DAG in
        insertion order — phase per machine, environment per line, the job
        table, jobs-over-time per line, production — the one definition of
        the task keys and their order."""
        dataset = self.dataset
        return [
            *(("phase", f"phase/{m.machine_id}", m.machine_id) for m in dataset.iter_machines()),
            *(("env", f"env/{line.line_id}", line.line_id) for line in dataset.lines),
            ("job", "job", ""),
            *(("line", f"line/{line.line_id}", line.line_id) for line in dataset.lines),
            ("production", "production", ""),
        ]

    def task_graph(self, only: Optional[Set[str]] = None) -> TaskGraph:
        """Decompose the run into the level DAG (:meth:`_task_order`).

        Insertion order mirrors the serial pipeline's historical method
        order — the merge step replays events in this order, which is
        what makes the health record executor-invariant.

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
        dataset = self.dataset
        graph = TaskGraph()
        line_keys: List[str] = []
        for kind, key, unit in self._task_order():
            if only is not None and key not in only:
                continue
            deps: Tuple[str, ...] = ()
            data: Tuple[object, ...]
            if kind == "phase":
                jobs = tuple(
                    (
                        job.job_index,
                        tuple(
                            (phase.name, tuple(sorted(phase.series.items())))
                            for phase in job.phases
                        ),
                    )
                    for job in dataset.machine(unit).jobs[self._scored_jobs.get(unit, 0):]
                )
                level, data = ProductionLevel.PHASE, (unit, jobs)
            elif kind == "env":
                items = tuple(
                    (f"{unit}/env/{env_kind}", series)
                    for env_kind, series in sorted(dataset.line(unit).environment.items())
                )
                level, data = ProductionLevel.ENVIRONMENT, (unit, items)
            elif kind == "job":
                rows: List[np.ndarray] = []
                keys: List[Tuple[str, int]] = []
                for machine in dataset.iter_machines():
                    table = dataset.job_table(machine.machine_id)
                    for job, row in zip(machine.jobs, table):
                        rows.append(row)
                        keys.append((machine.machine_id, job.job_index))
                level, data = ProductionLevel.JOB, (tuple(keys), np.vstack(rows))
            elif kind == "line":
                mat, identity = dataset.jobs_over_time(unit)
                if mat.shape[0] == 0:
                    continue
                line_keys.append(key)
                level, data = ProductionLevel.PRODUCTION_LINE, (unit, mat, tuple(identity))
                deps = ("job",)
            else:
                panel, machine_ids = dataset.production_panel()
                level, data = ProductionLevel.PRODUCTION, (panel, tuple(machine_ids))
                deps = tuple(line_keys)
            if only is not None:
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
                        config=self.config,
                        telemetry_enabled=self.telemetry.enabled,
                        data=data,
                    ),
                )
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
        tasks = self._tasks
        # like ``parallel.tasks``: the last engine run, not a running total
        tasks.batch_group_count = 0
        for result in results.values():
            assert isinstance(result, _TaskResult)
            self.telemetry.tracer.graft(result.spans, parent_id=parent_id)
            for event_kind, payload in result.events:
                self._apply_event(event_kind, payload)
            tasks.batch_group_count += result.batch_groups
            output = result.output
            events = list(result.events)
            if result.kind == "phase":
                machine_id = result.key.split("/", 1)[1]
                traces, candidates = cast(_PhaseOut, output)
                old_traces, old_candidates = tasks.phase_out.get(machine_id, ([], []))
                tasks.phase_out[machine_id] = (
                    old_traces + traces, old_candidates + candidates,
                )
                events = tasks.task_events.get(result.key, []) + events
                self._scored_jobs[machine_id] = len(self.dataset.machine(machine_id).jobs)
            elif result.kind == "env":
                tasks.env_out[result.key.split("/", 1)[1]] = output
            elif result.kind == "job":
                tasks.job_out = output
            elif result.kind == "line":
                tasks.line_out[result.key.split("/", 1)[1]] = output
            elif result.kind == "production":
                tasks.production_out = output
            else:  # pragma: no cover - graph construction is exhaustive
                raise ValueError(f"unknown task kind {result.kind!r}")
            tasks.task_events[result.key] = events

    # ------------------------------------------------------------------
    # the scored plant: assemble, health replay, indexes
    # ------------------------------------------------------------------
    def _assemble(self) -> ScoredPlant:
        """Derive the plant's score stores from the per-task outputs.

        Iterates machines and lines in dataset order — the same order the
        full graph inserts tasks — so an incremental refresh (which
        overwrites only the dirty tasks' outputs) reassembles traces and
        candidates in exactly the order a cold build would have produced.
        """
        tasks = self._tasks
        plant = ScoredPlant()
        for machine in self.dataset.iter_machines():
            phase_out = tasks.phase_out.get(machine.machine_id)
            if phase_out is None:
                continue
            traces, candidates = phase_out
            for sensor_id, trace in traces:
                plant.traces.setdefault(sensor_id, []).append(trace)
            plant.phase_candidates.extend(candidates)
        for line in self.dataset.lines:
            output = tasks.env_out.get(line.line_id)
            if output is None:
                continue
            env_traces, ids = cast(
                Tuple[List[Tuple[str, _Trace]], List[str]], output
            )
            for channel_id, trace in env_traces:
                plant.traces.setdefault(channel_id, []).append(trace)
            plant.env_channels[line.line_id] = list(ids)
        sigma = self.config.vector_sigma
        if tasks.job_out is not None:
            job_keys, scores, plant.job_detector = cast(
                Tuple[Tuple[Tuple[str, int], ...], np.ndarray, str], tasks.job_out
            )
            plant.job_scores, plant.job_unified, plant.job_flags = _level_tables(
                job_keys, scores, sigma
            )
        self._finalize_line_level(
            plant,
            [
                cast(
                    Tuple[Tuple[Tuple[str, int], ...], np.ndarray],
                    tasks.line_out[line.line_id],
                )
                for line in self.dataset.lines
                if line.line_id in tasks.line_out
            ],
        )
        if tasks.production_out is not None:
            machine_ids, scores = cast(
                Tuple[Tuple[str, ...], np.ndarray], tasks.production_out
            )
            plant.machine_scores, plant.machine_unified, plant.machine_flags = (
                _level_tables(machine_ids, scores, sigma)
            )
        return plant

    def _finalize_line_level(
        self,
        plant: ScoredPlant,
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
        plant.line_scores, plant.line_unified, plant.line_flags = _level_tables(
            [key for key, __ in all_scores],
            np.array([s for __, s in all_scores]),
            self.config.vector_sigma,
        )

    def _rebuild_health(self, traces: Dict[str, List[_Trace]]) -> RunHealth:
        """Rebuild the health record by replaying cached task events.

        Replay happens in canonical full-graph insertion order over every
        task's *current* event list, so after a refresh the health record
        is byte-identical to a cold build on the mutated dataset: re-run
        tasks contribute their fresh events exactly once, untouched tasks
        contribute their retained events, and first-wins/dedup semantics
        of :class:`RunHealth` see the same sequence either way.
        """
        health = RunHealth()
        for __, key, __ in self._task_order():
            for event_kind, payload in self._tasks.task_events.get(key, ()):
                self._apply_event(event_kind, payload, health)
        self._flag_dead_channels(health, traces)
        return health

    def _apply_event(
        self, kind: str, payload: object, health: Optional[RunHealth] = None
    ) -> None:
        """Replay one worker-recorded side effect on the main process.

        Event replay happens in graph insertion order, so the resulting
        health record (which is insertion-ordered and first-wins for
        warnings) is identical to the serial pipeline's regardless of the
        executor or scheduling order.  Without ``health`` the event fires
        its instruments (metrics, logs, deferred detector observations),
        once per *execution* during the merge; with it, the event is
        recorded into ``health`` during :meth:`_rebuild_health` replay — a
        refreshed task's events re-count as work done without ever
        duplicating health records.
        """
        if kind == "quarantine":
            channel_id, scope, reason, timestamp = cast(
                Tuple[str, str, str, Optional[float]], payload
            )
            if health is not None:
                health.record_quarantine(channel_id, scope, reason)
            else:
                self._m_quarantines.inc(scope="trace")
                self.telemetry.warning(
                    f"quarantined {channel_id} [{scope}]: {reason}",
                    channel_id=channel_id,
                    scope=scope,
                    timestamp=timestamp,
                )
        elif kind == "warn":
            if health is not None:
                health.warn(cast(str, payload))
        elif kind == "fallback":
            event = cast(FallbackEvent, payload)
            if health is not None:
                health.record_fallback(event)
            else:
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
            if health is not None:
                health.note_level(
                    level_name, "scored with the terminal robust baseline"
                )
            else:
                self.telemetry.warning(
                    f"level {level_name} scored with the terminal robust baseline",
                    level=level_name,
                )
        elif kind == "obs":
            if health is None:
                self._tasks.pending_detector_obs.append(
                    cast(Tuple[str, str, bool, float], payload)
                )
        else:  # pragma: no cover - the worker emits a closed event set
            raise ValueError(f"unknown task event {kind!r}")

    def _flag_dead_channels(
        self, health: RunHealth, traces: Dict[str, List[_Trace]]
    ) -> None:
        """Channels with zero surviving traces are quarantined wholesale.

        These are the sensors the support divisor must renormalize over:
        with no usable trace anywhere they cannot vote, and the explicit
        ``scope="channel"`` record feeds :attr:`RunHealth.dead_channels`
        (belt and braces on top of the lookup's natural None-vote).  The
        health record is re-derived on every :meth:`_rebuild_health`, but
        the channel-death metric and log line fire once per channel per
        context lifetime — refreshes must not re-count a death already
        reported."""
        for channel_id in sorted({q.channel_id for q in health.quarantines}):
            if not traces.get(channel_id):
                health.record_quarantine(
                    channel_id, "channel",
                    "no usable trace survived the quality gate",
                )
                if channel_id in self._tasks.dead_metric_emitted:
                    continue
                self._tasks.dead_metric_emitted.add(channel_id)
                self._m_quarantines.inc(scope="channel")
                self.telemetry.warning(
                    f"dead channel {channel_id}: no usable trace survived "
                    "the quality gate; removed from the support divisor",
                    channel_id=channel_id,
                    scope="channel",
                )

    def _build_indexes(self, plant: ScoredPlant) -> None:
        """Precompute the lookup structures behind ``confirm``/``support``.

        Everything here is a pure function of the scored dataset, so it is
        built once per engine run and shared by every query: only the
        per-candidate memoization is the context's.
        """
        # per-line job interval index, sorted by start with a running max
        # end: bisect + short backward scan finds every job covering a time
        for line in self.dataset.lines:
            spans = self.dataset.job_intervals(line.line_id)
            starts = [s[0] for s in spans]
            run_max_end: List[float] = []
            peak = -math.inf
            for __, end, __, __ in spans:
                peak = max(peak, end)
                run_max_end.append(peak)
            plant.job_intervals[line.line_id] = (starts, run_max_end, spans)
        # per-channel traces sorted by start so one bisect finds the cover
        for channel_id, traces in plant.traces.items():
            traces.sort(key=lambda t: t.start)
            plant.trace_starts[channel_id] = [t.start for t in traces]
        for c in plant.phase_candidates:
            plant.phase_by_machine.setdefault(c.machine_id, []).append(c)
            plant.phase_by_machine_job.setdefault(
                (c.machine_id, c.job_index), []
            ).append(c)
        plant.phase_scores_sorted = np.sort(
            np.array([c.outlierness for c in plant.phase_candidates], dtype=float)
        )
        # The lookup closes over the trace dicts, not over the plant or
        # this runner: a bound method here would make every context a
        # reference cycle that only the cyclic GC frees.
        plant.support_calc = SupportCalculator(
            self._graph,
            functools.partial(_trace_at, plant.traces, plant.trace_starts),
            tolerance=self.config.support_tolerance,
            # renormalized divisor: fully-quarantined channels do not vote
            excluded=plant.health.dead_channels,
        )

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def _init_instruments(self) -> None:
        """Register the build's metric instruments (no-ops when disabled)."""
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
            "Task-payload bytes pickled per engine run (0 when workers "
            "inherit their payloads by fork, and on serial runs).",
            labelnames=("mode",),
        )

    def _publish_engine_metrics(self) -> None:
        """Emit the cost counters of the last engine run (after the cold
        build, a snapshot restore and every refresh)."""
        es = self.engine_stats()
        for kind, latencies in sorted(_by_kind(es.task_seconds).items()):
            self._m_tasks.inc(len(latencies), kind=kind)
            self._m_task_latency.observe_many(latencies, kind=kind)
        self._m_queue_depth.set(float(es.max_queue_depth))
        self._m_parallel_workers.set(float(es.workers), executor=es.executor)
        speedup = es.speedup
        if speedup is not None and math.isfinite(speedup):
            self._m_parallel_speedup.set(speedup)
        for kind, seconds in sorted(_by_kind(es.task_cpu_seconds).items()):
            self._m_perf_cpu.observe_many(seconds, kind=kind)
        for kind, peaks in sorted(_by_kind(es.task_peak_alloc).items()):
            self._m_perf_alloc.observe_many(peaks, kind=kind)
        utilization = es.cpu_utilization
        if math.isfinite(utilization):
            self._m_perf_utilization.set(utilization)
        self._m_transport_bytes.set(float(es.bytes_pickled), mode="pickled")

    def flush_detector_observations(self) -> None:
        """Fold deferred detector observations into the metrics registry.

        Batching keeps registry lookups and histogram label resolution off
        the per-detector hot path: counts aggregate in plain dicts here and
        land with one ``inc``/``observe_many`` per label set.
        """
        pending = self._tasks.pending_detector_obs
        if not pending:
            return
        self._tasks.pending_detector_obs = []
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
