"""The Algorithm-1 context over a scored plant.

One decision lives here: how Algorithm 1's queries (``find_candidates``,
``confirm``, ``support``) are answered over the
:class:`~repro.core.runner.ScoredPlant`, and how long answers are kept.
They are memoized on the candidate's canonical
:attr:`~repro.core.OutlierCandidate.key` (counters via
:meth:`PlantHierarchyContext.stats`); :meth:`PlantHierarchyContext.refresh`
evicts only what a job ingest can have changed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..obs import Telemetry
from ..obs.metrics import UNIT_BUCKETS
from ..plant import LineRecord, PlantDataset
from .algorithm import HierarchyContext
from .levels import ProductionLevel
from .outlier import LevelConfirmation, OutlierCandidate
from .parallel import EngineStats
from .resilience import RunHealth
from .runner import LevelRunner, _copied, _trace_at
from .selection import AlgorithmSelector
from .support import SupportResult, window_bounds
from .tasks import _peak_indices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .pipeline import PipelineConfig

#: Version tag of the nested dict returned by ``stats()`` (see
#: docs/OBSERVABILITY.md for the full schema).
STATS_SCHEMA = "repro.stats/4"

#: The memo tables, in the order ``stats()`` lists them.
_MEMO_TABLES = ("confirm", "support", "candidate_time", "find_candidates")


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


# no eq/repr on the section records: nothing compares or prints them, and
# each generated method costs import time on the cold path
@dataclass(eq=False, repr=False)
class _Memo:
    """The memo tables and their counters: the ``caches`` snapshot
    section, field by field."""

    confirm: Dict[Tuple, LevelConfirmation] = field(default_factory=dict)
    support: Dict[Tuple, SupportResult] = field(default_factory=dict)
    candidate_time: Dict[Tuple, Optional[float]] = field(default_factory=dict)
    candidates: Dict[ProductionLevel, List[OutlierCandidate]] = field(default_factory=dict)
    stats: PipelineStats = field(default_factory=PipelineStats)


@dataclass(eq=False, repr=False)
class _Incremental:
    """The executor-invariant refresh counters of ``stats()``: the
    ``incremental`` snapshot section, field by field."""

    refreshes: int = 0
    dirty_jobs: int = 0
    dirty_tasks: int = 0
    evicted: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(_MEMO_TABLES, 0))
    retained: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(_MEMO_TABLES, 0))


class PlantHierarchyContext(HierarchyContext):
    """Hierarchy oracle over one plant dataset (see module docstring)."""

    def __init__(
        self,
        dataset: PlantDataset,
        selector: Optional[AlgorithmSelector] = None,
        config: Optional["PipelineConfig"] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._init_state(dataset, selector, config, telemetry)
        self._plant = self._runner.run(
            "pipeline.build", self._runner.task_graph(), self.config.executor
        )

    def _init_state(
        self,
        dataset: PlantDataset,
        selector: Optional[AlgorithmSelector],
        config: Optional["PipelineConfig"],
        telemetry: Optional[Telemetry],
    ) -> None:
        """Everything ``__init__`` sets up *before* any scoring runs.

        Shared by the cold build and the checkpoint restore path
        (:meth:`_from_snapshot_state`), which has the runner install
        snapshotted task outputs instead of running the scoring tasks.
        """
        if config is None:
            from .pipeline import PipelineConfig  # that module imports this one

            config = PipelineConfig()
        self.dataset = dataset
        self.selector = selector or AlgorithmSelector()
        self.config = config
        self._runner = LevelRunner(dataset, self.selector, config, telemetry)
        self.telemetry = self._runner.telemetry
        # line / machine resolution: O(1) dict hits instead of line scans
        self._line_by_id = {line.line_id: line for line in dataset.lines}
        self._machine_line = {
            m.machine_id: line for line in dataset.lines for m in line.machines
        }
        m = self.telemetry.metrics
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
        self._incr_instruments_ready = False
        self._memo = _Memo()
        self._incr = _Incremental()

    # ------------------------------------------------------------------
    # checkpoint snapshot / restore (see repro.core.checkpoint)
    # ------------------------------------------------------------------
    def _snapshot_watermark(self) -> List[Tuple[str, int]]:
        return self._runner.snapshot_watermark()

    def _snapshot_sections(self) -> Dict[str, object]:
        """The ``tasks``, ``caches`` and ``incremental`` snapshot sections."""
        return {
            "tasks": self._runner.snapshot_state(),
            "caches": _copied(vars(self._memo)),
            "incremental": _copied(vars(self._incr)),
        }

    @classmethod
    def _from_snapshot_state(
        cls,
        dataset: PlantDataset,
        sections: Dict[str, object],
        selector: Optional[AlgorithmSelector] = None,
        config: Optional["PipelineConfig"] = None,
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
        self._memo = _Memo(**_copied(sections["caches"]))
        self._incr = _Incremental(**_copied(sections["incremental"]))
        self._plant = self._runner.restore(sections["tasks"])
        return self

    # ------------------------------------------------------------------
    # the scored plant and its counters
    # ------------------------------------------------------------------
    @property
    def health(self) -> RunHealth:
        """Structured degradation record of the scored plant."""
        return self._plant.health

    def engine_stats(self) -> EngineStats:
        """The runner's :meth:`~repro.core.runner.LevelRunner.engine_stats`."""
        return self._runner.engine_stats()

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
            "cache": self._memo.stats.as_nested(),
            "health": {
                "degraded": health.degraded,
                "fallbacks": len(health.fallbacks),
                "quarantines": len(health.quarantines),
                "dead_channels": len(health.dead_channels),
                "warnings": len(health.warnings),
                "degraded_levels": len(health.level_notes),
            },
            "parallel": self._runner.parallel_stats(),
            "incremental": asdict(self._incr),
        }

    def publish_stats(self) -> None:
        """Fold the :meth:`stats` tree into the metrics registry.

        Cache and health counters become ``repro_stats_*`` gauges plus a
        ``repro_cache_hit_ratio{cache=...}`` gauge per memo table, so one
        Prometheus scrape carries the whole run story.
        """
        self._runner.flush_detector_observations()
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

    # ------------------------------------------------------------------
    # incremental recomputation (see DESIGN §10)
    # ------------------------------------------------------------------
    def refresh(self) -> Dict[str, object]:
        """Incrementally re-score the dirty closure after job ingests.

        Consumes the dataset's dirty set (jobs appended through
        :meth:`~repro.plant.PlantDataset.ingest_job`), maps every dirty
        job to the tasks whose payload it changes (its dirty closure) —
        its machine's phase task, the ``job`` table, its line's
        jobs-over-time task, and ``production`` — has the runner re-run
        exactly those tasks inline on the serial engine, whatever the
        configured executor (DESIGN §10), and reassemble the scored plant
        from the persisted outputs of every untouched task.  The phase
        task scores only the machine's jobs its stored outputs do not
        cover yet (the newly ingested ones) and its outputs are appended;
        the vector tasks rescore every job.  Cache entries are then
        evicted *scoped*: only what the dirty closure can have changed
        (see :meth:`_evict_dirty`).

        The contract is the one the parallel engine established: after a
        refresh, reports and health are byte-identical to a cold build on
        the mutated dataset, on every executor.  Returns a summary dict
        (dirty jobs/tasks and their keys, evicted/retained cache entries,
        engine wall seconds); with nothing ingested it has the same keys,
        empty or zero.
        """
        dirty = self.dataset.consume_dirty()
        if not dirty:
            return {"dirty_jobs": 0, "dirty_tasks": 0, "task_keys": [], "evicted": {},
                    "retained": {}, "wall_seconds": 0.0}
        # a long-lived pipeline keeps the span trees of its latest refresh
        # and run only (docs/OBSERVABILITY.md, "Span retention")
        self.telemetry.tracer.drop_trees(("pipeline.refresh", "alg1.run"))
        self._ensure_incremental_instruments()
        dirty_machines: List[str] = []
        for machine_id, __ in dirty:
            if machine_id not in dirty_machines:
                dirty_machines.append(machine_id)
        old_phase_scores = self._plant.phase_scores_sorted
        old_dead = set(self.health.dead_channels)
        # A new job changes its machine's phase task, the job table, its
        # line's jobs-over-time matrix and the production panel; environment
        # tasks read no jobs.
        closure = {"job", "production"}
        for machine_id in dirty_machines:
            closure.add(f"phase/{machine_id}")
            closure.add(f"line/{self.dataset.line_of(machine_id).line_id}")
        tasks = self._runner.task_graph(only=closure)
        self._plant = self._runner.run("pipeline.refresh", tasks, "serial", self._plant)
        phase_changed = not np.array_equal(
            old_phase_scores, self._plant.phase_scores_sorted
        )
        dead_changed = old_dead != set(self.health.dead_channels)
        evicted, retained = self._evict_dirty(
            dirty_machines, phase_changed=phase_changed, dead_changed=dead_changed
        )
        incr = self._incr
        incr.refreshes += 1
        incr.dirty_jobs += len(dirty)
        incr.dirty_tasks += len(tasks)
        for table, n in evicted.items():
            incr.evicted[table] += n
        for table, n in retained.items():
            incr.retained[table] += n
        self._publish_incremental_metrics(dirty, tasks, evicted, retained)
        return {
            "dirty_jobs": len(dirty),
            "dirty_tasks": len(tasks),
            "task_keys": list(tasks),
            "evicted": evicted,
            "retained": retained,
            "wall_seconds": self.engine_stats().wall_seconds,
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
        memo = self._memo
        evicted = dict.fromkeys(_MEMO_TABLES, 0)
        dirty_set = set(dirty_machines)
        vector_levels = (
            ProductionLevel.JOB,
            ProductionLevel.PRODUCTION_LINE,
            ProductionLevel.PRODUCTION,
        )
        for key in list(memo.confirm):
            __, level = key
            if level in vector_levels or (
                phase_changed and level is ProductionLevel.PHASE
            ):
                del memo.confirm[key]
                evicted["confirm"] += 1
        if dead_changed:
            evicted["support"] = len(memo.support)
            memo.support.clear()
        for key in list(memo.candidate_time):
            if key[1] in dirty_set:
                del memo.candidate_time[key]
                evicted["candidate_time"] += 1
        for level in list(memo.candidates):
            if level is not ProductionLevel.ENVIRONMENT:
                del memo.candidates[level]
                evicted["find_candidates"] += 1
        retained = {
            "confirm": len(memo.confirm),
            "support": len(memo.support),
            "candidate_time": len(memo.candidate_time),
            "find_candidates": len(memo.candidates),
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
        tasks: Mapping[str, object],
        evicted: Dict[str, int],
        retained: Dict[str, int],
    ) -> None:
        self._m_incr_refreshes.inc()
        self._m_incr_dirty_jobs.inc(len(dirty))
        kinds: Dict[str, int] = {}
        for key in tasks:
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
        self._m_incr_latency.observe(max(0.0, self.engine_stats().wall_seconds))

    # ------------------------------------------------------------------
    # trace lookup (support + environment confirmation)
    # ------------------------------------------------------------------
    def _candidate_time(self, candidate: OutlierCandidate) -> Optional[float]:
        memo = self._memo
        memo.stats.candidate_time_calls += 1
        key = candidate.key
        if key in memo.candidate_time:
            memo.stats.candidate_time_hits += 1
            return memo.candidate_time[key]
        time = self._candidate_time_uncached(candidate)
        memo.candidate_time[key] = time
        return time

    def _candidate_time_uncached(self, candidate: OutlierCandidate) -> Optional[float]:
        plant = self._plant
        if candidate.index is not None and "/env/" in candidate.sensor_id:
            # environment candidates live on the line-wide trace (one per
            # channel, so the first-match scan looks at one trace)
            for trace in plant.traces.get(candidate.sensor_id, ()):
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
        trace = plant.traces.get(candidate.sensor_id)
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
        memo = self._memo
        memo.stats.find_candidates_calls += 1
        cached = memo.candidates.get(level)
        if cached is not None:
            memo.stats.find_candidates_hits += 1
            return list(cached)
        with self.telemetry.tracer.span(
            "find_candidates", level=level.name
        ) as sp:
            result = self._find_candidates_uncached(level)
            sp.set(n_candidates=len(result))
        self._m_candidates.inc(len(result), level=level.name)
        memo.candidates[level] = result
        return list(result)

    def _find_candidates_uncached(
        self, level: ProductionLevel
    ) -> List[OutlierCandidate]:
        plant = self._plant
        if level is ProductionLevel.PHASE:
            return list(plant.phase_candidates)
        if level is ProductionLevel.JOB:
            return [
                OutlierCandidate(
                    level=level,
                    outlierness=plant.job_scores[key],
                    machine_id=key[0],
                    job_index=key[1],
                    detector=plant.job_detector,
                )
                for key in sorted(plant.job_flags)
            ]
        if level is ProductionLevel.ENVIRONMENT:
            out = []
            for line in self.dataset.lines:
                for channel_id in plant.env_channels[line.line_id]:
                    for trace in plant.traces.get(channel_id, ()):
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
                    outlierness=plant.line_scores[key],
                    machine_id=key[0],
                    job_index=key[1],
                )
                for key in sorted(plant.line_flags)
            ]
        if level is ProductionLevel.PRODUCTION:
            return [
                OutlierCandidate(
                    level=level,
                    outlierness=plant.machine_scores[m],
                    machine_id=m,
                )
                for m in sorted(plant.machine_flags)
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
        starts, run_max_end, spans = self._plant.job_intervals[line.line_id]
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
        plant = self._plant
        if level is ProductionLevel.JOB:
            keys = self._jobs_in_window(candidate)
            hits = [k for k in keys if k in plant.job_flags]
            best = max((plant.job_unified.get(k, 0.0) for k in keys), default=0.0)
            return LevelConfirmation(
                level, bool(hits), best,
                note=f"{len(hits)} concurrent job(s) flagged" if hits else "",
            )
        if level is ProductionLevel.PRODUCTION_LINE:
            keys = self._jobs_in_window(candidate)
            hits = [k for k in keys if k in plant.line_flags]
            best = max((plant.line_unified.get(k, 0.0) for k in keys), default=0.0)
            return LevelConfirmation(level, bool(hits), best)
        if level is ProductionLevel.PRODUCTION:
            line = self._line_of_candidate(candidate)
            machines = [m.machine_id for m in line.machines] if line else []
            hits = [m for m in machines if m in plant.machine_flags]
            best = max(
                (plant.machine_unified.get(m, 0.0) for m in machines), default=0.0
            )
            return LevelConfirmation(level, bool(hits), best)
        raise ValueError(f"unexpected line-scoped level {level!r}")

    def confirm(self, candidate: OutlierCandidate,
                level: ProductionLevel) -> LevelConfirmation:
        memo = self._memo
        memo.stats.confirm_calls += 1
        key = (candidate.key, level)
        cached = memo.confirm.get(key)
        if cached is not None:
            memo.stats.confirm_hits += 1
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
        memo.confirm[key] = result
        return result

    def _confirm_uncached(self, candidate: OutlierCandidate,
                          level: ProductionLevel) -> LevelConfirmation:
        plant = self._plant
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
            detected = key in plant.job_flags
            return LevelConfirmation(
                level, detected, plant.job_unified.get(key, 0.0),
                note="CAQ+setup row flagged" if detected else "job row normal",
            )
        if level is ProductionLevel.ENVIRONMENT:
            return self._confirm_environment(candidate)
        if level is ProductionLevel.PRODUCTION_LINE:
            detected = key in plant.line_flags
            return LevelConfirmation(
                level, detected, plant.line_unified.get(key, 0.0),
                note="jobs-over-time row flagged" if detected else "",
            )
        if level is ProductionLevel.PRODUCTION:
            detected = candidate.machine_id in plant.machine_flags
            return LevelConfirmation(
                level, detected,
                plant.machine_unified.get(candidate.machine_id, 0.0),
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
        plant = self._plant
        tol = max(self.config.support_tolerance, 4.0)
        best = 0.0
        detected = False
        for channel_id in plant.env_channels[line.line_id]:
            entry = _trace_at(plant.traces, plant.trace_starts, channel_id, time)
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
        cached = self._plant.trace_stats.get(key)
        if cached is None:
            med = float(np.median(scores))
            spread = float(np.median(np.abs(scores - med))) * 1.4826 or 1.0
            cached = (med, spread)
            self._plant.trace_stats[key] = cached
        return cached

    def _confirm_phase(self, candidate: OutlierCandidate) -> LevelConfirmation:
        level = ProductionLevel.PHASE
        plant = self._plant
        line = self._line_of_candidate(candidate)
        line_machines = (
            {m.machine_id for m in line.machines} if line is not None else set()
        )
        if candidate.machine_id in line_machines or line is None:
            # machine-scoped candidate: match its machine (and job when known)
            if candidate.job_index is None:
                matches = plant.phase_by_machine.get(candidate.machine_id, [])
            else:
                matches = plant.phase_by_machine_job.get(
                    (candidate.machine_id, candidate.job_index), []
                )
        else:
            # line-scoped candidate (environment level): any machine of the
            # line with a phase-level sighting near the candidate's time
            time = self._candidate_time(candidate)
            tol = max(self.config.support_tolerance * 4, 32.0)
            matches = []
            for machine in line.machines:
                for c in plant.phase_by_machine.get(machine.machine_id, ()):
                    c_time = self._candidate_time(c)
                    if time is None or c_time is None or abs(c_time - time) <= tol:
                        matches.append(c)
        if not matches:
            return LevelConfirmation(level, False, 0.0, note="no phase anomaly")
        best = max(c.outlierness for c in matches)
        # rank of `best` among all phase scores == (scores <= best).mean()
        n = len(plant.phase_scores_sorted)
        unified = float(
            np.searchsorted(plant.phase_scores_sorted, best, side="right")
        ) / n
        return LevelConfirmation(
            level, True, unified,
            note=f"{len(matches)} phase-level candidate(s) in job",
        )

    def support(self, candidate: OutlierCandidate) -> SupportResult:
        memo = self._memo
        memo.stats.support_calls += 1
        key = candidate.key
        cached = memo.support.get(key)
        if cached is not None:
            memo.stats.support_hits += 1
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
        memo.support[key] = result
        return result

    def _support_uncached(self, candidate: OutlierCandidate) -> SupportResult:
        if not candidate.sensor_id:
            return SupportResult(0.0, 0, ())
        time = self._candidate_time(candidate)
        if time is None:
            return SupportResult(0.0, 0, ())
        return self._plant.support_calc.support_for(candidate.sensor_id, time)

    @property
    def phase_candidates(self) -> List[OutlierCandidate]:
        """Every phase-level candidate of the scored plant, in task order."""
        return list(self._plant.phase_candidates)
