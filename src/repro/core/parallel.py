"""Parallel level-DAG execution engine for the hierarchical pipeline.

Section 5 of the paper singles out *calculation speed* as a core
challenge of hierarchical outlier detection.  The scoring work of one
plant run decomposes naturally into a small DAG — phase scoring per
machine, environment scoring per line, the global job table, the per-line
jobs-over-time matrices, and the production panel — and the tasks inside
one level are embarrassingly parallel.  This module provides the generic
machinery; :mod:`repro.core.pipeline` builds the concrete graph.

Design constraints, in order:

* **determinism first** — results are merged *by task key in graph
  insertion order*, never in completion order, and a task's result is
  a function of its payload alone; the serial and process executors
  therefore produce bit-identical pipeline results;
* **one construction site** — this module is the only place in
  ``src/repro`` allowed to construct a ``ProcessPoolExecutor``
  (enforced statically by repro-lint rule DET005), so executor policy,
  worker sizing, and shutdown discipline live in exactly one file;
* **measurable** — :class:`EngineStats` records per-task wall latency,
  the maximum number of simultaneously ready tasks (queue depth), and
  the speedup over a measured serial baseline (None when a parallel run
  has none) the pipeline folds into metrics.

The worker callable passed to :meth:`ParallelEngine.run` must be a
module-level function (or a :func:`functools.partial` of one) when the
``process`` executor is used — it crosses the pickle boundary.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Task",
    "TaskGraph",
    "EngineStats",
    "ParallelEngine",
    "EXECUTORS",
    "resolve_workers",
]

#: The configurable executor kinds (``PipelineConfig.executor``).
EXECUTORS: Tuple[str, ...] = ("serial", "process")


def resolve_workers(executor: str, max_workers: Optional[int]) -> int:
    """Worker count for an executor: explicit cap, else auto from the host.

    Auto-sizing prefers the scheduling affinity mask (container CPU
    quotas) over the raw core count; the serial executor always reports
    a single worker.
    """
    if executor == "serial":
        return 1
    if max_workers is not None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        return int(max_workers)
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux: no affinity API
        available = os.cpu_count() or 1
    return max(1, available)


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``deps`` name tasks that must complete before this one may start;
    they must already be in the graph when the task is added, which
    keeps every :class:`TaskGraph` topologically ordered by construction.
    """

    key: str
    payload: object
    deps: Tuple[str, ...] = ()


class TaskGraph:
    """An insertion-ordered DAG of :class:`Task` objects.

    Insertion order is the canonical merge order: the engine returns
    results keyed and ordered by it, so replaying side effects over the
    result dict reproduces the serial pipeline's event sequence exactly.
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, Task] = {}

    def add(self, task: Task) -> None:
        if task.key in self._tasks:
            raise ValueError(f"duplicate task key {task.key!r}")
        for dep in task.deps:
            if dep not in self._tasks:
                raise ValueError(
                    f"task {task.key!r} depends on unknown task {dep!r} "
                    "(dependencies must be added first)"
                )
        self._tasks[task.key] = task

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self):  # type: ignore[no-untyped-def]  # Iterator[Task]
        return iter(self._tasks.values())

    def __contains__(self, key: str) -> bool:
        return key in self._tasks

    @property
    def keys(self) -> List[str]:
        return list(self._tasks)

    @property
    def n_edges(self) -> int:
        return sum(len(t.deps) for t in self._tasks.values())


@dataclass
class EngineStats:
    """What one engine run cost, and how parallel it actually was.

    Besides wall latency the engine attributes per-task CPU seconds
    (``time.thread_time`` where available, else ``time.process_time``)
    and — when allocation capture is on — the peak ``tracemalloc``
    allocation inside each task.  All of it is measured *inside* the
    worker, so IPC and queue wait never pollute the attribution.

    Instances travel inside checkpoint snapshots; accessors tolerate
    unpickled instances from snapshots taken before the CPU/allocation
    fields existed.
    """

    executor: str
    workers: int
    n_tasks: int = 0
    wall_seconds: float = 0.0
    task_seconds: Dict[str, float] = field(default_factory=dict)
    max_queue_depth: int = 0
    task_cpu_seconds: Dict[str, float] = field(default_factory=dict)
    task_peak_alloc: Dict[str, int] = field(default_factory=dict)
    #: Measured task time of a same-run serial baseline, when one exists
    #: (the speedup benchmark runs serial first and stamps it onto the
    #: parallel legs).  Unset, a serial run is its own baseline and a
    #: parallel run has no :attr:`speedup`.
    serial_baseline_seconds: Optional[float] = None
    #: Transport accounting (process executor): payload bytes that crossed
    #: the pickle boundary vs. bytes served via the shared-memory arena,
    #: plus the encode (publish) and per-task decode (attach+read) costs.
    bytes_pickled: int = 0
    bytes_shared: int = 0
    transport_encode_seconds: float = 0.0
    task_transport_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def compute_seconds(self) -> float:
        """Summed in-worker task latencies (the serial-equivalent cost)."""
        return float(sum(self.task_seconds.values()))

    @property
    def speedup(self) -> Optional[float]:
        """Measured serial baseline over wall: > 1 under effective parallelism.

        One definition everywhere: the baseline is a *measured* serial
        task time — ``serial_baseline_seconds`` when a caller stamped one
        (``benchmarks/test_bench_parallel_speedup.py`` stamps the serial
        leg's task time onto the process leg); a serial run is its own
        measured baseline.  A parallel run without a stamped baseline has
        no speedup (None): its summed in-worker task seconds are no serial
        baseline (workers that share cores each run slower), so dividing
        them by wall would overstate the gain.
        """
        baseline = getattr(self, "serial_baseline_seconds", None)
        if baseline is None:
            if self.executor != "serial":
                return None
            baseline = self.compute_seconds
        if self.wall_seconds <= 0.0:
            return 0.0
        return float(baseline) / self.wall_seconds

    @property
    def transport_decode_seconds(self) -> float:
        """Summed per-task shared-memory decode cost (0.0 off the shm path)."""
        return float(sum(getattr(self, "task_transport_seconds", {}).values()))

    @property
    def cpu_seconds(self) -> float:
        """Summed in-worker CPU seconds across all tasks."""
        return float(sum(getattr(self, "task_cpu_seconds", {}).values()))

    @property
    def cpu_utilization(self) -> float:
        """CPU seconds per wall second (an executor-efficiency signal)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cpu_seconds / self.wall_seconds

    def top_tasks(self, k: int = 10) -> List[Dict[str, object]]:
        """Top-``k`` tasks by wall latency, with CPU/alloc attribution.

        The rows behind ``repro perf report``: task key, level kind,
        wall seconds, plus ``cpu_seconds`` / ``peak_alloc_bytes`` where
        captured.
        """
        cpu = getattr(self, "task_cpu_seconds", {})
        alloc = getattr(self, "task_peak_alloc", {})
        ordered = sorted(self.task_seconds.items(), key=lambda kv: (-kv[1], kv[0]))
        rows: List[Dict[str, object]] = []
        for key, wall in ordered[: max(0, int(k))]:
            row: Dict[str, object] = {
                "task": key,
                "kind": key.split("/", 1)[0],
                "wall_seconds": wall,
            }
            if key in cpu:
                row["cpu_seconds"] = cpu[key]
            if key in alloc:
                row["peak_alloc_bytes"] = int(alloc[key])
            rows.append(row)
        return rows

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary for run manifests."""
        baseline = getattr(self, "serial_baseline_seconds", None)
        return {
            "executor": self.executor,
            "workers": self.workers,
            "tasks": self.n_tasks,
            "wall_seconds": self.wall_seconds,
            "compute_seconds": self.compute_seconds,
            "speedup": self.speedup,
            "serial_baseline_seconds": None if baseline is None else float(baseline),
            "max_queue_depth": self.max_queue_depth,
            "cpu_seconds": self.cpu_seconds,
            "cpu_utilization": self.cpu_utilization,
            "alloc_tracked": bool(getattr(self, "task_peak_alloc", {})),
            "transport": {
                "mode": "shm" if getattr(self, "bytes_shared", 0) else "pickle",
                "bytes_pickled": int(getattr(self, "bytes_pickled", 0)),
                "bytes_shared": int(getattr(self, "bytes_shared", 0)),
                "encode_seconds": float(getattr(self, "transport_encode_seconds", 0.0)),
                "decode_seconds": self.transport_decode_seconds,
            },
            "top_tasks": self.top_tasks(),
        }


#: In-worker CPU clock: per-thread where the platform has one; process
#: workers are effectively single-threaded, so the process-wide fallback
#: is equivalent there.
_cpu_clock: Callable[[], float] = getattr(time, "thread_time", time.process_time)


def _timed_call(
    worker: Callable[[object], object], payload: object, capture_alloc: bool = False
) -> Tuple[object, float, float, int]:
    """Run one task in the worker, timing it locally.

    Module-level so it pickles for the process executor; timing inside
    the worker keeps IPC/queue wait out of the compute-seconds estimate.
    Returns ``(result, wall_seconds, cpu_seconds, peak_alloc_bytes)``;
    peak allocation is ``-1`` unless ``capture_alloc`` asked tracemalloc
    to watch the call (opt-in — tracing every allocation is far too slow
    to leave on by default).
    """
    peak = -1
    tracing_already = False
    if capture_alloc:
        import tracemalloc

        tracing_already = tracemalloc.is_tracing()
        if not tracing_already:
            tracemalloc.start()
        tracemalloc.reset_peak()
    started_cpu = _cpu_clock()
    started = time.perf_counter()
    result = worker(payload)
    elapsed = time.perf_counter() - started
    cpu = _cpu_clock() - started_cpu
    if capture_alloc:
        import tracemalloc

        peak = tracemalloc.get_traced_memory()[1]
        if not tracing_already:
            tracemalloc.stop()
    return result, elapsed, cpu, peak


class ParallelEngine:
    """Schedules a :class:`TaskGraph` onto a configurable executor.

    ``executor`` is one of :data:`EXECUTORS`; ``max_workers`` caps the
    pool (default: auto-sized, see :func:`resolve_workers`).  ``clock``
    measures engine wall time and is injectable for tests.
    ``capture_alloc`` additionally records each task's peak tracemalloc
    allocation (opt-in: tracing allocations is expensive).

    :meth:`run` returns ``(results, stats)`` where ``results`` maps task
    key to worker return value **in graph insertion order** regardless of
    completion order — the determinism contract callers merge against.
    """

    def __init__(
        self,
        executor: str = "serial",
        max_workers: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
        capture_alloc: bool = False,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.executor = executor
        self.workers = resolve_workers(executor, max_workers)
        self._clock = clock
        self.capture_alloc = bool(capture_alloc)

    def run(
        self, graph: TaskGraph, worker: Callable[[object], object]
    ) -> Tuple[Dict[str, object], EngineStats]:
        stats = EngineStats(
            executor=self.executor, workers=self.workers, n_tasks=len(graph)
        )
        started = self._clock()
        if self.executor == "serial":
            results = self._run_serial(graph, worker, stats)
        else:
            results = self._run_pooled(graph, worker, stats)
        stats.wall_seconds = self._clock() - started
        # canonical order: graph insertion order, never completion order
        return {key: results[key] for key in graph.keys}, stats

    # -- serial ---------------------------------------------------------
    def _run_serial(
        self,
        graph: TaskGraph,
        worker: Callable[[object], object],
        stats: EngineStats,
    ) -> Dict[str, object]:
        results: Dict[str, object] = {}
        pending = {t.key: set(t.deps) for t in graph}
        for task in graph:
            # the graph is topologically ordered by construction, so a
            # blocked task here is an internal invariant violation
            ready = [k for k, deps in pending.items() if not deps]
            stats.max_queue_depth = max(stats.max_queue_depth, len(ready))
            if pending.pop(task.key):
                raise RuntimeError(
                    f"task {task.key!r} ran before its dependencies"
                )
            value, elapsed, cpu, peak = _timed_call(
                worker, task.payload, self.capture_alloc
            )
            results[task.key] = value
            stats.task_seconds[task.key] = elapsed
            stats.task_cpu_seconds[task.key] = cpu
            if peak >= 0:
                stats.task_peak_alloc[task.key] = peak
            for deps in pending.values():
                deps.discard(task.key)
        return results

    # -- process ------------------------------------------------------
    def _make_pool(self):  # type: ignore[no-untyped-def]  # Executor
        # The ONLY pool construction site in src/repro (repro-lint DET005).
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork keeps per-worker startup cheap (no re-import of numpy and
        # the detector registry); fall back to the platform default where
        # fork is unavailable (Windows / macOS spawn-only builds)
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=context)

    def _run_pooled(
        self,
        graph: TaskGraph,
        worker: Callable[[object], object],
        stats: EngineStats,
    ) -> Dict[str, object]:
        results: Dict[str, object] = {}
        pending: Dict[str, set] = {t.key: set(t.deps) for t in graph}
        tasks = {t.key: t for t in graph}
        in_flight: Dict[Future, str] = {}  # type: ignore[type-arg]
        pool = self._make_pool()
        try:
            while pending or in_flight:
                ready = [k for k, deps in pending.items() if not deps]
                stats.max_queue_depth = max(
                    stats.max_queue_depth, len(ready) + len(in_flight)
                )
                for key in ready:
                    del pending[key]
                    future = pool.submit(
                        _timed_call, worker, tasks[key].payload, self.capture_alloc
                    )
                    in_flight[future] = key
                if not in_flight:
                    raise RuntimeError(
                        f"deadlocked task graph; blocked: {sorted(pending)}"
                    )
                done, __ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    key = in_flight.pop(future)
                    # propagates worker errors
                    value, elapsed, cpu, peak = future.result()
                    results[key] = value
                    stats.task_seconds[key] = elapsed
                    stats.task_cpu_seconds[key] = cpu
                    if peak >= 0:
                        stats.task_peak_alloc[key] = peak
                    for deps in pending.values():
                        deps.discard(key)
        finally:
            # join workers before returning: a later process-pool fork in
            # the same interpreter must not inherit live pool threads
            pool.shutdown(wait=True, cancel_futures=True)
        return results
