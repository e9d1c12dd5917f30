"""Parallel execution engine for the scoring tasks of the hierarchical pipeline.

Section 5 of the paper singles out *calculation speed* as a core
challenge of hierarchical outlier detection.  The scoring work of one
plant run decomposes into independent tasks — phase scoring per machine,
environment scoring per line, the global job table, the per-line
jobs-over-time matrices, and the production panel — each a function of
its own payload (the line level's production-wide threshold is applied
in the merge, after the engine returns).  This module provides the
generic machinery; :mod:`repro.core.runner` builds the concrete tasks.

Design constraints, in order:

* **determinism first** — results are returned *by task key in
  insertion order*, never in completion order, and a task's result is
  a function of its payload alone; the serial and process executors
  therefore produce bit-identical pipeline results;
* **one construction site** — this module is the only place in
  ``src/repro`` allowed to construct a ``ProcessPoolExecutor``
  (enforced statically by repro-lint rule DET005), so executor policy,
  worker sizing, and shutdown discipline live in exactly one file;
* **measurable** — :class:`EngineStats` records per-task wall and CPU
  seconds, which the pipeline folds into metrics.

The ``process`` executor forks a pool per run, after the tasks are final:
workers inherit the worker callable and every payload, and only task keys
cross the pool.  Without fork each payload is pickled once, in the caller.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, cast

__all__ = [
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


@dataclass
class EngineStats:
    """What one engine run cost, and how parallel it actually was.

    Besides wall latency the engine attributes per-task CPU seconds
    (``time.thread_time`` where available, else ``time.process_time``),
    both measured *inside* the worker, so IPC and queue wait never
    pollute the attribution.

    Instances travel inside checkpoint snapshots, and fields were added
    and retired without a snapshot version bump: an instance unpickled
    from an older snapshot takes each missing scalar from its class-level
    default and each missing dict from :meth:`__setstate__`, and keeps each
    retired field as an attribute that nothing reads.
    """

    executor: str
    workers: int
    n_tasks: int = 0
    wall_seconds: float = 0.0
    task_seconds: Dict[str, float] = field(default_factory=dict)
    task_cpu_seconds: Dict[str, float] = field(default_factory=dict)
    #: How payloads reached process workers: ``"fork"`` (inherited) or
    #: ``"pickle"`` (no fork; also a serial run's), and the bytes pickled.
    transport_mode: str = "pickle"
    bytes_pickled: int = 0
    #: Only the retired shared-memory arena (``repro.core.shm``) filled these.
    bytes_shared: int = 0
    transport_encode_seconds: float = 0.0
    task_transport_seconds: Dict[str, float] = field(default_factory=dict)

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        for name in ("task_cpu_seconds", "task_transport_seconds"):
            self.__dict__.setdefault(name, {})

    @property
    def compute_seconds(self) -> float:
        """Summed in-worker task latencies (the serial-equivalent cost)."""
        return float(sum(self.task_seconds.values()))

    @property
    def transport_decode_seconds(self) -> float:
        """Summed per-task shared-memory decode cost (0.0 since the arena retired)."""
        return float(sum(self.task_transport_seconds.values()))

    @property
    def cpu_seconds(self) -> float:
        """Summed in-worker CPU seconds across all tasks."""
        return float(sum(self.task_cpu_seconds.values()))

    @property
    def cpu_utilization(self) -> float:
        """CPU seconds per wall second (an executor-efficiency signal)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cpu_seconds / self.wall_seconds

    def top_tasks(self, k: int = 10) -> List[Dict[str, object]]:
        """Top-``k`` tasks by wall latency, with CPU attribution.

        The rows behind ``repro perf report``: task key, level kind,
        wall seconds, plus ``cpu_seconds`` where captured.
        """
        cpu = self.task_cpu_seconds
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
            rows.append(row)
        return rows

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary for run manifests."""
        return {
            "executor": self.executor,
            "workers": self.workers,
            "tasks": self.n_tasks,
            "wall_seconds": self.wall_seconds,
            "compute_seconds": self.compute_seconds,
            "cpu_seconds": self.cpu_seconds,
            "cpu_utilization": self.cpu_utilization,
            "transport": {
                "mode": self.transport_mode,
                "bytes_pickled": int(self.bytes_pickled),
                "bytes_shared": int(self.bytes_shared),
                "encode_seconds": float(self.transport_encode_seconds),
                "decode_seconds": self.transport_decode_seconds,
            },
            "top_tasks": self.top_tasks(),
        }


#: In-worker CPU clock: per-thread where the platform has one; process
#: workers are effectively single-threaded, so the process-wide fallback
#: is equivalent there.
_cpu_clock: Callable[[], float] = getattr(time, "thread_time", time.process_time)


def _timed_call(
    worker: Callable[[object], object], payload: object
) -> Tuple[object, float, float]:
    """Run one task in the worker, timing it locally.

    Timing inside the worker keeps IPC/queue wait (and, on the pickle
    transport, payload decoding) out of the compute-seconds estimate.
    Returns ``(result, wall_seconds, cpu_seconds)``.
    """
    started_cpu = _cpu_clock()
    started = time.perf_counter()
    result = worker(payload)
    return result, time.perf_counter() - started, _cpu_clock() - started_cpu


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


#: What a pool worker inherits from :func:`_install`: the run's worker
#: callable and, under fork, every task payload by key.
_inherited_worker: Optional[Callable[[object], object]] = None
_inherited_payloads: Dict[str, object] = {}


def _install(worker: Callable[[object], object], payloads: Dict[str, object]) -> None:
    """Pool initializer: runs once in each worker before its first task."""
    global _inherited_worker, _inherited_payloads
    _inherited_worker, _inherited_payloads = worker, payloads


def _pool_call(key: str, blob: Optional[bytes]) -> Tuple[object, float, float]:
    """Run task ``key`` in a pool worker on its inherited (or pickled) payload."""
    payload = _inherited_payloads[key] if blob is None else pickle.loads(blob)
    worker = cast(Callable[[object], object], _inherited_worker)
    return _timed_call(worker, payload)


class ParallelEngine:
    """Runs independent tasks on a configurable executor.

    ``executor`` is one of :data:`EXECUTORS`; ``max_workers`` caps the
    pool (default: auto-sized, see :func:`resolve_workers`).  ``clock``
    measures engine wall time and is injectable for tests.

    :meth:`run` takes an insertion-ordered mapping of task key to payload
    and returns ``(results, stats)`` where ``results`` maps task key to
    worker return value **in insertion order** regardless of completion
    order — the determinism contract callers merge against.
    """

    def __init__(
        self,
        executor: str = "serial",
        max_workers: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.executor = executor
        self.workers = resolve_workers(executor, max_workers)
        self._clock = clock

    def run(
        self, tasks: Mapping[str, object], worker: Callable[[object], object]
    ) -> Tuple[Dict[str, object], EngineStats]:
        stats = EngineStats(
            executor=self.executor, workers=self.workers, n_tasks=len(tasks)
        )
        started = self._clock()
        if self.executor == "serial":
            timed = {key: _timed_call(worker, payload) for key, payload in tasks.items()}
        else:
            timed = self._run_pooled(tasks, worker, stats)
        stats.wall_seconds = self._clock() - started
        results: Dict[str, object] = {}
        for key, (value, elapsed, cpu) in timed.items():
            results[key] = value
            stats.task_seconds[key] = elapsed
            stats.task_cpu_seconds[key] = cpu
        return results, stats

    def _run_pooled(
        self,
        tasks: Mapping[str, object],
        worker: Callable[[object], object],
        stats: EngineStats,
    ) -> Dict[str, Tuple[object, float, float]]:
        # Inheritance is exact because the pool lives for this run only: it
        # forks after the tasks are final, so every worker sees exactly this
        # run's payloads, and it is joined before run() returns.  A pool
        # kept across runs would serve the payloads of the run it forked in.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = None
        inherited = dict(tasks)
        blobs: Dict[str, Optional[bytes]] = dict.fromkeys(inherited)
        if _fork_available():
            context = multiprocessing.get_context("fork")
            stats.transport_mode = "fork"
        else:
            # the platform default start method: each payload leaves the
            # initargs (such workers get them pickled whole) and is pickled
            # once, here, so one that cannot be pickled raises first
            for key in blobs:
                blob = pickle.dumps(inherited.pop(key), protocol=pickle.HIGHEST_PROTOCOL)
                blobs[key] = blob
                stats.bytes_pickled += len(blob)
        # The ONLY pool construction site in src/repro (repro-lint DET005).
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_install,
            initargs=(worker, inherited),
        )
        try:
            futures = {key: pool.submit(_pool_call, key, blob) for key, blob in blobs.items()}
            # collected in key order; result() re-raises a worker's error
            return {key: future.result() for key, future in futures.items()}
        finally:
            # join workers before returning: a later process-pool fork in
            # the same interpreter must not inherit live pool threads
            pool.shutdown(wait=True, cancel_futures=True)
