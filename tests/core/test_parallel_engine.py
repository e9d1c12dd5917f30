"""Unit tests for the level-DAG execution engine (repro.core.parallel).

The engine's contract is deterministic merge order: whatever the
executor and whatever order tasks *complete* in, ``run`` returns results
keyed in graph insertion order.  These tests pin that contract plus the
graph invariants (topological-by-construction, duplicate/unknown-dep
rejection) and the stats the pipeline folds into metrics.
"""

from __future__ import annotations

import pytest

from repro.core.parallel import (
    EXECUTORS,
    EngineStats,
    ParallelEngine,
    Task,
    TaskGraph,
    resolve_workers,
)


def _square(payload):
    # module-level so it crosses the process-executor pickle boundary
    return payload * payload


def _fail_on_three(payload):
    if payload == 3:
        raise ValueError("task three exploded")
    return payload


def _diamond_graph() -> TaskGraph:
    graph = TaskGraph()
    graph.add(Task(key="a", payload=2))
    graph.add(Task(key="b", payload=3))
    graph.add(Task(key="c", payload=4, deps=("a", "b")))
    graph.add(Task(key="d", payload=5, deps=("c",)))
    return graph


class TestTaskGraph:
    def test_insertion_order_is_canonical(self):
        graph = _diamond_graph()
        assert graph.keys == ["a", "b", "c", "d"]
        assert len(graph) == 4
        assert graph.n_edges == 3
        assert "c" in graph and "z" not in graph

    def test_duplicate_key_rejected(self):
        graph = TaskGraph()
        graph.add(Task(key="a", payload=1))
        with pytest.raises(ValueError, match="duplicate task key"):
            graph.add(Task(key="a", payload=2))

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(ValueError, match="unknown task"):
            graph.add(Task(key="b", payload=1, deps=("a",)))


class TestResolveWorkers:
    def test_serial_is_always_one(self):
        assert resolve_workers("serial", None) == 1
        assert resolve_workers("serial", 8) == 1

    def test_explicit_cap_honoured(self):
        assert resolve_workers("process", 3) == 3

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="max_workers"):
            resolve_workers("process", 0)

    def test_auto_sizing_is_positive(self):
        assert resolve_workers("process", None) >= 1


class TestParallelEngine:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ParallelEngine("greenlet")

    def test_thread_executor_is_gone(self):
        assert EXECUTORS == ("serial", "process")
        with pytest.raises(ValueError, match="unknown executor"):
            ParallelEngine("thread")

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_results_in_insertion_order(self, executor):
        engine = ParallelEngine(executor, max_workers=2)
        results, stats = engine.run(_diamond_graph(), _square)
        assert list(results) == ["a", "b", "c", "d"]
        assert results == {"a": 4, "b": 9, "c": 16, "d": 25}
        assert stats.executor == executor
        assert stats.n_tasks == 4
        assert set(stats.task_seconds) == {"a", "b", "c", "d"}
        assert stats.max_queue_depth >= 1

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_worker_errors_propagate(self, executor):
        graph = TaskGraph()
        for i in range(5):
            graph.add(Task(key=f"t{i}", payload=i))
        engine = ParallelEngine(executor, max_workers=2)
        with pytest.raises(ValueError, match="task three exploded"):
            engine.run(graph, _fail_on_three)

    def test_queue_depth_sees_parallel_slack(self):
        # 6 independent tasks: all ready at once
        graph = TaskGraph()
        for i in range(6):
            graph.add(Task(key=f"t{i}", payload=i))
        __, stats = ParallelEngine("serial").run(graph, _square)
        assert stats.max_queue_depth == 6


class TestEngineStats:
    def test_process_run_without_baseline_has_no_speedup(self):
        # summed worker task seconds are no serial baseline: without a
        # stamped one a parallel run reports no speedup at all
        stats = EngineStats(
            executor="process",
            workers=2,
            n_tasks=2,
            wall_seconds=1.0,
            task_seconds={"a": 0.8, "b": 0.9},
        )
        assert stats.compute_seconds == pytest.approx(1.7)
        assert stats.speedup is None
        assert stats.as_dict()["speedup"] is None
        stats.serial_baseline_seconds = 1.2
        assert stats.speedup == pytest.approx(1.2)

    def test_zero_wall_never_divides(self):
        stats = EngineStats(executor="serial", workers=1)
        assert stats.speedup == 0.0

    def test_as_dict_is_json_safe(self):
        import json

        doc = EngineStats(executor="serial", workers=1).as_dict()
        assert json.loads(json.dumps(doc)) == doc
