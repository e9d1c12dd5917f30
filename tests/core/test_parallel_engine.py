"""Unit tests for the level-DAG execution engine (repro.core.parallel).

The engine's contract is deterministic merge order: whatever the
executor and whatever order tasks *complete* in, ``run`` returns results
keyed in graph insertion order.  These tests pin that contract plus the
graph invariants (topological-by-construction, duplicate/unknown-dep
rejection) and the stats the pipeline folds into metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core import parallel
from repro.core.parallel import (
    EXECUTORS,
    EngineStats,
    ParallelEngine,
    Task,
    TaskGraph,
    resolve_workers,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: values of the :class:`_Recorded` payloads pickled in this process
_PICKLED = []


class _Recorded:
    """A payload that records, in the process pickling it, each time it is."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        _PICKLED.append(self.value)
        return (_Recorded, (self.value,))


def _square(payload):
    # module-level so it crosses the pickle boundary where fork is missing
    return payload * payload


def _square_recorded(payload):
    return payload.value * payload.value


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


def _recorded_diamond() -> TaskGraph:
    graph = TaskGraph()
    for task in _diamond_graph():
        graph.add(Task(key=task.key, payload=_Recorded(task.payload), deps=task.deps))
    return graph


@pytest.fixture
def no_fork(monkeypatch):
    """Force the transport of platforms without fork (no config option)."""
    monkeypatch.setattr(parallel, "_fork_available", lambda: False)


class TestTransport:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_fork_pickles_no_payload(self):
        _PICKLED.clear()
        results, stats = ParallelEngine("process", max_workers=2).run(
            _recorded_diamond(), _square_recorded
        )
        assert _PICKLED == []  # the workers inherited all four payloads
        assert list(results) == ["a", "b", "c", "d"]
        assert results == {"a": 4, "b": 9, "c": 16, "d": 25}
        assert stats.transport_mode == "fork"
        assert stats.bytes_pickled == 0
        assert stats.as_dict()["transport"]["mode"] == "fork"

    def test_pickle_path_matches_serial(self, no_fork):
        graph = _recorded_diamond()
        serial, __ = ParallelEngine("serial").run(graph, _square_recorded)
        payload_bytes = sum(
            len(pickle.dumps(t.payload, protocol=pickle.HIGHEST_PROTOCOL)) for t in graph
        )
        _PICKLED.clear()
        results, stats = ParallelEngine("process", max_workers=2).run(
            graph, _square_recorded
        )
        assert sorted(_PICKLED) == [2, 3, 4, 5]  # each payload pickled once
        assert list(results) == list(serial)
        assert results == serial
        assert stats.as_dict()["transport"]["mode"] == "pickle"
        assert stats.bytes_pickled == payload_bytes

    def test_pickle_path_raises_on_an_unpicklable_payload(self, tmp_path):
        # in a child process in a new process group: an engine that hangs on
        # this graph fails the test on timeout instead of hanging the
        # suite, and killing the group reaps any pool workers it left
        script = tmp_path / "unpicklable.py"
        script.write_text(textwrap.dedent('''
            import pickle
            from repro.core import parallel

            class Unpicklable:
                def __reduce__(self):
                    raise pickle.PicklingError("this payload does not pickle")

            parallel._fork_available = lambda: False
            graph = parallel.TaskGraph()
            graph.add(parallel.Task(key="ok", payload=1))
            graph.add(parallel.Task(key="bad", payload=Unpicklable()))
            try:
                parallel.ParallelEngine("process", max_workers=2).run(graph, abs)
            except pickle.PicklingError as exc:
                # a pool relays a pickling error from its feeder thread
                # with the remote traceback as the cause
                print("raised:", exc, "| relayed:", exc.__cause__ is not None)
        '''))
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        child = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the engine hung on an unpicklable payload")
        assert child.returncode == 0, err
        assert out.strip() == "raised: this payload does not pickle | relayed: False"
