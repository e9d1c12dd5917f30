"""Unit tests for the execution engine (repro.core.parallel) and the
scoring tasks it runs.

The engine's contract is deterministic merge order: whatever the
executor and whatever order tasks *complete* in, ``run`` returns results
keyed in the insertion order of its task mapping.  These tests pin that
contract, the stats the pipeline folds into metrics, the runner's task
mapping (canonical order, duplicate-key rejection), and the property the
engine relies on: no scoring task depends on another having run first.
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
import time

import pytest

from repro.core import PipelineConfig, parallel
from repro.core.parallel import EXECUTORS, EngineStats, ParallelEngine, resolve_workers
from repro.core.resilience import DetectorSandbox
from repro.core.runner import LevelRunner
from repro.core.selection import AlgorithmSelector
from repro.core.tasks import _TASK_RUNNERS, _ScoreTask, _WorkerState
from repro.obs.trace import Tracer
from repro.plant import ChaosConfig, PlantConfig, inject_chaos, simulate_plant

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


#: an insertion order that is not the sorted one
_TASKS = {"c": 4, "a": 2, "d": 5, "b": 3}


def _square_first_slowest(payload):
    # module-level so it crosses the pickle boundary where fork is missing;
    # the first task of _TASKS finishes last on a pool
    if payload == 4:
        time.sleep(0.2)
    return payload * payload


def _square_recorded(payload):
    return payload.value * payload.value


def _fail_on_three(payload):
    if payload == 3:
        raise ValueError("task three exploded")
    return payload


def _runner(dataset) -> LevelRunner:
    return LevelRunner(dataset, AlgorithmSelector(), PipelineConfig(), None)


class TestTaskGraph:
    """The runner's task mapping, which the engine runs."""

    def test_insertion_order_is_canonical(self, small_plant):
        machines = [m.machine_id for m in small_plant.iter_machines()]
        lines = [line.line_id for line in small_plant.lines]
        tasks = _runner(small_plant).task_graph()
        assert list(tasks) == [
            *(f"phase/{m}" for m in machines),
            *(f"env/{line}" for line in lines),
            "job",
            *(f"line/{line}" for line in lines),
            "production",
        ]
        assert all(task.key == key for key, task in tasks.items())
        only = {"production", "job", f"phase/{machines[-1]}"}
        restricted = _runner(small_plant).task_graph(only=only)
        assert list(restricted) == [f"phase/{machines[-1]}", "job", "production"]

    def test_duplicate_key_rejected(self):
        plant = simulate_plant(
            PlantConfig(seed=7, n_lines=2, machines_per_line=1, jobs_per_machine=3)
        )
        # two machines with one id, then two lines with one id
        twin_machines, __ = plant.split_tail(0)
        first, second = (line.machines[0] for line in twin_machines.lines)
        second.machine_id = first.machine_id
        with pytest.raises(ValueError, match=f"duplicate task key 'phase/{first.machine_id}'"):
            _runner(twin_machines).task_graph()
        twin_lines, __ = plant.split_tail(0)
        twin_lines.lines[1].line_id = twin_lines.lines[0].line_id
        line_id = twin_lines.lines[0].line_id
        with pytest.raises(ValueError, match=f"duplicate task key 'env/{line_id}'"):
            _runner(twin_lines).task_graph()


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
        results, stats = engine.run(_TASKS, _square_first_slowest)
        assert list(results) == ["c", "a", "d", "b"]
        assert results == {"a": 4, "b": 9, "c": 16, "d": 25}
        assert stats.executor == executor
        assert stats.n_tasks == 4
        assert list(stats.task_seconds) == list(stats.task_cpu_seconds) == list(_TASKS)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_worker_errors_propagate(self, executor):
        engine = ParallelEngine(executor, max_workers=2)
        with pytest.raises(ValueError, match="task three exploded"):
            engine.run({f"t{i}": i for i in range(5)}, _fail_on_three)


class TestEngineStats:
    def test_zero_wall_never_divides(self):
        stats = EngineStats(executor="serial", workers=1)
        assert stats.cpu_utilization == 0.0

    def test_as_dict_is_json_safe(self):
        import json

        doc = EngineStats(executor="serial", workers=1).as_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_snapshot_without_new_fields_still_reports(self):
        # an EngineStats unpickled from a pre-transport snapshot lacks
        # every field added since the first snapshot format and carries
        # the retired queue-depth, peak-allocation and serial-baseline
        # fields; accessors must not explode
        stats = EngineStats(
            executor="serial", workers=1, n_tasks=2, wall_seconds=2.0,
            task_seconds={"a": 1.0},
        )
        for name in list(stats.__dict__):
            if name not in ("executor", "workers", "n_tasks", "wall_seconds",
                            "task_seconds"):
                del stats.__dict__[name]
        stats.__dict__.update(
            max_queue_depth=1, task_peak_alloc={"a": 4096},
            serial_baseline_seconds=None,
        )
        stats = pickle.loads(pickle.dumps(stats))
        assert stats.compute_seconds == 1.0
        assert stats.cpu_utilization == 0.0
        summary = stats.as_dict()
        assert "serial_baseline_seconds" not in summary
        assert summary["transport"]["mode"] == "pickle"
        assert summary["transport"]["bytes_shared"] == 0
        assert summary["top_tasks"] == [{"task": "a", "kind": "a", "wall_seconds": 1.0}]


def _recorded_tasks():
    return {key: _Recorded(value) for key, value in _TASKS.items()}


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
            _recorded_tasks(), _square_recorded
        )
        assert _PICKLED == []  # the workers inherited all four payloads
        assert list(results) == list(_TASKS)
        assert results == {"a": 4, "b": 9, "c": 16, "d": 25}
        assert stats.transport_mode == "fork"
        assert stats.bytes_pickled == 0
        assert stats.as_dict()["transport"]["mode"] == "fork"

    def test_pickle_path_matches_serial(self, no_fork):
        tasks = _recorded_tasks()
        serial, __ = ParallelEngine("serial").run(tasks, _square_recorded)
        payload_bytes = sum(
            len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL)) for p in tasks.values()
        )
        _PICKLED.clear()
        results, stats = ParallelEngine("process", max_workers=2).run(
            tasks, _square_recorded
        )
        assert sorted(_PICKLED) == [2, 3, 4, 5]  # each payload pickled once
        assert list(results) == list(serial)
        assert results == serial
        assert stats.as_dict()["transport"]["mode"] == "pickle"
        assert stats.bytes_pickled == payload_bytes

    def test_pickle_path_raises_on_an_unpicklable_payload(self, tmp_path):
        # in a child process in a new process group: an engine that hangs on
        # these tasks fails the test on timeout instead of hanging the
        # suite, and killing the group reaps any pool workers it left
        script = tmp_path / "unpicklable.py"
        script.write_text(textwrap.dedent('''
            import pickle
            from repro.core import parallel

            class Unpicklable:
                def __reduce__(self):
                    raise pickle.PicklingError("this payload does not pickle")

            parallel._fork_available = lambda: False
            tasks = {"ok": 1, "bad": Unpicklable()}
            try:
                parallel.ParallelEngine("process", max_workers=2).run(tasks, abs)
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


def _frozen_run(task: _ScoreTask) -> bytes:
    """One scoring task on frozen clocks: its output, events and batch-group
    count, pickled (a worker's spans, which carry clock times, are left out)."""
    state = _WorkerState(
        config=task.config,
        level=task.level,
        chain=task.chain,
        tracer=Tracer(clock=lambda: 0.0, enabled=task.telemetry_enabled),
        sandbox=DetectorSandbox(task.config.sandbox, clock=lambda: 0.0),
        telemetry_enabled=task.telemetry_enabled,
    )
    output = _TASK_RUNNERS[task.kind](state, task.data)
    return pickle.dumps((output, state.events, state.batch_groups))


class TestTaskIndependence:
    def test_reverse_order_scores_every_task_alike(self, small_plant):
        # The engine may run a build's tasks in any order because no task
        # reads what another one leaves behind.  The reverse order runs
        # first, so a task that reads a value another task writes sees it
        # unset (or stale) there and set in the forward run.
        dataset, __ = inject_chaos(
            small_plant,
            ChaosConfig(seed=4, sensor_dropout_rate=0.1, nan_burst_rate=0.3,
                        nan_burst_length=40, stuck_rate=0.15, truncate_rate=0.15),
        )
        tasks = _runner(dataset).task_graph()
        assert {task.kind for task in tasks.values()} == {
            "phase", "env", "job", "line", "production"
        }
        engine = ParallelEngine("serial")
        backward, __ = engine.run(dict(reversed(list(tasks.items()))), _frozen_run)
        forward, __ = engine.run(tasks, _frozen_run)
        assert list(backward) == list(reversed(list(forward)))
        for key in tasks:
            assert backward[key] == forward[key], key
        events = [kind for blob in forward.values() for kind, __ in pickle.loads(blob)[1]]
        assert {"quarantine", "obs"} <= set(events)
