"""The names and counters the benchmark under ``perfbench/`` reads.

perfbench's traced runs wrap the program functions listed in
``tracing.TARGETS`` and read program-reported counters through
``worker.pipeline_counters`` and ``worker.monitor_counters``.  A renamed
or deleted function or counter does not fail a benchmark run: the metric
silently drops out of the result.  These tests fail instead, and they check
that every counter is a finite number, so the result line stays strict JSON.
perfbench's own self-tests (``python -m pytest perfbench``) cover its helpers
on a fake module only.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

from repro.core import CorrespondenceGraph, HierarchicalDetectionPipeline, PipelineConfig
from repro.plant import PlantConfig, simulate_plant

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``tracing``, ``worker`` and ``workloads`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        modules = {
            name: importlib.import_module(name)
            for name in ("tracing", "worker", "workloads")
        }
    finally:
        sys.path.remove(str(PERFBENCH))
    return modules


@pytest.fixture(scope="module")
def plant():
    return simulate_plant(
        PlantConfig(seed=7, n_lines=1, machines_per_line=2, jobs_per_machine=3)
    )


def _assert_strict_json(counters: dict) -> None:
    assert counters
    assert all(math.isfinite(value) for value in counters.values()), counters
    json.dumps(counters, allow_nan=False)


def test_every_traced_function_exists(bench):
    tracing, workloads = bench["tracing"], bench["workloads"]
    for module in {target[0] for target in tracing.TARGETS.values()}:
        importlib.import_module(module)
    for modules in workloads.IMPORTS.values():
        for module in modules:
            importlib.import_module(module)
    rec = tracing.Recorder()
    rec.install()  # resolves every target; patches nothing until enable()
    assert rec.missing == []


@pytest.mark.parametrize("executor", ("serial", "process"))
def test_pipeline_counters_are_all_present_and_finite(bench, plant, executor):
    worker = bench["worker"]
    workers = {} if executor == "serial" else {"max_workers": 2}
    base, arrivals = plant.split_tail(1)
    pipeline = HierarchicalDetectionPipeline(
        base, config=PipelineConfig(executor=executor, **workers)
    )
    pipeline.run()
    missing: list = []
    _assert_strict_json(worker.pipeline_counters(pipeline, None, missing))
    before = worker.cache_totals(pipeline)
    pipeline.ingest_job(*arrivals[0])
    pipeline.run()
    _assert_strict_json(worker.pipeline_counters(pipeline, before, missing))
    assert missing == []


def test_monitor_counters_are_all_present_and_finite(bench, plant):
    from repro.streaming import StreamingSensorMonitor

    worker, workloads = bench["worker"], bench["workloads"]
    monitor = StreamingSensorMonitor(
        CorrespondenceGraph.from_plant(plant), heartbeat_patience=workloads.PATIENCE
    )
    monitor.observe_block(workloads.stream_samples(plant)[: workloads.BLOCK])
    missing: list = []
    _assert_strict_json(worker.monitor_counters(monitor, 0.0, missing))
    assert missing == []
