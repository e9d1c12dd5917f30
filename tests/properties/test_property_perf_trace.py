"""Property: Chrome trace exports are always structurally well-formed.

Whatever span forest the tracer records — hypothesis-generated nesting,
clean pipeline runs, chaos runs, and process-executor runs whose worker
trees arrive grafted as roots — :func:`repro.obs.to_chrome_trace` must
emit a document that :func:`repro.obs.validate_chrome_trace` accepts:
B/E events balance per (pid, tid) lane, timestamps never decrease
within a lane, and every flow id pairs exactly one start with one
finish.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HierarchicalDetectionPipeline, PipelineConfig, ProductionLevel
from repro.core.resilience import SandboxPolicy
from repro.core.selection import AlgorithmSelector
from repro.obs import Telemetry, TickClock, chrome_trace_to_json, to_chrome_trace, validate_chrome_trace
from repro.plant import ChaosConfig, FaultConfig, PlantConfig, inject_chaos, simulate_plant

from .test_property_spans import span_forests

L = ProductionLevel


@given(spans=span_forests())
@settings(max_examples=50, deadline=None)
def test_generated_forests_export_well_formed(spans):
    doc = to_chrome_trace(spans)
    assert validate_chrome_trace(doc) == []


@given(spans=span_forests())
@settings(max_examples=25, deadline=None)
def test_export_is_valid_deterministic_json(spans):
    text = chrome_trace_to_json(spans)
    assert json.loads(text)["otherData"]["schema"].startswith("repro.chrome-trace/")
    assert chrome_trace_to_json(spans) == text


def _plant(seed):
    return simulate_plant(
        PlantConfig(
            seed=seed, n_lines=1, machines_per_line=2, jobs_per_machine=4,
            faults=FaultConfig(0.3, 0.2, 0.05),
        )
    )


def _run(dataset, executor, **kwargs):
    telemetry = Telemetry(clock=TickClock(step=0.001))
    pipeline = HierarchicalDetectionPipeline(
        dataset,
        config=kwargs.pop("config", PipelineConfig(executor=executor)),
        telemetry=telemetry,
        **kwargs,
    )
    pipeline.run()
    return telemetry.tracer


@given(
    seed=st.sampled_from([3, 17]),
    executor=st.sampled_from(["serial", "process"]),
)
@settings(max_examples=6, deadline=None)
def test_pipeline_exports_are_well_formed(seed, executor):
    tracer = _run(_plant(seed), executor)
    doc = to_chrome_trace(tracer)
    assert validate_chrome_trace(doc) == []
    # every executed scoring task is linked by exactly one flow pair
    n_tasks = sum(
        1
        for s in tracer.spans
        if "task" in s.attributes and "worker" in s.attributes
    )
    assert sum(1 for e in doc["traceEvents"] if e["ph"] == "s") == n_tasks


def test_process_executor_gets_worker_pid_lanes():
    doc = to_chrome_trace(_run(_plant(3), "process"))
    worker_pids = {
        e["pid"]
        for e in doc["traceEvents"]
        if e["ph"] in ("B", "E") and e["pid"] != 1
    }
    assert worker_pids  # at least one real worker pid lane
    # cross-process flows land on those lanes
    finish_pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "f"}
    assert worker_pids <= finish_pids


@given(chaos_seed=st.sampled_from([0, 1, 2]))
@settings(max_examples=3, deadline=None)
def test_chaos_run_exports_are_well_formed(chaos_seed):
    chaotic, __ = inject_chaos(
        _plant(23), ChaosConfig(seed=chaos_seed, sensor_dropout_rate=0.2)
    )
    selector = AlgorithmSelector()
    selector.override(L.PHASE, ["chaos-raise", "ar", "deviants", "zscore"])
    tracer = _run(
        chaotic,
        "serial",
        selector=selector,
        config=PipelineConfig(sandbox=SandboxPolicy(max_attempts=1)),
    )
    assert validate_chrome_trace(to_chrome_trace(tracer)) == []
