"""The four workloads: their plants, set-up and op, driven only through
public entry points (``HierarchicalDetectionPipeline``, ``PlantDataset
.ingest_job``, ``reports_to_json``, ``StreamingSensorMonitor``; the CLI op
of ``cold_detect`` lives in ``run.py``).

Only stdlib at import time: the orchestrator reads the table below
without importing the program.  No ``PipelineConfig`` field other than
``executor`` is ever set, so flag deletions cannot break a workload.
"""

from __future__ import annotations

import gc
import json
from typing import Dict, List, Tuple

#: plant shape -> (lines, machines per line, jobs per machine,
#: process / sensor / setup fault rates)
PLANTS = {
    # `repro simulate --seed N` with its CLI defaults
    "small": (2, 3, 10, 0.08, 0.08, 0.05),
    # the plant of benchmarks/test_bench_parallel_speedup.py
    "large": (3, 4, 12, 0.15, 0.15, 0.06),
}

#: workload -> (plant shape, default seed, why)
WORKLOADS: Dict[str, Tuple[str, int, str]] = {
    "cold_detect": (
        "small", 7,
        "`repro detect` in a fresh interpreter: the only op that pays start-up and import",
    ),
    "plant_scan": (
        "large", 2019,
        "full build + Algorithm 1 on the process executor in a warm process: the "
        "engine, shm and kernels",
    ),
    "ingest_refresh": (
        "large", 2019,
        "ingest one job + incremental refresh on the process executor: the write "
        "path on 4-task graphs",
    ),
    "stream_replay": (
        "small", 7,
        "1,000-sample blocks through StreamingSensorMonitor: repro.streaming and "
        "correspondence lookups",
    ),
}

#: what each workload's measured process imports before its set-up: the
#: CLI path for cold_detect, the public library entry points otherwise
IMPORTS = {
    "cold_detect": ("repro.cli", "repro.core", "repro.io", "repro.obs"),
    "plant_scan": ("repro.core", "repro.io"),
    "ingest_refresh": ("repro.core", "repro.io"),
    "stream_replay": ("repro.core", "repro.io", "repro.streaming"),
}

EXECUTOR = "process"  # plant_scan and ingest_refresh; references use "serial"
TAIL = 2  # jobs per machine held out by split_tail for ingest_refresh
BLOCK = 1000  # stream samples per stream_replay op
PATIENCE = 50.0  # heartbeat_patience of the stream monitor


def plant_config(workload: str, seed: int):
    from repro.plant import FaultConfig, PlantConfig

    lines, machines, jobs, proc, sens, setup = PLANTS[WORKLOADS[workload][0]]
    return PlantConfig(
        seed=seed, n_lines=lines, machines_per_line=machines, jobs_per_machine=jobs,
        faults=FaultConfig(process_fault_rate=proc, sensor_fault_rate=sens,
                           setup_anomaly_rate=setup),
    )


def report_rows(payload: str) -> List[Dict]:
    return json.loads(payload)["reports"]


def _pipeline(dataset, executor: str):
    from repro.core import HierarchicalDetectionPipeline, PipelineConfig

    return HierarchicalDetectionPipeline(dataset, config=PipelineConfig(executor=executor))


def _serialize(pipeline, reports) -> str:
    from repro.io import reports_to_json

    return reports_to_json(reports, health=pipeline.health, stats=pipeline.stats())


class PlantScan:
    """Op: build the pipeline, run Algorithm 1, serialize the reports."""

    exhausted = False

    def __init__(self, plant, executor: str = EXECUTOR) -> None:
        self.plant = plant
        self.executor = executor
        self.pipeline = None
        self.last = 0  # index of the last op's output in the reference

    def reset(self) -> None:
        pass

    def op(self) -> str:
        self.pipeline = None  # the previous scan's pipeline must not inflate peak RSS
        self.pipeline = _pipeline(self.plant, self.executor)
        return _serialize(self.pipeline, self.pipeline.run())


class IngestRefresh:
    """Op: ingest the next held-out job, refresh, run, serialize.

    The base (all but each machine's last ``TAIL`` jobs) is built by
    :meth:`reset`; after the last arrival the caller resets again, so every
    replay starts from the same base.
    """

    def __init__(self, plant, executor: str = EXECUTOR) -> None:
        self.plant = plant
        self.executor = executor
        self.reset()

    def reset(self) -> None:
        if getattr(self, "pipeline", None) is not None:
            # free the finished replay first: holding two pipelines while the
            # base is rebuilt would make peak RSS depend on the replay count
            self.pipeline = None
            gc.collect()
        base, self.arrivals = self.plant.split_tail(TAIL)
        self.pipeline = _pipeline(base, self.executor)
        self.pipeline.run()
        self.last = -1

    @property
    def exhausted(self) -> bool:
        return self.last + 1 >= len(self.arrivals)

    def op(self) -> str:
        self.last += 1
        machine_id, job = self.arrivals[self.last]
        self.pipeline.ingest_job(machine_id, job)
        return _serialize(self.pipeline, self.pipeline.run())


def stream_samples(plant) -> List[Tuple[str, float, float]]:
    """Every phase-sensor and environment sample of the plant, in time order."""
    samples = []
    for line in plant.lines:
        for kind, series in sorted(line.environment.items()):
            channel = f"{line.line_id}/env/{kind}"
            samples.extend(zip([channel] * len(series), series.times().tolist(),
                               series.values.tolist()))
        for machine in line.machines:
            for job in machine.jobs:
                for phase in job.phases:
                    for channel, series in phase.series.items():
                        samples.extend(zip([channel] * len(series),
                                           series.times().tolist(),
                                           series.values.tolist()))
    samples.sort(key=lambda s: s[1])  # stable: ties keep plant order
    return samples


class StreamReplay:
    """Op: feed the next block of :attr:`blocks`; :meth:`reset` starts a
    fresh monitor.  The caller fills ``blocks`` (benchmark input, built
    outside the timed set-up)."""

    def __init__(self, plant) -> None:
        from repro.core import CorrespondenceGraph

        self.graph = CorrespondenceGraph.from_plant(plant)
        self.blocks: List[list] = []
        self.reset()

    def reset(self) -> None:
        from repro.streaming import StreamingSensorMonitor

        self.monitor = StreamingSensorMonitor(self.graph, heartbeat_patience=PATIENCE)
        self.last = -1

    @property
    def exhausted(self) -> bool:
        return self.last + 1 >= len(self.blocks)

    def op(self) -> list:
        self.last += 1
        return self.monitor.observe_block(self.blocks[self.last])

    def shape_inputs(self, plant) -> None:
        samples = stream_samples(plant)
        self.blocks = [samples[i:i + BLOCK] for i in range(0, len(samples), BLOCK)]


def setup(workload: str, plant):
    """The workload state that ``setup_s`` times, after import and load."""
    if workload == "plant_scan":
        state = PlantScan(plant)
        state.op()  # one warm-up scan
        return state
    if workload == "ingest_refresh":
        return IngestRefresh(plant)
    return StreamReplay(plant)
