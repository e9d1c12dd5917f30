"""Perf benchmark — the parallel level-DAG engine vs the serial baseline.

Section 5 of the paper names *calculation speed* as a core challenge of
hierarchical detection.  This benchmark runs the full pipeline over a
larger plant under every executor and reports wall time, the engine's
compute/wall speedup estimate, and — the part that must never regress —
byte-identical report JSON across executors.

The wall-clock speedup assertion is gated on available cores: a
single-core container can prove correctness but not parallelism.  The
threshold defaults to 1.5x and can be relaxed for noisy CI boxes via
``REPRO_BENCH_SPEEDUP_MIN``.
"""

from __future__ import annotations

import os
import time

from repro.core import HierarchicalDetectionPipeline
from repro.core.pipeline import PipelineConfig
from repro.io import reports_to_json
from repro.plant import FaultConfig, PlantConfig, simulate_plant


def _speedup_plant():
    # bigger than bench_plant: per-task compute must dominate pool overhead
    return simulate_plant(
        PlantConfig(
            seed=2019,
            n_lines=3,
            machines_per_line=4,
            jobs_per_machine=12,
            faults=FaultConfig(
                process_fault_rate=0.15,
                sensor_fault_rate=0.15,
                setup_anomaly_rate=0.06,
            ),
        )
    )


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run(dataset, executor: str, workers):
    config = PipelineConfig(executor=executor, max_workers=workers)
    started = time.perf_counter()
    pipeline = HierarchicalDetectionPipeline(dataset, config=config)
    reports = pipeline.run()
    wall = time.perf_counter() - started
    doc = reports_to_json(reports, health=pipeline.health, stats=pipeline.stats())
    return wall, doc, pipeline.context.engine_stats()


def _format(rows, cores: int, identical: bool) -> str:
    lines = [
        "Parallel level-DAG engine — wall time per executor "
        f"({cores} core(s) available)",
        "",
        f"{'executor':10s} {'workers':>7s} {'tasks':>5s} {'wall_s':>8s} "
        f"{'speedup':>8s} {'vs_serial':>9s}",
    ]
    serial_wall = rows["serial"][0]
    for name, (wall, engine) in rows.items():
        ratio = serial_wall / wall if wall > 0 else 0.0
        lines.append(
            f"{name:10s} {engine.workers:7d} {engine.n_tasks:5d} "
            f"{wall:8.3f} {engine.speedup:8.2f} {ratio:9.2f}"
        )
    lines.append("")
    process_engine = rows["process"][1]
    lines.append(
        "process transport: "
        f"mode={process_engine.transport_mode} "
        f"bytes_pickled={process_engine.bytes_pickled} "
        f"bytes_shared={process_engine.bytes_shared} "
        f"encode_s={process_engine.transport_encode_seconds:.4f} "
        f"decode_s={process_engine.transport_decode_seconds:.4f}"
    )
    lines.append(f"reports byte-identical across executors: {identical}")
    return "\n".join(lines)


def test_bench_parallel_speedup(emit):
    cores = _available_cores()
    dataset = _speedup_plant()
    rows = {}
    docs = {}
    for executor in ("serial", "process"):
        wall, doc, engine = _run(dataset, executor, None)
        rows[executor] = (wall, engine)
        docs[executor] = doc

    # one speedup definition everywhere: stamp the serial leg's measured
    # in-worker task time onto the parallel legs, so `engine.speedup` in
    # this table and in the run manifest divide the same baseline
    rows["process"][1].serial_baseline_seconds = rows["serial"][1].compute_seconds

    identical = docs["serial"] == docs["process"]
    emit("parallel_speedup", _format(rows, cores, identical))

    # the determinism contract holds on every machine, parallel or not
    assert identical, "executors disagreed on the serialized reports"

    # wall-clock speedup is only provable with real parallel hardware;
    # the gate is on the process executor — with batched kernels and
    # workers that inherit their payloads through fork it must beat serial
    if cores >= 2:
        threshold = float(os.environ.get("REPRO_BENCH_SPEEDUP_MIN", "1.5"))
        serial_wall = rows["serial"][0]
        process_wall = rows["process"][0]
        achieved = serial_wall / process_wall if process_wall > 0 else 0.0
        assert achieved >= threshold, (
            f"process executor achieved {achieved:.2f}x over serial "
            f"on {cores} cores; expected >= {threshold}x"
        )
