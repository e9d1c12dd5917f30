"""Perf benchmark — incremental ingest latency vs plant size.

The incremental contract: ingesting one new job re-runs only that job's
task-DAG closure (its machine's phase task, which scores the new job's
traces alone, plus the cheap vector levels), so per-job refresh latency is
governed by *one job's* payload and stays flat as the plant grows — while
a cold full recompute grows with the number of machines.  Each plant size
also cross-checks the headline correctness guarantee: the incrementally
refreshed pipeline serializes byte-identically to a cold rebuild on the
full dataset.

The flatness assertion tolerates a 1.5x drift by default (the global job
table and the assembly pass do grow slowly with plant size); relax via
``REPRO_BENCH_INCREMENTAL_RATIO_MAX`` on noisy CI boxes.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import HierarchicalDetectionPipeline
from repro.io import reports_to_json
from repro.plant import FaultConfig, PlantConfig, simulate_plant

#: (n_lines, machines_per_line) — jobs_per_machine stays constant so the
#: per-machine payload (what one refresh re-scores) is size-invariant.
SIZES = ((1, 2), (2, 3), (3, 4))
JOBS_PER_MACHINE = 6
TAIL = 2  # held-out jobs per machine, replayed as arrivals


def _plant(n_lines: int, machines_per_line: int):
    return simulate_plant(
        PlantConfig(
            seed=2019,
            n_lines=n_lines,
            machines_per_line=machines_per_line,
            jobs_per_machine=JOBS_PER_MACHINE,
            faults=FaultConfig(
                process_fault_rate=0.15,
                sensor_fault_rate=0.15,
                setup_anomaly_rate=0.06,
            ),
        )
    )


def _bench_size(n_lines: int, machines_per_line: int) -> dict:
    dataset = _plant(n_lines, machines_per_line)
    started = time.perf_counter()
    cold = HierarchicalDetectionPipeline(dataset)
    cold_s = time.perf_counter() - started

    base, arrivals = dataset.split_tail(TAIL)
    warm = HierarchicalDetectionPipeline(base)
    latencies = []
    for machine_id, job in arrivals:
        t0 = time.perf_counter()
        warm.ingest_job(machine_id, job)
        latencies.append(time.perf_counter() - t0)

    identical = reports_to_json(warm.run(), health=warm.health) == reports_to_json(
        cold.run(), health=cold.health
    )
    lat = np.asarray(latencies, dtype=float)
    return {
        "lines": n_lines,
        "machines": n_lines * machines_per_line,
        "ingests": len(arrivals),
        "p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "cold_s": cold_s,
        "identical": identical,
    }


def _format(rows, ratio: float, identical: bool) -> str:
    lines = [
        "Incremental ingest — per-job refresh latency vs plant size "
        f"(jobs/machine fixed at {JOBS_PER_MACHINE}, tail {TAIL})",
        "",
        f"{'lines':>5s} {'machines':>8s} {'ingests':>7s} "
        f"{'p50_ms':>8s} {'p99_ms':>8s} {'cold_s':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row['lines']:5d} {row['machines']:8d} {row['ingests']:7d} "
            f"{row['p50_ms']:8.1f} {row['p99_ms']:8.1f} {row['cold_s']:8.3f}"
        )
    lines.append("")
    lines.append(f"reports byte-identical (incremental vs cold): {identical}")
    lines.append(f"p50 ratio largest/smallest plant: {ratio:.2f}")
    return "\n".join(lines)


def test_bench_incremental(emit):
    rows = [_bench_size(*size) for size in SIZES]
    ratio = rows[-1]["p50_ms"] / rows[0]["p50_ms"]
    identical = all(row["identical"] for row in rows)
    emit("incremental", _format(rows, ratio, identical))

    # correctness first: the optimization must be behaviourally invisible
    assert identical, "incremental refresh diverged from a cold rebuild"

    # full recompute cost grows with the plant (4x the machines here)...
    assert rows[-1]["cold_s"] > rows[0]["cold_s"] * 1.5, (
        f"cold rebuild did not grow with plant size "
        f"({rows[0]['cold_s']:.3f}s -> {rows[-1]['cold_s']:.3f}s)"
    )
    # ...while per-job refresh latency stays flat
    ratio_max = float(os.environ.get("REPRO_BENCH_INCREMENTAL_RATIO_MAX", "1.5"))
    assert ratio <= ratio_max, (
        f"per-job refresh p50 grew {ratio:.2f}x from the smallest to the "
        f"largest plant; expected <= {ratio_max}x (latency must track one "
        "machine's payload, not plant size)"
    )
