"""Experiment ``fig2`` — reproduce Figure 2: the five production levels.

Fig. 2 is the structural diagram of the hierarchy.  The executable
version walks a simulated plant and prints, per level, exactly the data
inventory the figure assigns to it (phases inside jobs, setup + CAQ per
job, environment series per line, jobs-over-time per line, cross-machine
production panel), plus how many outlier candidates the level's detector
finds there.
"""

from __future__ import annotations

from repro.core import (
    HierarchicalDetectionPipeline,
    ProductionLevel,
    contract_for,
)

L = ProductionLevel


def _inventory(dataset) -> dict:
    machine = next(dataset.iter_machines())
    job = machine.jobs[0]
    phase = job.phases[3]  # printing
    env = dataset.environment_series("line-0")
    jobs_mat, __ = dataset.jobs_over_time("line-0")
    panel, machines = dataset.production_panel()
    return {
        L.PHASE: (
            f"{len(job.phases)} phases/job, {len(phase.series)} channels, "
            f"{len(next(iter(phase.series.values())))} samples @ step 1.0, "
            f"plus a {len(phase.events)}-symbol event sequence"
        ),
        L.JOB: (
            f"{len(dataset.setup_keys)} setup parameters + "
            f"{len(dataset.caq_keys)} CAQ measurements per job "
            f"({len(machine.jobs)} jobs on {machine.machine_id})"
        ),
        L.ENVIRONMENT: (
            f"{len(env)} channels ({', '.join(sorted(env))}), "
            f"{len(next(iter(env.values())))} samples @ step "
            f"{next(iter(env.values())).step} (coarser resolution)"
        ),
        L.PRODUCTION_LINE: (
            f"jobs-over-time matrix {jobs_mat.shape} per line "
            "(time-ordered high-dimensional rows)"
        ),
        L.PRODUCTION: (
            f"KPI panel {panel.shape}: one row per machine "
            f"({len(machines)} machines)"
        ),
    }


def test_bench_fig2_hierarchy(benchmark, emit, bench_plant):
    pipeline = benchmark.pedantic(
        lambda: HierarchicalDetectionPipeline(bench_plant), rounds=1, iterations=1
    )
    inventory = _inventory(bench_plant)

    lines = ["Fig. 2 reproduction — the five production levels", ""]
    for level in L:
        contract = contract_for(level)
        candidates = pipeline.context.find_candidates(level)
        lines.append(f"[{int(level)}] {level.label.upper()} level")
        lines.append(f"    paper: {contract.description}")
        lines.append(f"    data:  {inventory[level]}")
        lines.append(
            f"    outlier granularity: {contract.outlier_granularity.value} | "
            f"detector: {pipeline.context.selector.choose(level).name} | "
            f"candidates found: {len(candidates)}"
        )
        lines.append("")
    emit("fig2_hierarchy", "\n".join(lines))

    # structural assertions: the dataset exposes every level's data shape
    assert inventory[L.PHASE].startswith("5 phases/job")
    env = bench_plant.environment_series("line-0")
    phase = next(bench_plant.iter_jobs()).phases[0]
    phase_step = next(iter(phase.series.values())).step
    env_step = next(iter(env.values())).step
    assert env_step > phase_step, "environment must be coarser than phases"
    # every level must be able to enumerate candidates without error
    for level in L:
        pipeline.context.find_candidates(level)
    # the phase level (highest resolution) yields the most candidates
    counts = {lvl: len(pipeline.context.find_candidates(lvl)) for lvl in L}
    assert counts[L.PHASE] >= max(counts.values()) - 1e-9
