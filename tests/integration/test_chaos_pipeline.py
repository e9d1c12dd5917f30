"""Chaos acceptance suite: the pipeline under injected infrastructure faults.

The resilience PR's acceptance criteria, as executable tests: with 20%
sensor dropout plus an always-raising detector first in the phase-level
preference list, the pipeline must complete without an unhandled
exception, :class:`RunHealth` must list every fallback and quarantine,
support for real (process) faults must stay within 0.1 of the fault-free
run thanks to the renormalized divisor, and repeated seeded runs must be
byte-identical.

Run with ``pytest -m chaos``; ``CHAOS_SEED`` selects the fault-injection
seed (the CI chaos job sweeps a small seed matrix).
"""

from __future__ import annotations

import os

import pytest

from repro.core import (
    HierarchicalDetectionPipeline,
    PipelineConfig,
    ProductionLevel,
)
from repro.core.resilience import SandboxPolicy
from repro.core.selection import AlgorithmSelector
from repro.io import reports_to_json
from repro.plant import (
    ChaosConfig,
    FaultConfig,
    FaultKind,
    PlantConfig,
    SensorSpec,
    inject_chaos,
    simulate_plant,
)

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: four redundant chamber sensors so removing one changes the support
#: divisor by a small, bounded amount (3/4 -> 2/3 at most ~0.083)
SENSORS = (
    SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
    SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
    SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
    SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
    SensorSpec("bed_temp", "degC", "bed_temp", 0.3),
)


@pytest.fixture(scope="module")
def dataset():
    config = PlantConfig(
        seed=23, n_lines=1, machines_per_line=2, jobs_per_machine=4,
        sensors=SENSORS,
        faults=FaultConfig(  # real process faults only: the support target
            process_fault_rate=0.6, sensor_fault_rate=0.0, setup_anomaly_rate=0.0,
        ),
    )
    return simulate_plant(config)


@pytest.fixture(scope="module")
def victim(dataset):
    """One chamber twin on the first machine, killed deterministically."""
    machine = next(dataset.iter_machines())
    group = machine.redundancy_groups()[f"{machine.machine_id}/chamber_temp"]
    assert len(group) == 4
    return group[-1].sensor_id


@pytest.fixture(scope="module")
def clean_run(dataset):
    pipeline = HierarchicalDetectionPipeline(dataset)
    return pipeline, pipeline.run()


def _chaos_pipeline(dataset, victim):
    """20% random dropout + the targeted victim + chaos-raise first at PHASE."""
    chaotic, events = inject_chaos(
        dataset,
        ChaosConfig(
            seed=CHAOS_SEED, sensor_dropout_rate=0.2, dropout_sensors=(victim,)
        ),
    )
    selector = AlgorithmSelector()
    selector.override(
        ProductionLevel.PHASE, ["chaos-raise", "ar", "deviants", "zscore"]
    )
    pipeline = HierarchicalDetectionPipeline(
        chaotic, selector=selector,
        config=PipelineConfig(sandbox=SandboxPolicy(max_attempts=1)),
    )
    reports = pipeline.run()
    return chaotic, events, pipeline, reports


@pytest.fixture(scope="module")
def chaos_run(dataset, victim):
    return _chaos_pipeline(dataset, victim)


class TestSurvival:
    def test_pipeline_completes_and_reports(self, chaos_run):
        __, events, pipeline, reports = chaos_run
        assert events  # at least the targeted victim was dropped
        assert reports  # degraded, never silent
        assert pipeline.health.degraded

    def test_health_lists_every_quarantine(self, chaos_run):
        chaotic, events, pipeline, __ = chaos_run
        dropped = {e.sensor_id for e in events if e.kind == "dropout"}
        health = pipeline.health
        # every dropped channel is quarantined wholesale (dead, no vote)
        assert dropped <= health.dead_channels
        assert dropped <= health.quarantined_channels
        # and nothing else was quarantined: only injected faults degrade
        assert health.quarantined_channels == dropped

    def test_health_lists_every_fallback(self, chaos_run):
        chaotic, __, pipeline, __r = chaos_run
        health = pipeline.health
        n_phase_traces = sum(
            len(phase.series)
            for machine in chaotic.iter_machines()
            for job in machine.jobs
            for phase in job.phases
        )
        n_trace_quarantines = sum(
            1 for q in health.quarantines if q.scope != "channel"
        )
        # chaos-raise failed on every phase trace that survived the gate,
        # and each failure fell back to the next ChooseAlgorithm candidate
        assert health.fallbacks
        assert len(health.fallbacks) == n_phase_traces - n_trace_quarantines
        for event in health.fallbacks:
            assert event.level == "PHASE"
            assert event.failed_detector == "chaos-raise"
            assert event.fallback == "ar"
            assert not event.timed_out

    def test_health_counters_surface_in_stats(self, chaos_run):
        __, __, pipeline, __r = chaos_run
        stats = pipeline.stats()
        assert stats["health"]["fallbacks"] == len(pipeline.health.fallbacks)
        assert stats["health"]["quarantines"] == len(pipeline.health.quarantines)
        assert stats["health"]["dead_channels"] >= 1


class TestSupportRenormalization:
    @pytest.fixture(scope="class")
    def targeted_run(self, dataset, victim):
        """Only the targeted twin dies: a controlled clean-vs-chaos pair."""
        chaotic, __ = inject_chaos(
            dataset, ChaosConfig(seed=CHAOS_SEED, dropout_sensors=(victim,))
        )
        pipeline = HierarchicalDetectionPipeline(chaotic)
        return pipeline, pipeline.run()

    def test_support_within_tolerance_of_fault_free_run(
        self, dataset, victim, clean_run, targeted_run
    ):
        __, clean_reports = clean_run
        pipeline, chaos_reports = targeted_run
        assert victim in pipeline.health.dead_channels

        process = {
            (f.machine_id, f.job_index, f.phase_name)
            for f in dataset.faults_of_kind(FaultKind.PROCESS)
        }
        assert process  # the scenario relies on real faults existing

        def fault_supports(reports):
            out = {}
            for r in reports:
                c = r.candidate
                if c.sensor_id == victim or not c.sensor_id:
                    continue
                if (c.machine_id, c.job_index, c.phase_name) in process:
                    out[c.key] = r
            return out

        clean_by_key = fault_supports(clean_reports)
        chaos_by_key = fault_supports(chaos_reports)
        matched = [
            (clean_by_key[k], chaos_by_key[k])
            for k in clean_by_key.keys() & chaos_by_key.keys()
            # well-supported real faults: a majority of the redundancy
            # group agreed before the infrastructure fault
            if clean_by_key[k].support >= 0.7
        ]
        assert matched  # the comparison must actually cover real faults
        for clean_r, chaos_r in matched:
            assert abs(chaos_r.support - clean_r.support) <= 0.1

    def test_divisor_shrinks_for_candidates_near_the_victim(
        self, dataset, victim, clean_run, targeted_run
    ):
        __, clean_reports = clean_run
        __, chaos_reports = targeted_run
        machine_id = next(dataset.iter_machines()).machine_id
        clean = {
            r.candidate.key: r for r in clean_reports
            if r.candidate.machine_id == machine_id
            and r.candidate.sensor_id
            and "chamber_temp" in r.candidate.sensor_id
            and r.candidate.sensor_id != victim
        }
        chaos = {r.candidate.key: r for r in chaos_reports}
        compared = 0
        for key, clean_r in clean.items():
            chaos_r = chaos.get(key)
            if chaos_r is None or clean_r.n_corresponding == 0:
                continue
            # the dead twin left the divisor: one fewer corresponding vote
            assert chaos_r.n_corresponding == clean_r.n_corresponding - 1
            compared += 1
        assert compared > 0


class TestDeterminism:
    def test_reports_byte_identical_across_repeated_seeded_runs(
        self, dataset, victim
    ):
        __, __, pipeline_a, reports_a = _chaos_pipeline(dataset, victim)
        __, __, pipeline_b, reports_b = _chaos_pipeline(dataset, victim)
        json_a = reports_to_json(reports_a, health=pipeline_a.health)
        json_b = reports_to_json(reports_b, health=pipeline_b.health)
        assert json_a.encode("utf-8") == json_b.encode("utf-8")
