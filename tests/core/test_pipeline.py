"""Integration tests of the end-to-end plant pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HierarchicalDetectionPipeline,
    PipelineConfig,
    ProductionLevel,
)
from repro.plant import FaultKind

L = ProductionLevel


@pytest.fixture(scope="module")
def pipeline():
    from repro.plant import FaultConfig, PlantConfig, simulate_plant

    config = PlantConfig(
        seed=11,
        n_lines=2,
        machines_per_line=2,
        jobs_per_machine=6,
        faults=FaultConfig(
            process_fault_rate=0.2, sensor_fault_rate=0.2, setup_anomaly_rate=0.1
        ),
    )
    return HierarchicalDetectionPipeline(simulate_plant(config))


class TestReports:
    def test_reports_produced_and_ranked(self, pipeline):
        reports = pipeline.run()
        assert len(reports) > 0
        for r in reports:
            g, o, s = r.triple
            assert 1 <= g <= 5
            assert 0.0 <= o <= 1.0
            assert 0.0 <= s <= 1.0

    def test_phase_candidates_cover_most_injected_faults(self, pipeline):
        found = {
            (r.candidate.machine_id, r.candidate.job_index, r.candidate.phase_name)
            for r in pipeline.run()
        }
        signal_faults = [
            f for f in pipeline.dataset.faults
            if f.kind in (FaultKind.PROCESS, FaultKind.SENSOR)
        ]
        covered = sum(
            (f.machine_id, f.job_index, f.phase_name) in found
            for f in signal_faults
        )
        assert covered / len(signal_faults) >= 0.5

    def test_support_separates_fault_classes(self, pipeline):
        reports = pipeline.run()
        process = {
            (f.machine_id, f.job_index, f.phase_name)
            for f in pipeline.dataset.faults_of_kind(FaultKind.PROCESS)
            if f.redundancy_group == "chamber_temp"
        }
        sensor = {
            (f.machine_id, f.job_index, f.phase_name)
            for f in pipeline.dataset.faults_of_kind(FaultKind.SENSOR)
            if f.redundancy_group == "chamber_temp"
        }
        proc_support = [
            r.support for r in reports if r.n_corresponding > 0
            and (r.candidate.machine_id, r.candidate.job_index, r.candidate.phase_name) in process
        ]
        sens_support = [
            r.support for r in reports if r.n_corresponding > 0
            and (r.candidate.machine_id, r.candidate.job_index, r.candidate.phase_name) in sensor
        ]
        if proc_support and sens_support:
            assert np.mean(proc_support) > np.mean(sens_support)

    def test_flat_baseline_has_no_hierarchy_information(self, pipeline):
        flat = pipeline.flat_baseline()
        assert all(r.global_score == 1 for r in flat)
        assert all(r.n_corresponding == 0 for r in flat)
        scores = [r.outlierness for r in flat]
        assert scores == sorted(scores, reverse=True)

    def test_job_level_start_produces_warnings_for_quality_only_anomalies(self, pipeline):
        reports = pipeline.run(start_level=L.JOB)
        assert len(reports) > 0
        # setup anomalies have no phase-level signature: the downward walk
        # must flag at least one job-level candidate as a possible wrong
        # measurement if any setup anomaly was flagged
        setup_jobs = {
            (f.machine_id, f.job_index)
            for f in pipeline.dataset.faults_of_kind(FaultKind.SETUP)
        }
        flagged_setup = [
            r for r in reports
            if (r.candidate.machine_id, r.candidate.job_index) in setup_jobs
        ]
        for r in flagged_setup:
            assert r.measurement_warning

    def test_fusion_strategy_changes_scores(self, pipeline):
        by_max = {r.candidate.location: r.fused_score
                  for r in pipeline.run(fusion_strategy="max")}
        by_mean = {r.candidate.location: r.fused_score
                   for r in pipeline.run(fusion_strategy="mean")}
        assert any(
            abs(by_max[k] - by_mean[k]) > 1e-9 for k in by_max
        )


class TestLevelCandidates:
    def test_every_level_can_enumerate(self, pipeline):
        for level in L:
            candidates = pipeline.context.find_candidates(level)
            for c in candidates:
                assert c.level == level

    def test_production_candidates_are_machines(self, pipeline):
        machines = {m.machine_id for m in pipeline.dataset.iter_machines()}
        for c in pipeline.context.find_candidates(L.PRODUCTION):
            assert c.machine_id in machines

    def test_confirm_rejects_unknown_level(self, pipeline):
        candidate = pipeline.context.find_candidates(L.PHASE)[0]
        with pytest.raises(ValueError):
            pipeline.context.confirm(candidate, "nope")


class TestConfig:
    def test_stricter_thresholds_fewer_candidates(self):
        from repro.plant import FaultConfig, PlantConfig, simulate_plant

        config = PlantConfig(
            seed=23, n_lines=1, machines_per_line=2, jobs_per_machine=5,
            faults=FaultConfig(process_fault_rate=0.3, sensor_fault_rate=0.3),
        )
        ds = simulate_plant(config)
        loose = HierarchicalDetectionPipeline(
            ds, config=PipelineConfig(phase_sigma=5.0)
        )
        strict = HierarchicalDetectionPipeline(
            ds, config=PipelineConfig(phase_sigma=12.0)
        )
        assert len(strict.context.phase_candidates) <= len(loose.context.phase_candidates)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("phase_sigma", float("nan")),
            ("phase_sigma", float("inf")),
            ("phase_sigma", 0.0),
            ("env_sigma", float("nan")),
            ("env_sigma", -1.0),
            ("vector_sigma", float("nan")),
            ("vector_sigma", float("-inf")),
            ("support_tolerance", float("nan")),
            ("support_tolerance", float("inf")),
            ("support_tolerance", -1.0),
            ("max_candidates_per_trace", 0),
            ("max_candidates_per_trace", -1),
            ("candidate_gap", -1),
            ("line_history", -3),
            ("executor", "thread"),
            ("executor", "greenlet"),
            ("max_workers", 0),
        ],
    )
    def test_values_that_switch_detection_off_are_rejected(self, field, value):
        # each of these used to be accepted and silently report nothing
        # (or fail only at run time, or never on the serial executor):
        # the error must name the field
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        config = PipelineConfig(
            phase_sigma=1e-3, support_tolerance=0.0, max_candidates_per_trace=1,
            candidate_gap=0, line_history=0,
        )
        assert config.max_candidates_per_trace == 1
