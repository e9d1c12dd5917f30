"""Integration-grade tests of the plant simulator (uses the shared run)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.plant import (
    ENV_STEP,
    FaultKind,
    PlantConfig,
    simulate_plant,
)
from repro.synthetic import OutlierType


class TestStructure:
    def test_dimensions(self, small_plant):
        assert len(small_plant.lines) == 2
        machines = list(small_plant.iter_machines())
        assert len(machines) == 4
        assert all(len(m.jobs) == 6 for m in machines)

    def test_every_job_has_five_phases(self, small_plant):
        for job in small_plant.iter_jobs():
            assert [p.name for p in job.phases] == [
                "preparation", "warmup", "calibration", "printing", "cooldown"
            ]

    def test_phase_series_lengths_match_specs(self, small_plant):
        job = next(small_plant.iter_jobs())
        for phase, expected in zip(job.phases, (60, 120, 80, 400, 140)):
            for series in phase.series.values():
                assert len(series) == expected

    def test_phases_are_contiguous_in_time(self, small_plant):
        for job in small_plant.iter_jobs():
            for a, b in zip(job.phases, job.phases[1:]):
                first = next(iter(a.series.values()))
                assert b.start == pytest.approx(a.start + first.duration)

    def test_jobs_back_to_back(self, small_plant):
        machine = next(small_plant.iter_machines())
        for a, b in zip(machine.jobs, machine.jobs[1:]):
            assert b.start == pytest.approx(a.end)

    def test_environment_covers_horizon(self, small_plant):
        machine = next(small_plant.iter_machines())
        horizon = machine.jobs[-1].end
        env = small_plant.environment_series("line-0")
        for series in env.values():
            assert series.step == ENV_STEP
            assert series.end >= horizon

    def test_redundant_sensors_share_group(self, small_plant):
        machine = next(small_plant.iter_machines())
        groups = machine.redundancy_groups()
        chamber = groups[f"{machine.machine_id}/chamber_temp"]
        assert len(chamber) == 2


class TestSignals:
    def test_warmup_actually_warms_up(self, small_plant):
        job = next(small_plant.iter_jobs())
        warmup = job.phase("warmup")
        sensor = next(s for sid, s in warmup.series.items() if "chamber_temp" in sid)
        assert sensor.values[-10:].mean() > sensor.values[:10].mean() + 10

    def test_redundant_sensors_strongly_correlated(self, small_plant):
        job = next(small_plant.iter_jobs())
        printing = job.phase("printing")
        pair = sorted(sid for sid in printing.series if "chamber_temp" in sid)
        a = printing.series[pair[0]].values
        b = printing.series[pair[1]].values
        assert np.corrcoef(a, b)[0, 1] > 0.8

    def test_events_match_phase_grammar(self, small_plant):
        job = next(small_plant.iter_jobs())
        printing = job.phase("printing")
        observed = set(printing.events.symbols)
        allowed = {"layer_start", "hatch", "contour", "recoat", "error_retry"}
        assert observed <= allowed

    def test_laser_off_outside_work_phases(self, small_plant):
        job = next(small_plant.iter_jobs())
        prep = job.phase("preparation")
        laser = next(s for sid, s in prep.series.items() if "laser_power" in sid)
        assert abs(laser.mean()) < 3.0


class TestGroundTruth:
    def test_fault_rates_scale(self):
        cfg = PlantConfig(
            seed=5, n_lines=1, machines_per_line=2, jobs_per_machine=30,
        )
        ds = simulate_plant(cfg)
        n_jobs = 60
        n_process = len(ds.faults_of_kind(FaultKind.PROCESS))
        n_sensor = len(ds.faults_of_kind(FaultKind.SENSOR))
        # default rates are 8% per job; allow generous sampling slack
        assert 0 < n_process < n_jobs * 0.25
        assert 0 < n_sensor < n_jobs * 0.25

    def test_process_fault_visible_in_both_redundant_sensors(self, small_plant):
        from repro.detectors import ARDetector

        checked = 0
        for fault in small_plant.faults_of_kind(FaultKind.PROCESS):
            if fault.redundancy_group != "chamber_temp":
                continue
            if fault.outlier_type not in (OutlierType.ADDITIVE, OutlierType.LEVEL_SHIFT):
                continue
            phase = small_plant.phase_series(
                fault.machine_id, fault.job_index, fault.phase_name
            )
            pair = [s for sid, s in phase.series.items() if "chamber_temp" in sid]
            for series in pair:
                scores = ARDetector(order=2).fit_score_series(series)
                window = scores[max(0, fault.onset - 2) : fault.onset + 3]
                assert window.max() > 3.0
            checked += 1
        # the shared fixture is seeded so at least one such fault exists
        assert checked >= 1

    def test_sensor_fault_absent_from_twin_sensor(self, small_plant):
        for fault in small_plant.faults_of_kind(FaultKind.SENSOR):
            if fault.redundancy_group != "chamber_temp":
                continue
            if fault.outlier_type is not OutlierType.ADDITIVE:
                continue
            phase = small_plant.phase_series(
                fault.machine_id, fault.job_index, fault.phase_name
            )
            twin = next(
                s for sid, s in phase.series.items()
                if "chamber_temp" in sid and sid != fault.sensor_id
            )
            faulty = phase.series[fault.sensor_id]
            diff = np.abs(faulty.values - twin.values)
            # the disagreement at the fault instant dwarfs typical noise
            assert diff[fault.onset] > 4 * np.median(diff)

    def test_process_faults_degrade_quality(self):
        cfg = PlantConfig(
            seed=19, n_lines=2, machines_per_line=3, jobs_per_machine=12,
        )
        ds = simulate_plant(cfg)
        dims, labels = [], []
        fault_jobs = {
            (f.machine_id, f.job_index)
            for f in ds.faults_of_kind(FaultKind.PROCESS)
        }
        for job in ds.iter_jobs():
            dims.append(job.caq.measurements["dimension_error_um"])
            labels.append((job.machine_id, job.job_index) in fault_jobs)
        dims = np.asarray(dims)
        labels = np.asarray(labels)
        assert labels.any()
        assert dims[labels].mean() > dims[~labels].mean()

    def test_deterministic_given_seed(self):
        cfg = PlantConfig(seed=3, n_lines=1, machines_per_line=1, jobs_per_machine=2)
        a = simulate_plant(cfg)
        b = simulate_plant(cfg)
        ja = next(a.iter_jobs())
        jb = next(b.iter_jobs())
        assert ja.setup == jb.setup
        sa = next(iter(ja.phases[0].series.values()))
        sb = next(iter(jb.phases[0].series.values()))
        assert np.array_equal(sa.values, sb.values)
        assert len(a.faults) == len(b.faults)


class TestLevelViews:
    def test_job_table_width(self, small_plant):
        machine = next(small_plant.iter_machines())
        table = small_plant.job_table(machine.machine_id)
        assert table.shape == (6, len(small_plant.setup_keys) + len(small_plant.caq_keys))

    def test_jobs_over_time_sorted(self, small_plant):
        __, identity = small_plant.jobs_over_time("line-0")
        machine_jobs = {}
        for machine_id, job_index in identity:
            machine_jobs.setdefault(machine_id, []).append(job_index)
        for indices in machine_jobs.values():
            assert indices == sorted(indices)

    def test_production_panel_one_row_per_machine(self, small_plant):
        panel, ids = small_plant.production_panel()
        assert panel.shape[0] == len(ids) == 4

    def test_unknown_ids_raise(self, small_plant):
        with pytest.raises(KeyError):
            small_plant.machine("nope")
        with pytest.raises(KeyError):
            small_plant.job("line-0/machine-0", 999)
        with pytest.raises(KeyError):
            small_plant.environment_series("nope")
