"""Robustness and generality: custom plants, missing data, degenerate input."""

from __future__ import annotations

import numpy as np

from repro.core import (
    CorrespondenceGraph,
    HierarchicalDetectionPipeline,
    SupportCalculator,
)
from repro.detectors import ARDetector, KNNDetector
from repro.plant import (
    FaultConfig,
    PhaseSpec,
    PlantConfig,
    SensorSpec,
    simulate_plant,
)
from repro.timeseries import TimeSeries


class TestCustomPlantConfigs:
    def test_triple_redundancy_support_fractions(self):
        """Three redundant chamber sensors → support can be 0.5 etc."""
        sensors = (
            SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
            SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
            SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
            SensorSpec("bed_temp", "degC", "bed_temp", 0.3),
        )
        config = PlantConfig(
            seed=9, n_lines=1, machines_per_line=1, jobs_per_machine=4,
            sensors=sensors,
            faults=FaultConfig(0.5, 0.5, 0.0),
        )
        dataset = simulate_plant(config)
        machine = next(dataset.iter_machines())
        groups = machine.redundancy_groups()
        chamber = groups[f"{machine.machine_id}/chamber_temp"]
        assert len(chamber) == 3
        graph = CorrespondenceGraph.from_plant(dataset)
        # each chamber sensor corresponds to its two twins + room_temp
        peers = graph.corresponding(chamber[0].sensor_id)
        assert len([p for p in peers if "/env/" not in p]) == 2

        pipeline = HierarchicalDetectionPipeline(dataset)
        reports = pipeline.run()
        chamber_reports = [
            r for r in reports if "chamber_temp" in r.candidate.sensor_id
        ]
        for r in chamber_reports:
            assert r.n_corresponding >= 2  # twins (room may not vote everywhere)

    def test_single_machine_single_job(self):
        config = PlantConfig(
            seed=13, n_lines=1, machines_per_line=1, jobs_per_machine=1,
            faults=FaultConfig(0.9, 0.0, 0.0),
        )
        dataset = simulate_plant(config)
        pipeline = HierarchicalDetectionPipeline(dataset)
        reports = pipeline.run()  # must not crash on n=1 statistics
        for r in reports:
            assert 1 <= r.global_score <= 5

    def test_custom_phase_plan(self):
        phases = (
            PhaseSpec(
                "warmup", duration=100,
                profiles={"chamber_temp": (20.0, 0.4, 0.0, 0.0),
                          "bed_temp": (20.0, 0.6, 0.0, 0.0),
                          "laser_power": (0.0, 0.0, 0.0, 0.0),
                          "vibration": (0.2, 0.0, 0.0, 0.0)},
            ),
            PhaseSpec(
                "printing", duration=200,
                profiles={"chamber_temp": (60.0, 0.0, 1.0, 40.0),
                          "bed_temp": (80.0, 0.0, 0.0, 0.0),
                          "laser_power": (150.0, 0.0, 10.0, 40.0),
                          "vibration": (1.0, 0.0, 0.2, 40.0)},
                event_codes=("layer", "recoat"),
            ),
        )
        config = PlantConfig(
            seed=17, n_lines=1, machines_per_line=2, jobs_per_machine=3,
            phases=phases, faults=FaultConfig(0.3, 0.3, 0.1),
        )
        dataset = simulate_plant(config)
        job = next(dataset.iter_jobs())
        assert [p.name for p in job.phases] == ["warmup", "printing"]
        # CAQ needs the printing phase to exist — phases[-2] convention
        assert all(j.caq.measurements for j in dataset.iter_jobs())


class TestMissingData:
    def test_ar_detector_tolerates_nans(self, rng):
        values = rng.normal(0, 1, 400)
        values[100:110] = np.nan
        values[300] = 12.0
        scores = ARDetector().fit_score_series(TimeSeries(values))
        assert np.isfinite(scores).all()
        assert scores[300] > 5.0

    def test_knn_localization_with_nans(self, rng):
        values = rng.normal(0, 1, 300)
        values[50] = np.nan
        values[200] = 15.0
        scores = KNNDetector().fit_score_series(TimeSeries(values), width=8)
        assert np.isfinite(scores).all()
        assert scores.argmax() in range(193, 208)

    def test_support_with_unscored_channel(self):
        graph = CorrespondenceGraph()
        graph.add_correspondence("a", "ghost")
        calc = SupportCalculator(graph, lambda cid, t: None)
        result = calc.support_for("a", 0.0)
        assert result.n_corresponding == 0


class TestDegenerateInputs:
    def test_pipeline_with_zero_faults(self):
        config = PlantConfig(
            seed=19, n_lines=1, machines_per_line=2, jobs_per_machine=4,
            faults=FaultConfig(0.0, 0.0, 0.0),
        )
        dataset = simulate_plant(config)
        assert dataset.faults == []
        pipeline = HierarchicalDetectionPipeline(dataset)
        reports = pipeline.run()  # noise candidates only; must not crash
        flat = pipeline.flat_baseline()
        assert len(flat) == len(reports)

    def test_constant_series_scores_flat(self):
        series = TimeSeries(np.full(200, 42.0))
        scores = ARDetector().fit_score_series(series)
        assert np.allclose(scores, 0.0)

    def test_detector_on_single_feature(self, rng):
        X = rng.normal(size=(50, 1))
        X[10] = 20.0
        scores = KNNDetector(k=3).fit_score(X)
        assert scores.argmax() == 10
