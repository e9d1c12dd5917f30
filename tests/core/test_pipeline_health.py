"""RunHealth wiring through the pipeline, alerts, and JSON export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    CorrespondenceGraph,
    HierarchicalDetectionPipeline,
    OutlierCandidate,
    ProductionLevel,
    RunHealth,
    SupportCalculator,
)
from repro.core.resilience import FallbackEvent
from repro.io import reports_to_json
from repro.monitor import AlertManager, Severity
from repro.plant import ChaosConfig, FaultConfig, PlantConfig, inject_chaos, simulate_plant


@pytest.fixture(scope="module")
def tiny_plant():
    config = PlantConfig(
        seed=29, n_lines=1, machines_per_line=2, jobs_per_machine=3,
        faults=FaultConfig(0.2, 0.2, 0.0),
    )
    return simulate_plant(config)


@pytest.fixture(scope="module")
def dead_channel_run(tiny_plant):
    """One pipeline run with a single deterministically killed channel."""
    machine = next(tiny_plant.iter_machines())
    victim = machine.channels[0].sensor_id
    chaotic, events = inject_chaos(
        tiny_plant, ChaosConfig(seed=0, dropout_sensors=(victim,))
    )
    pipeline = HierarchicalDetectionPipeline(chaotic)
    reports = pipeline.run()
    return victim, events, pipeline, reports


class TestCleanRunHealth:
    def test_clean_plant_reports_pristine_health(self, small_plant):
        pipeline = HierarchicalDetectionPipeline(small_plant)
        pipeline.run()
        assert not pipeline.health.degraded
        health = pipeline.stats()["health"]
        for key in (
            "fallbacks", "quarantines", "dead_channels",
            "warnings", "degraded_levels",
        ):
            assert health[key] == 0


class TestDeadChannelQuarantine:
    def test_channel_quarantined_and_excluded(self, dead_channel_run):
        victim, events, pipeline, reports = dead_channel_run
        assert any(e.kind == "dropout" and e.sensor_id == victim for e in events)
        health = pipeline.health
        # every all-NaN trace is quarantined, plus the wholesale record
        assert victim in health.quarantined_channels
        assert victim in health.dead_channels
        assert pipeline.stats()["health"]["quarantines"] > 0
        # the dead channel never produces candidates
        assert all(r.candidate.sensor_id != victim for r in reports)

    def test_dead_channel_does_not_vote_in_support(self, dead_channel_run):
        victim, __, pipeline, __reports = dead_channel_run
        calc = pipeline.context._plant.support_calc
        assert victim in calc.excluded

    def test_support_calculator_excluded_channels(self):
        graph = CorrespondenceGraph()
        graph.add_correspondence("a", "b")
        graph.add_correspondence("a", "c")
        scores = np.zeros(100)
        scores[50] = 10.0
        lookup = lambda cid, t: (scores, 5.0, 0.0, 1.0)
        full = SupportCalculator(graph, lookup).support_for("a", 50.0)
        assert full.n_corresponding == 2
        renorm = SupportCalculator(graph, lookup, excluded={"b"}).support_for("a", 50.0)
        assert renorm.n_corresponding == 1  # b's vote removed from the divisor


class TestUnknownJobWarning:
    def test_candidate_with_unknown_job_warns_instead_of_silence(self, small_plant):
        pipeline = HierarchicalDetectionPipeline(small_plant)
        context = pipeline.context
        machine_id = next(small_plant.iter_machines()).machine_id
        ghost = OutlierCandidate(
            level=ProductionLevel.JOB, outlierness=1.0,
            machine_id=machine_id, job_index=999,
        )
        assert context._candidate_time(ghost) is None
        assert any("unknown job" in w for w in context.health.warnings)
        assert f"{machine_id}/job999" in context.health.warnings[-1]


class TestHealthAlerts:
    def _degraded_health(self) -> RunHealth:
        health = RunHealth()
        health.record_quarantine("line0/m0/temp-0", "channel", "dead")
        health.record_fallback(
            FallbackEvent("PHASE", "u", "ar", "DetectorError: x", "zscore")
        )
        health.note_level("PHASE", "scored with the terminal robust baseline")
        health.warn("repaired something")
        return health

    def test_ingest_health_opens_alerts(self):
        manager = AlertManager()
        touched = manager.ingest_health(self._degraded_health())
        keys = {a.key for a in touched}
        assert "health/quarantine/line0/m0/temp-0" in keys
        assert "health/degraded/PHASE" in keys
        assert "health/fallbacks" in keys
        severities = {a.key: a.severity for a in manager.all_alerts()}
        assert severities["health/quarantine/line0/m0/temp-0"] is Severity.WARNING
        assert severities["health/fallbacks"] is Severity.INFO

    def test_reingest_dedups(self):
        manager = AlertManager()
        health = self._degraded_health()
        manager.ingest_health(health)
        n = len(manager)
        manager.ingest_health(health)
        assert len(manager) == n
        quarantine = next(
            a for a in manager.all_alerts() if a.key.startswith("health/quarantine")
        )
        assert quarantine.occurrences == 2
        assert not quarantine.is_measurement_suspect  # report-less alert

    def test_pristine_health_opens_nothing(self):
        manager = AlertManager()
        assert manager.ingest_health(RunHealth()) == []
        assert len(manager) == 0


class TestHealthExport:
    def test_reports_to_json_embeds_run_health(self, dead_channel_run):
        __, __, pipeline, reports = dead_channel_run
        doc = json.loads(reports_to_json(reports, health=pipeline.health))
        telemetry = doc["telemetry"]
        assert telemetry["run_health"]["degraded"] is True
        assert telemetry["run_health"]["counters"]["health_quarantines"] > 0

    def test_reports_to_json_embeds_cache_stats(self, dead_channel_run):
        __, __, pipeline, reports = dead_channel_run
        doc = json.loads(
            reports_to_json(
                reports, health=pipeline.health, stats=pipeline.stats()
            )
        )
        stats = doc["telemetry"]["stats"]
        assert stats["cache"]["confirm"]["calls"] >= 0
        assert stats["health"]["quarantines"] > 0

    def test_reports_to_json_without_health(self, dead_channel_run):
        __, __, __, reports = dead_channel_run
        doc = json.loads(reports_to_json(reports))
        assert "telemetry" not in doc
