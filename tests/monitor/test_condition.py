"""Unit tests for condition monitoring."""

from __future__ import annotations

from repro.core import HierarchicalOutlierReport, OutlierCandidate, ProductionLevel
from repro.monitor import ConditionMonitor, HealthStatus

L = ProductionLevel


def report(machine="m", global_score=1, outlierness=0.5, support=0.0,
           n_corr=0, warning=False):
    return HierarchicalOutlierReport(
        candidate=OutlierCandidate(
            level=L.PHASE, outlierness=outlierness, machine_id=machine,
            job_index=0, phase_name="printing", sensor_id=f"{machine}/s", index=1,
        ),
        global_score=global_score,
        outlierness=outlierness,
        support=support,
        n_corresponding=n_corr,
        measurement_warning=warning,
    )


class TestHealthStatus:
    def test_bands(self):
        assert HealthStatus.from_score(0.9) is HealthStatus.HEALTHY
        assert HealthStatus.from_score(0.5) is HealthStatus.DEGRADED
        assert HealthStatus.from_score(0.1) is HealthStatus.CRITICAL


class TestConditionMonitor:
    def test_no_reports_is_perfect_health(self):
        mon = ConditionMonitor()
        cond = mon.condition_of("ghost")
        assert cond.health == 1.0
        assert cond.status is HealthStatus.HEALTHY
        assert cond.worst_location == "-"

    def test_confirmed_reports_cost_more_than_unconfirmed(self):
        a = ConditionMonitor()
        a.ingest([report("m", global_score=1)] * 3)
        b = ConditionMonitor()
        b.ingest([report("m", global_score=4, support=1.0, n_corr=2)] * 3)
        assert a.condition_of("m").health > b.condition_of("m").health

    def test_suspect_measurements_barely_cost(self):
        clean = ConditionMonitor()
        noisy = ConditionMonitor()
        noisy.ingest([report("m", support=0.0, n_corr=2)] * 10)
        assert noisy.condition_of("m").health > 0.7
        assert noisy.condition_of("m").n_suspect_measurements == 10
        assert clean.condition_of("m").health == 1.0

    def test_health_monotone_in_report_count(self):
        mon = ConditionMonitor()
        previous = 1.0
        for _ in range(5):
            mon.ingest([report("m", global_score=2, support=1.0, n_corr=2)])
            health = mon.condition_of("m").health
            assert health < previous
            previous = health

    def test_fleet_sorted_least_healthy_first(self):
        mon = ConditionMonitor()
        mon.ingest([report("sick", global_score=4, support=1.0, n_corr=2)] * 4)
        mon.ingest([report("fine", global_score=1, outlierness=0.2)])
        fleet = mon.fleet()
        assert [c.machine_id for c in fleet] == ["sick", "fine"]

    def test_worst_location_is_most_confirmed(self):
        mon = ConditionMonitor()
        weak = report("m", global_score=1)
        strong = HierarchicalOutlierReport(
            candidate=OutlierCandidate(
                level=L.PHASE, outlierness=0.9, machine_id="m",
                job_index=7, phase_name="warmup", sensor_id="m/x", index=5,
            ),
            global_score=3,
            outlierness=0.9,
            support=1.0,
            n_corresponding=2,
        )
        mon.ingest([weak, strong])
        assert "job7" in mon.condition_of("m").worst_location

    def test_machines_listing(self):
        mon = ConditionMonitor()
        mon.ingest([report("b"), report("a")])
        assert mon.machines() == ["a", "b"]

    def test_plant_integration(self, small_plant):
        from repro.core import HierarchicalDetectionPipeline

        reports = HierarchicalDetectionPipeline(small_plant).run()
        mon = ConditionMonitor()
        mon.ingest(reports)
        fleet = mon.fleet()
        assert len(fleet) >= 1
        for cond in fleet:
            assert 0.0 < cond.health <= 1.0
