"""Unit tests for alert management."""

from __future__ import annotations

import pytest

from repro.core import HierarchicalOutlierReport, OutlierCandidate, ProductionLevel
from repro.monitor import AlertManager, AlertState, Severity, triple_severity

L = ProductionLevel


def report(machine="m", job=0, phase="printing", sensor="m/chamber_temp-0",
           global_score=1, outlierness=0.5, support=0.0, n_corr=0,
           warning=False):
    return HierarchicalOutlierReport(
        candidate=OutlierCandidate(
            level=L.PHASE, outlierness=outlierness, machine_id=machine,
            job_index=job, phase_name=phase, sensor_id=sensor, index=10,
        ),
        global_score=global_score,
        outlierness=outlierness,
        support=support,
        n_corresponding=n_corr,
        measurement_warning=warning,
    )


class TestSeverityMapping:
    def test_confirmed_everywhere_is_critical(self):
        r = report(global_score=4, outlierness=0.9, support=1.0, n_corr=2)
        assert triple_severity(r) is Severity.CRITICAL

    def test_unsupported_on_redundant_pair_is_info(self):
        r = report(global_score=2, outlierness=0.95, support=0.0, n_corr=2)
        assert triple_severity(r) is Severity.INFO

    def test_measurement_warning_is_info(self):
        r = report(global_score=3, outlierness=0.95, warning=True)
        assert triple_severity(r) is Severity.INFO

    def test_moderate_evidence_is_warning(self):
        r = report(global_score=2, outlierness=0.7, support=0.5, n_corr=0)
        assert triple_severity(r) is Severity.WARNING

    def test_weak_single_level_is_info(self):
        r = report(global_score=1, outlierness=0.3)
        assert triple_severity(r) is Severity.INFO


class TestIngestAndDedup:
    def test_new_reports_create_alerts(self):
        mgr = AlertManager()
        new = mgr.ingest([report(sensor="m/a"), report(sensor="m/b")])
        assert len(new) == 2
        assert len(mgr) == 2

    def test_same_location_deduplicates(self):
        mgr = AlertManager()
        mgr.ingest([report()])
        new = mgr.ingest([report()])
        assert new == []  # same severity, no re-notification
        assert len(mgr) == 1
        assert mgr.all_alerts()[0].occurrences == 2

    def test_escalation_renotifies(self):
        mgr = AlertManager()
        mgr.ingest([report(global_score=1, outlierness=0.2)])
        new = mgr.ingest([report(global_score=4, outlierness=0.9, support=1.0, n_corr=2)])
        assert len(new) == 1
        assert new[0].severity is Severity.CRITICAL

    def test_min_severity_filter(self):
        mgr = AlertManager(min_severity=Severity.WARNING)
        new = mgr.ingest([report(global_score=1, outlierness=0.1)])
        assert new == [] and len(mgr) == 0

    def test_resolved_alert_reopens(self):
        mgr = AlertManager()
        (alert,) = mgr.ingest([report()])
        mgr.resolve(alert.alert_id)
        new = mgr.ingest([report()])
        assert len(new) == 1
        assert new[0].state is AlertState.OPEN


class TestLifecycle:
    def test_acknowledge_and_resolve(self):
        mgr = AlertManager()
        (alert,) = mgr.ingest([report()])
        mgr.acknowledge(alert.alert_id, note="looking into it")
        assert alert.state is AlertState.ACKNOWLEDGED
        assert alert.note == "looking into it"
        mgr.resolve(alert.alert_id)
        assert alert.state is AlertState.RESOLVED

    def test_cannot_acknowledge_resolved(self):
        mgr = AlertManager()
        (alert,) = mgr.ingest([report()])
        mgr.resolve(alert.alert_id)
        with pytest.raises(ValueError):
            mgr.acknowledge(alert.alert_id)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            AlertManager().resolve(999)

    def test_resolved_not_in_open_list(self):
        mgr = AlertManager()
        (alert,) = mgr.ingest([report()])
        mgr.resolve(alert.alert_id)
        assert mgr.open_alerts() == []

    def test_counts_by_severity(self):
        mgr = AlertManager()
        mgr.ingest([
            report(sensor="m/a", global_score=4, outlierness=0.9, support=1.0, n_corr=2),
            report(sensor="m/b", global_score=1, outlierness=0.2),
        ])
        counts = mgr.counts_by_severity()
        assert counts[Severity.CRITICAL] == 1
        assert counts[Severity.INFO] == 1

    def test_open_alerts_ordered_by_severity(self):
        mgr = AlertManager()
        mgr.ingest([
            report(sensor="m/low", global_score=1, outlierness=0.2),
            report(sensor="m/high", global_score=4, outlierness=0.9, support=1.0, n_corr=2),
        ])
        ordered = mgr.open_alerts()
        assert ordered[0].severity is Severity.CRITICAL

    def test_suspect_flag(self):
        mgr = AlertManager()
        (alert,) = mgr.ingest([report(support=0.0, n_corr=2)])
        assert alert.is_measurement_suspect
        assert "suspect" in alert.describe()
