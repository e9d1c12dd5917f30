"""Unit tests for report explanations."""

from __future__ import annotations

from repro.core import (
    HierarchicalOutlierReport,
    LevelConfirmation,
    OutlierCandidate,
    ProductionLevel,
    explain_report,
)
from repro.core.types import TypeClassification
from repro.synthetic import OutlierType

L = ProductionLevel


def make_report(**kw):
    defaults = dict(
        candidate=OutlierCandidate(
            level=L.PHASE, outlierness=0.9, machine_id="m", job_index=1,
            phase_name="printing", sensor_id="m/chamber_temp-0", index=42,
            detector="ar",
        ),
        global_score=1,
        outlierness=0.9,
        support=0.0,
        n_corresponding=0,
    )
    defaults.update(kw)
    return HierarchicalOutlierReport(**defaults)


class TestExplainReport:
    def test_mentions_location_and_detector(self):
        text = explain_report(make_report())
        assert "job1" in text
        assert "'ar' detector" in text

    def test_confirmations_listed(self):
        report = make_report(
            global_score=2,
            confirmations=(
                LevelConfirmation(L.JOB, True, 0.8, note="CAQ row flagged"),
                LevelConfirmation(L.ENVIRONMENT, False, 0.1),
            ),
        )
        text = explain_report(report)
        assert "+ confirmed at the job level" in text
        assert "- not seen at the environment level" in text

    def test_supporters_named(self):
        report = make_report(
            support=0.5, n_corresponding=2,
            supporters=("m/chamber_temp-1",),
        )
        text = explain_report(report)
        assert "1 of 2 corresponding sensor(s)" in text
        assert "chamber_temp-1" in text

    def test_no_redundancy_statement(self):
        text = explain_report(make_report(n_corresponding=0))
        assert "no corresponding sensors" in text

    def test_measurement_warning_verdict(self):
        report = make_report(measurement_warning=True,
                             warning_reason="nothing below")
        assert "wrong measurement" in explain_report(report)

    def test_unsupported_redundant_verdict(self):
        report = make_report(support=0.0, n_corresponding=2)
        assert "measurement error" in explain_report(report)

    def test_confirmed_verdict(self):
        report = make_report(global_score=3, support=1.0, n_corresponding=2,
                             supporters=("a", "b"))
        assert "real process anomaly" in explain_report(report)

    def test_isolated_verdict(self):
        assert "isolated finding" in explain_report(make_report())

    def test_classification_section(self):
        cls = TypeClassification(
            outlier_type=OutlierType.LEVEL_SHIFT,
            magnitude=4.2,
            errors={},
            confidence=0.8,
        )
        text = explain_report(make_report(), cls)
        assert "level_shift" in text
        assert "configuration or hardware change" in text

    def test_temporary_change_advice(self):
        cls = TypeClassification(
            outlier_type=OutlierType.TEMPORARY_CHANGE,
            magnitude=-2.0,
            errors={},
            confidence=0.6,
        )
        assert "transient disturbance" in explain_report(make_report(), cls)
