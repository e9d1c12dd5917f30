"""Unit tests for outlier records and report ranking."""

from __future__ import annotations

from repro.core import (
    HierarchicalOutlierReport,
    OutlierCandidate,
    ProductionLevel,
    rank_reports,
)

L = ProductionLevel


def make_report(global_score=1, outlierness=0.5, support=0.0, n_corr=0,
                machine="m", warning=False):
    return HierarchicalOutlierReport(
        candidate=OutlierCandidate(level=L.PHASE, outlierness=outlierness,
                                   machine_id=machine),
        global_score=global_score,
        outlierness=outlierness,
        support=support,
        n_corresponding=n_corr,
        measurement_warning=warning,
    )


class TestCandidate:
    def test_location_string(self):
        c = OutlierCandidate(
            level=L.PHASE, outlierness=1.0, machine_id="line-0/machine-1",
            job_index=3, phase_name="printing",
            sensor_id="line-0/machine-1/chamber_temp-0", index=42,
        )
        loc = c.location
        assert "job3" in loc and "printing" in loc and "t=42" in loc
        assert "chamber_temp-0" in loc

    def test_minimal_location(self):
        c = OutlierCandidate(level=L.PRODUCTION, outlierness=1.0, machine_id="m")
        assert c.location == "m"


class TestReport:
    def test_triple(self):
        r = make_report(global_score=3, outlierness=0.7, support=0.5)
        assert r.triple == (3, 0.7, 0.5)

    def test_effective_support(self):
        assert make_report(support=0.0, n_corr=0).effective_support == 0.5
        assert make_report(support=0.0, n_corr=2).effective_support == 0.0
        assert make_report(support=1.0, n_corr=2).effective_support == 1.0

    def test_describe_flags_warning(self):
        assert "warning" in make_report(warning=True).describe()
        assert "warning" not in make_report(warning=False).describe()


class TestRanking:
    def test_global_score_dominates_outlierness(self):
        weak_but_confirmed = make_report(global_score=5, outlierness=0.4, machine="a")
        strong_but_lonely = make_report(global_score=1, outlierness=0.9, machine="b")
        ranked = rank_reports([strong_but_lonely, weak_but_confirmed])
        assert ranked[0].candidate.machine_id == "a"

    def test_support_breaks_ties(self):
        supported = make_report(support=1.0, n_corr=2, machine="a")
        unsupported = make_report(support=0.0, n_corr=2, machine="b")
        ranked = rank_reports([unsupported, supported])
        assert ranked[0].candidate.machine_id == "a"

    def test_custom_weights(self):
        high_outlier = make_report(outlierness=1.0, machine="a")
        high_global = make_report(global_score=5, outlierness=0.1, machine="b")
        ranked = rank_reports(
            [high_outlier, high_global],
            weights={"global": 0.0, "outlierness": 1.0, "support": 0.0},
        )
        assert ranked[0].candidate.machine_id == "a"

    def test_empty_input(self):
        assert rank_reports([]) == []
