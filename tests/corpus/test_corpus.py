"""Unit tests for the bibliographic corpus substrate (records, queries, Fig. 3)."""

from __future__ import annotations

import pytest

from repro.corpus import (
    ACS_CATEGORY,
    FIELD_TERMS,
    TIME_SERIES_TOPIC,
    CorpusIndex,
    PaperRecord,
    Query,
    expected_counts,
    generate_corpus,
    run_fig3_queries,
)


def tiny_corpus():
    return CorpusIndex(
        [
            PaperRecord(0, ("anomaly detection",), ("time series",), ("automation control systems",)),
            PaperRecord(1, ("anomaly detection",), ("time series",), ("computer science",)),
            PaperRecord(2, ("anomaly detection",), ("statistics",), ("computer science",)),
            PaperRecord(3, ("fault detection",), ("time series",), ("automation control systems",)),
            PaperRecord(4, (), ("time series",), ()),
        ]
    )


class TestRecords:
    def test_normalization(self):
        rec = PaperRecord(0, ("  Anomaly   Detection ",), ("Time Series",), ("ACS",))
        assert rec.title_terms == ("anomaly detection",)
        assert rec.topics == ("time series",)
        assert rec.categories == ("acs",)


class TestQueryEngine:
    def test_term_only(self):
        assert tiny_corpus().count(Query(term="anomaly detection")) == 3

    def test_term_and_topic(self):
        q = Query(term="anomaly detection", topics=(TIME_SERIES_TOPIC,))
        assert tiny_corpus().count(q) == 2

    def test_full_conjunction(self):
        q = Query(
            term="anomaly detection",
            topics=(TIME_SERIES_TOPIC,),
            categories=(ACS_CATEGORY,),
        )
        assert tiny_corpus().count(q) == 1

    def test_empty_query_matches_all(self):
        assert tiny_corpus().count(Query()) == 5

    def test_unknown_term_matches_nothing(self):
        assert tiny_corpus().count(Query(term="quantum dogs")) == 0

    def test_monotone_under_relaxation(self):
        idx = tiny_corpus()
        q = Query(
            term="anomaly detection",
            topics=(TIME_SERIES_TOPIC,),
            categories=(ACS_CATEGORY,),
        )
        relaxed = Query(term=q.term, topics=q.topics)
        assert idx.count(q) <= idx.count(relaxed)
        assert idx.count(relaxed) <= idx.count(Query(term=q.term))

    def test_search_returns_ids(self):
        ids = tiny_corpus().search(Query(term="fault detection"))
        assert ids == frozenset({3})

    def test_case_insensitive(self):
        assert tiny_corpus().count(Query(term="ANOMALY detection")) == 3


class TestGenerator:
    def test_size(self):
        idx = generate_corpus(n_records=2000, seed=0)
        assert len(idx) == 2000

    def test_deterministic(self):
        a = generate_corpus(n_records=500, seed=4)
        b = generate_corpus(n_records=500, seed=4)
        qa = Query(term="fault detection")
        assert a.count(qa) == b.count(qa)

    def test_counts_near_expectation(self):
        n = 30_000
        idx = generate_corpus(n_records=n, seed=1)
        expected = expected_counts(n)
        rows = run_fig3_queries(idx)
        for row in rows:
            exp_ts, __ = expected[row.field]
            if exp_ts >= 50:
                assert row.time_series_count == pytest.approx(exp_ts, rel=0.35)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_corpus(n_records=0)

    def test_shares_must_leave_background(self):
        from repro.corpus import FieldProfile

        bad = (FieldProfile("x", 0.9, 0.5, 0.5), FieldProfile("y", 0.2, 0.5, 0.5))
        with pytest.raises(ValueError):
            generate_corpus(n_records=10, profiles=bad)


class TestFig3Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig3_queries(generate_corpus(n_records=60_000, seed=7))

    def test_eight_fields_in_paper_order(self, rows):
        assert [r.field for r in rows] == list(FIELD_TERMS)
        assert rows[0].field == "anomaly detection"
        assert rows[-1].field == "intrusion detection"

    def test_anomaly_detection_dominates(self, rows):
        counts = {r.field: r.time_series_count for r in rows}
        assert counts["anomaly detection"] == max(counts.values())

    def test_fault_detection_second(self, rows):
        counts = {r.field: r.time_series_count for r in rows}
        ordered = sorted(counts, key=counts.get, reverse=True)
        assert ordered[1] == "fault detection"

    def test_deviant_discovery_negligible(self, rows):
        counts = {r.field: r.time_series_count for r in rows}
        assert counts["deviant discovery"] < 0.05 * counts["anomaly detection"]

    def test_acs_filter_shrinks_every_field(self, rows):
        for row in rows:
            assert row.acs_count <= row.time_series_count

    def test_fault_detection_largest_acs_share(self, rows):
        shares = {
            r.field: (r.acs_count / r.time_series_count)
            for r in rows
            if r.time_series_count >= 50
        }
        assert max(shares, key=shares.get) == "fault detection"
