"""Hypothesis property tests for the corpus query engine."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusIndex, PaperRecord, Query

TERMS = ["anomaly detection", "fault detection", "outlier detection"]
TOPICS = ["time series", "machine learning", "statistics"]
CATEGORIES = ["automation control systems", "computer science"]


@st.composite
def corpora(draw):
    n = draw(st.integers(1, 60))
    records = []
    for rid in range(n):
        title_terms = draw(
            st.lists(st.sampled_from(TERMS), max_size=2, unique=True)
        )
        topics = draw(st.lists(st.sampled_from(TOPICS), max_size=3, unique=True))
        categories = draw(
            st.lists(st.sampled_from(CATEGORIES), max_size=2, unique=True)
        )
        records.append(
            PaperRecord(rid, tuple(title_terms), tuple(topics), tuple(categories))
        )
    return CorpusIndex(records)


@st.composite
def queries(draw):
    term = draw(st.sampled_from([""] + TERMS))
    topics = draw(st.lists(st.sampled_from(TOPICS), max_size=2, unique=True))
    categories = draw(
        st.lists(st.sampled_from(CATEGORIES), max_size=2, unique=True)
    )
    return Query(term=term, topics=tuple(topics), categories=tuple(categories))


class TestQueryProperties:
    @given(index=corpora(), query=queries())
    @settings(max_examples=100, deadline=None)
    def test_count_matches_search(self, index, query):
        assert index.count(query) == len(index.search(query))

    @given(index=corpora(), query=queries())
    @settings(max_examples=100, deadline=None)
    def test_relaxation_is_monotone(self, index, query):
        full = index.count(query)
        no_categories = index.count(Query(term=query.term, topics=query.topics))
        no_topics = index.count(Query(term=query.term, categories=query.categories))
        assert full <= no_categories
        assert full <= no_topics
        assert no_categories <= index.count(Query(term=query.term))

    @given(index=corpora(), query=queries())
    @settings(max_examples=100, deadline=None)
    def test_results_actually_match(self, index, query):
        matched = index.search(query)
        by_id = {r.record_id: r for r in index.records}
        for rid in matched:
            rec = by_id[rid]
            if query.term:
                assert query.term in rec.title_terms
            for topic in query.topics:
                assert topic in rec.topics
            for cat in query.categories:
                assert cat in rec.categories

    @given(index=corpora())
    @settings(max_examples=50, deadline=None)
    def test_empty_query_returns_everything(self, index):
        assert index.count(Query()) == len(index)
