"""Bibliographic record model and inverted-index query engine.

Fig. 3 of the paper counts Web-of-Science articles per outlier-detection
synonym, "filtered with the word time series and afterwards limited to
those items that are connected to the category automation control systems".
Web of Science is proprietary; this module provides the query semantics —
records with title terms, topic keywords, and subject categories, searched
with conjunctive boolean queries — so the synthetic corpus in
:mod:`repro.corpus.generator` can reproduce the figure's query workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

__all__ = ["PaperRecord", "Query", "CorpusIndex"]


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class PaperRecord:
    """One bibliographic record.

    ``title_terms`` are the searchable phrases of the title, ``topics`` the
    keyword phrases, and ``categories`` the subject categories — the three
    fields the Fig.-3 queries touch.
    """

    record_id: int
    title_terms: Tuple[str, ...]
    topics: Tuple[str, ...]
    categories: Tuple[str, ...]
    year: int = 2018

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "title_terms", tuple(_normalize(t) for t in self.title_terms)
        )
        object.__setattr__(
            self, "topics", tuple(_normalize(t) for t in self.topics)
        )
        object.__setattr__(
            self, "categories", tuple(_normalize(c) for c in self.categories)
        )


@dataclass(frozen=True)
class Query:
    """A conjunctive query: term AND all topics AND all categories.

    Empty components are unconstrained, so dropping a component can only
    grow the result set (the monotonicity property the tests check).
    """

    term: str = ""
    topics: Tuple[str, ...] = ()
    categories: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "term", _normalize(self.term))
        object.__setattr__(self, "topics", tuple(_normalize(t) for t in self.topics))
        object.__setattr__(
            self, "categories", tuple(_normalize(c) for c in self.categories)
        )


class CorpusIndex:
    """Inverted indices over a record collection with conjunctive search."""

    def __init__(self, records: Sequence[PaperRecord]) -> None:
        self._records: List[PaperRecord] = list(records)
        self._by_term: Dict[str, Set[int]] = {}
        self._by_topic: Dict[str, Set[int]] = {}
        self._by_category: Dict[str, Set[int]] = {}
        for rec in self._records:
            for t in rec.title_terms:
                self._by_term.setdefault(t, set()).add(rec.record_id)
            for t in rec.topics:
                self._by_topic.setdefault(t, set()).add(rec.record_id)
            for c in rec.categories:
                self._by_category.setdefault(c, set()).add(rec.record_id)
        self._all_ids: FrozenSet[int] = frozenset(r.record_id for r in self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[PaperRecord]:
        return list(self._records)

    def search(self, query: Query) -> FrozenSet[int]:
        """Record ids matching every component of the query."""
        result: Set[int] = set(self._all_ids)
        if query.term:
            result &= self._by_term.get(query.term, set())
        for topic in query.topics:
            result &= self._by_topic.get(topic, set())
        for category in query.categories:
            result &= self._by_category.get(category, set())
        return frozenset(result)

    def count(self, query: Query) -> int:
        return len(self.search(query))

    def vocabulary(self) -> Dict[str, int]:
        """Observed title terms with their document frequencies."""
        return {t: len(ids) for t, ids in self._by_term.items()}
