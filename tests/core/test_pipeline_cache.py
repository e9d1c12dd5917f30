"""Unit tests for the confirmation/support memoization layer."""

from __future__ import annotations

import pytest

from repro.core import (
    HierarchicalDetectionPipeline,
    OutlierCandidate,
    ProductionLevel,
)
from repro.io import reports_to_json

L = ProductionLevel


@pytest.fixture(scope="module")
def dataset():
    from repro.plant import FaultConfig, PlantConfig, simulate_plant

    config = PlantConfig(
        seed=11,
        n_lines=2,
        machines_per_line=2,
        jobs_per_machine=6,
        faults=FaultConfig(
            process_fault_rate=0.2, sensor_fault_rate=0.2, setup_anomaly_rate=0.1
        ),
    )
    return simulate_plant(config)


@pytest.fixture()
def pipeline(dataset):
    return HierarchicalDetectionPipeline(dataset)


class _NoStore(dict):
    """A memo table that stores nothing: every lookup misses."""

    def __setitem__(self, key, value):
        pass


def never_memoizing(dataset):
    """A pipeline whose context recomputes every query: the reference the
    memoized context must match."""
    pipeline = HierarchicalDetectionPipeline(dataset)
    memo = pipeline.context._memo
    for table in ("confirm", "support", "candidate_time", "candidates"):
        setattr(memo, table, _NoStore())
    return pipeline


class TestCandidateKey:
    def test_key_ignores_score_and_provenance_fields(self):
        a = OutlierCandidate(
            level=L.PHASE, outlierness=3.0, machine_id="m1", job_index=2,
            phase_name="printing", sensor_id="m1/s1", index=7, detector="ar",
        )
        b = OutlierCandidate(
            level=L.PHASE, outlierness=9.9, machine_id="m1", job_index=2,
            phase_name="printing", sensor_id="m1/s1", index=7, detector="knn",
        )
        assert a.key == b.key
        assert hash(a.key) == hash(b.key)

    def test_key_separates_locations(self):
        base = dict(
            level=L.PHASE, outlierness=1.0, machine_id="m1", job_index=2,
            phase_name="printing", sensor_id="m1/s1", index=7,
        )
        a = OutlierCandidate(**base)
        variants = [
            OutlierCandidate(**{**base, "level": L.JOB}),
            OutlierCandidate(**{**base, "machine_id": "m2"}),
            OutlierCandidate(**{**base, "job_index": 3}),
            OutlierCandidate(**{**base, "phase_name": "warmup"}),
            OutlierCandidate(**{**base, "sensor_id": "m1/s2"}),
            OutlierCandidate(**{**base, "index": 8}),
        ]
        keys = {a.key} | {v.key for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_key_usable_as_dict_key(self):
        c = OutlierCandidate(level=L.PRODUCTION, outlierness=1.0, machine_id="m1")
        table = {c.key: "cached"}
        again = OutlierCandidate(level=L.PRODUCTION, outlierness=2.0, machine_id="m1")
        assert table[again.key] == "cached"


class TestCounters:
    def test_first_run_populates_then_second_run_hits(self, pipeline):
        pipeline.run()
        first = pipeline.stats()["cache"]["confirm"]
        assert first["calls"] > 0
        assert first["misses"] > 0
        first_support = pipeline.stats()["cache"]["support"]
        pipeline.run()
        second = pipeline.stats()["cache"]["confirm"]
        # no new recomputations, only new calls served from cache
        assert second["misses"] == first["misses"]
        assert second["calls"] > first["calls"]
        assert second["hits"] > first["hits"]
        assert pipeline.stats()["cache"]["support"]["misses"] == first_support["misses"]

    def test_hits_plus_misses_equals_calls(self, pipeline):
        pipeline.run()
        pipeline.run(start_level=L.JOB)
        cache = pipeline.stats()["cache"]
        for table in ("confirm", "support"):
            entry = cache[table]
            assert entry["hits"] + entry["misses"] == entry["calls"]

    def test_reset_stats(self, pipeline):
        pipeline.run()
        pipeline.context.reset_stats()
        cache = pipeline.stats()["cache"]
        assert all(
            v == 0 for entry in cache.values() for v in entry.values()
        )

    def test_stats_schema_is_stamped(self, pipeline):
        from repro.core.pipeline import STATS_SCHEMA

        assert pipeline.stats()["schema"] == STATS_SCHEMA


class TestCacheSemantics:
    def test_cached_reports_identical_to_cold_context(self, dataset, pipeline):
        cold = never_memoizing(dataset)
        for level in (L.PHASE, L.JOB):
            warm_json = reports_to_json(pipeline.run(start_level=level))
            assert warm_json == reports_to_json(pipeline.run(start_level=level))
            assert warm_json == reports_to_json(cold.run(start_level=level))
        # the reference really recomputed every query
        assert all(entry["hits"] == 0 for entry in cold.stats()["cache"].values())

    def test_find_candidates_returns_copies(self, pipeline):
        first = pipeline.context.find_candidates(L.PHASE)
        assert first
        first.clear()
        assert pipeline.context.find_candidates(L.PHASE)

    def test_invalidate_caches_recomputes(self, pipeline):
        pipeline.run()
        before = pipeline.stats()["cache"]["confirm"]["misses"]
        pipeline.context.invalidate_caches()
        pipeline.run()
        after = pipeline.stats()["cache"]["confirm"]["misses"]
        assert after == 2 * before

    def test_unify_method_changes_outlierness_scale(self, pipeline):
        by_rank = pipeline.run(unify_method="rank")
        by_gauss = pipeline.run(unify_method="gaussian")
        rank_scores = {r.candidate.key: r.outlierness for r in by_rank}
        gauss_scores = {r.candidate.key: r.outlierness for r in by_gauss}
        assert any(
            abs(rank_scores[k] - gauss_scores[k]) > 1e-9 for k in rank_scores
        )

    def test_confirm_rejects_unknown_level_despite_cache(self, pipeline):
        candidate = pipeline.context.find_candidates(L.PHASE)[0]
        with pytest.raises(ValueError):
            pipeline.context.confirm(candidate, "nope")
