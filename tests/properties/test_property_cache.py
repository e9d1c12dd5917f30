"""Property tests: memoization must never change Algorithm-1 results.

Whatever the start level, fusion strategy, or unification method, a
memoized (warm) context must report exactly what a context that never
memoizes (cold: its memo tables store nothing, so every query recomputes)
reports on the same plant — the cache is a pure performance layer.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HierarchicalDetectionPipeline, ProductionLevel
from repro.core.fusion import FUSION_STRATEGIES
from repro.io import reports_to_json
from tests.core.test_pipeline_cache import never_memoizing

L = ProductionLevel


@lru_cache(maxsize=None)
def _pipelines(seed: int):
    from repro.plant import FaultConfig, PlantConfig, simulate_plant

    config = PlantConfig(
        seed=seed,
        n_lines=1,
        machines_per_line=2,
        jobs_per_machine=4,
        faults=FaultConfig(
            process_fault_rate=0.25, sensor_fault_rate=0.25, setup_anomaly_rate=0.1
        ),
    )
    dataset = simulate_plant(config)
    return HierarchicalDetectionPipeline(dataset), never_memoizing(dataset)


@given(
    seed=st.sampled_from([7, 11]),
    start_level=st.sampled_from(list(L)),
    strategy=st.sampled_from(sorted(FUSION_STRATEGIES)),
    unify_method=st.sampled_from(["rank", "gaussian", "minmax"]),
)
@settings(max_examples=25, deadline=None)
def test_memoized_reports_equal_cold_context(seed, start_level, strategy,
                                             unify_method):
    warm, cold = _pipelines(seed)
    kwargs = dict(
        start_level=start_level,
        fusion_strategy=strategy,
        unify_method=unify_method,
    )
    warm_json = reports_to_json(warm.run(**kwargs))
    assert warm_json == reports_to_json(warm.run(**kwargs))  # re-query
    assert warm_json == reports_to_json(cold.run(**kwargs))  # cold rerun


@given(seed=st.sampled_from([7, 11]),
       start_level=st.sampled_from(list(L)))
@settings(max_examples=10, deadline=None)
def test_cache_counters_are_consistent(seed, start_level):
    warm, __ = _pipelines(seed)
    warm.run(start_level=start_level)
    cache = warm.stats()["cache"]
    for table in ("confirm", "support"):
        entry = cache[table]
        assert entry["hits"] + entry["misses"] == entry["calls"]
    assert 0 <= cache["confirm"]["hits"] <= cache["confirm"]["calls"]
