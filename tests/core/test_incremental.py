"""Incremental recomputation: ingest → scoped refresh ≡ cold rebuild.

The contract under test: after any sequence of job ingests through
``PlantDataset.ingest_job`` + ``refresh()``, the serialized reports and
health record are *byte-identical* to a cold pipeline built on the full
dataset — on every executor, for every seed, and under chaos
degradation.  Alongside the end-to-end identity: unit coverage of the
ingest API's validation, the dirty-set handshake, ``split_tail``, the
task-graph traversals, and the scoped cache eviction.
"""

from __future__ import annotations

import json

import pytest

from repro.core.parallel import Task, TaskGraph
from repro.core.pipeline import HierarchicalDetectionPipeline, PipelineConfig
from repro.io import reports_to_json
from repro.plant import ChaosConfig, PlantConfig, inject_chaos, simulate_plant

SEEDS = (3, 11, 29)


def _plant(seed: int):
    return simulate_plant(
        PlantConfig(seed=seed, n_lines=2, machines_per_line=2, jobs_per_machine=4)
    )


def _chaotic(seed: int):
    dataset, __ = inject_chaos(
        _plant(seed), ChaosConfig(seed=0, sensor_dropout_rate=0.15)
    )
    return dataset


def _doc(pipeline) -> str:
    return reports_to_json(pipeline.run(), health=pipeline.health)


def _replay(dataset, tail: int, **config):
    """Cold-run the base plant, then ingest the held-out tail job by job."""
    base, arrivals = dataset.split_tail(tail)
    pipeline = HierarchicalDetectionPipeline(base, config=PipelineConfig(**config))
    summaries = [pipeline.ingest_job(machine_id, job) for machine_id, job in arrivals]
    return pipeline, summaries


# ----------------------------------------------------------------------
# the headline contract
# ----------------------------------------------------------------------
class TestIncrementalByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_matches_cold_recompute(self, seed, executor):
        workers = {} if executor == "serial" else {"max_workers": 2}
        warm, summaries = _replay(_plant(seed), tail=2, executor=executor, **workers)
        cold = HierarchicalDetectionPipeline(
            _plant(seed), config=PipelineConfig(executor=executor, **workers)
        )
        assert _doc(warm) == _doc(cold)
        assert all(s["dirty_jobs"] == 1 for s in summaries)

    def test_matches_cold_recompute_process_executor(self):
        # one seed: process pools are expensive, and the pickle boundary
        # either works or it doesn't
        warm, __ = _replay(_plant(SEEDS[0]), tail=1, executor="process", max_workers=2)
        cold = HierarchicalDetectionPipeline(
            _plant(SEEDS[0]), config=PipelineConfig(executor="process", max_workers=2)
        )
        assert _doc(warm) == _doc(cold)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_chaos_degraded_runs_match_cold_recompute(self, seed):
        warm, __ = _replay(_chaotic(seed), tail=2)
        cold = HierarchicalDetectionPipeline(_chaotic(seed))
        baseline = _doc(cold)
        assert _doc(warm) == baseline
        # the guarantee is only interesting if the run actually degraded
        health = json.loads(baseline)["telemetry"]["run_health"]
        assert health["quarantines"] or health["warnings"]

    def test_incremental_path_is_executor_invariant(self):
        docs = {}
        for executor in ("serial", "process"):
            workers = {} if executor == "serial" else {"max_workers": 2}
            warm, __ = _replay(_plant(7), tail=2, executor=executor, **workers)
            docs[executor] = reports_to_json(
                warm.run(), health=warm.health, stats=warm.stats()
            )
        # full doc including the stats tree: the incremental counters are
        # scheduling-independent, so even stats are byte-identical
        assert docs["serial"] == docs["process"]

    def test_refresh_reruns_only_the_dirty_closure(self):
        dataset = _plant(11)
        base, arrivals = dataset.split_tail(1)
        pipeline = HierarchicalDetectionPipeline(base)
        n_total_tasks = pipeline.context.engine_stats().n_tasks
        machine_id, job = arrivals[0]
        summary = pipeline.ingest_job(machine_id, job)
        line_id = base.machine(machine_id).line_id
        assert summary["task_keys"] == [
            f"phase/{machine_id}", "job", f"line/{line_id}", "production",
        ]
        assert summary["dirty_tasks"] < n_total_tasks


# ----------------------------------------------------------------------
# ingest API + dirty-set handshake
# ----------------------------------------------------------------------
class TestIngestValidation:
    def test_unknown_machine_raises(self):
        dataset = _plant(3)
        __, arrivals = dataset.split_tail(1)
        with pytest.raises(KeyError):
            dataset.ingest_job("no-such-machine", arrivals[0][1])

    def test_machine_id_mismatch_raises(self):
        dataset = _plant(3)
        a, b = list(dataset.iter_machines())[:2]
        job = a.jobs[-1]
        with pytest.raises(ValueError, match="stamped machine_id"):
            dataset.ingest_job(b.machine_id, job)

    def test_duplicate_job_index_raises(self):
        dataset = _plant(3)
        machine = next(dataset.iter_machines())
        with pytest.raises(ValueError, match="already has job"):
            dataset.ingest_job(machine.machine_id, machine.jobs[0])

    def test_dirty_set_accumulates_and_consumes(self):
        dataset = _plant(3)
        base, arrivals = dataset.split_tail(1)
        assert base.dirty_jobs() == []
        for machine_id, job in arrivals[:2]:
            base.ingest_job(machine_id, job)
        expected = [(m, j.job_index) for m, j in arrivals[:2]]
        assert base.dirty_jobs() == expected
        assert base.consume_dirty() == expected
        assert base.dirty_jobs() == []
        assert base.consume_dirty() == []

    def test_ingest_refreshes_navigation_index(self):
        dataset = _plant(3)
        base, arrivals = dataset.split_tail(1)
        machine_id, job = arrivals[0]
        with pytest.raises(KeyError):
            base.job(machine_id, job.job_index)
        base.ingest_job(machine_id, job)
        assert base.job(machine_id, job.job_index) is job

    def test_refresh_without_ingests_is_a_noop(self):
        pipeline = HierarchicalDetectionPipeline(_plant(3))
        before = _doc(pipeline)
        summary = pipeline.refresh()
        assert summary["dirty_jobs"] == 0 and summary["dirty_tasks"] == 0
        assert _doc(pipeline) == before
        assert pipeline.stats()["incremental"]["refreshes"] == 0


class TestSplitTail:
    def test_partitions_each_machine(self):
        dataset = _plant(11)
        base, arrivals = dataset.split_tail(2)
        for m_base, m_full in zip(base.iter_machines(), dataset.iter_machines()):
            assert len(m_base.jobs) == len(m_full.jobs) - 2
            assert m_base.jobs == m_full.jobs[:-2]
        assert len(arrivals) == 2 * sum(1 for __ in dataset.iter_machines())

    def test_arrivals_in_global_start_order(self):
        __, arrivals = _plant(11).split_tail(2)
        stamps = [(job.start, machine_id) for machine_id, job in arrivals]
        assert stamps == sorted(stamps)

    def test_zero_tail_keeps_everything(self):
        dataset = _plant(3)
        base, arrivals = dataset.split_tail(0)
        assert arrivals == []
        assert [len(m.jobs) for m in base.iter_machines()] == [
            len(m.jobs) for m in dataset.iter_machines()
        ]

    def test_source_dataset_untouched(self):
        dataset = _plant(3)
        counts = [len(m.jobs) for m in dataset.iter_machines()]
        base, arrivals = dataset.split_tail(1)
        base.ingest_job(*arrivals[0])
        assert [len(m.jobs) for m in dataset.iter_machines()] == counts

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError):
            _plant(3).split_tail(-1)


# ----------------------------------------------------------------------
# task-graph traversals (the dirty-closure primitives)
# ----------------------------------------------------------------------
class TestGraphTraversals:
    def _diamond(self) -> TaskGraph:
        graph = TaskGraph()
        graph.add(Task(key="a", payload=None))
        graph.add(Task(key="b", payload=None, deps=("a",)))
        graph.add(Task(key="c", payload=None, deps=("a",)))
        graph.add(Task(key="d", payload=None, deps=("b", "c")))
        graph.add(Task(key="e", payload=None))
        return graph

    def test_ancestors_transitive_in_insertion_order(self):
        graph = self._diamond()
        assert graph.ancestors("d") == ["a", "b", "c"]
        assert graph.ancestors("b") == ["a"]
        assert graph.ancestors("a") == []
        assert graph.ancestors("e") == []

    def test_descendants_transitive_in_insertion_order(self):
        graph = self._diamond()
        assert graph.descendants("a") == ["b", "c", "d"]
        assert graph.descendants("b") == ["d"]
        assert graph.descendants("d") == []
        assert graph.descendants("e") == []

    def test_unknown_key_raises(self):
        graph = self._diamond()
        with pytest.raises(KeyError):
            graph.ancestors("nope")
        with pytest.raises(KeyError):
            graph.descendants("nope")


# ----------------------------------------------------------------------
# scoped eviction + incremental stats
# ----------------------------------------------------------------------
class TestScopedEviction:
    @pytest.fixture()
    def replayed(self):
        dataset = _plant(11)
        base, arrivals = dataset.split_tail(1)
        pipeline = HierarchicalDetectionPipeline(base)
        pipeline.run()  # populate the memo tables before any ingest
        summaries = [pipeline.ingest_job(m, j) for m, j in arrivals]
        return pipeline, summaries

    def test_eviction_is_scoped_not_total(self, replayed):
        __, summaries = replayed
        first = summaries[0]
        assert sum(first["evicted"].values()) > 0
        # scoped means *something survives*: the whole point over
        # invalidate_caches() is a nonzero retained set
        assert sum(first["retained"].values()) > 0
        assert set(first["evicted"]) == {
            "confirm", "support", "candidate_time", "find_candidates",
        }

    def test_environment_confirmations_survive(self, replayed):
        pipeline, summaries = replayed
        # ENVIRONMENT-level entries are never in a job's dirty closure
        assert any(s["retained"]["confirm"] > 0 for s in summaries)
        assert _doc(pipeline) == _doc(
            HierarchicalDetectionPipeline(_plant(11))
        )

    def test_stats_count_refreshes(self, replayed):
        pipeline, summaries = replayed
        tree = pipeline.stats()["incremental"]
        assert tree["refreshes"] == len(summaries)
        assert tree["dirty_jobs"] == len(summaries)
        assert tree["dirty_tasks"] == sum(s["dirty_tasks"] for s in summaries)
        assert set(tree["evicted"]) == set(tree["retained"])

    def test_incremental_metrics_registered_lazily(self, replayed):
        pipeline, __ = replayed
        registered = {m.name for m in pipeline.telemetry.metrics.collect()}
        assert "repro_incremental_refreshes_total" in registered
        cold = HierarchicalDetectionPipeline(_plant(3))
        cold.run()
        cold_registered = {m.name for m in cold.telemetry.metrics.collect()}
        # cold runs expose exactly the families they always have
        assert "repro_incremental_refreshes_total" not in cold_registered


def _same_length_groups(traces) -> int:
    """Batched scoring groups for one set of traces: one per sample count."""
    return len({len(series.values) for series in traces})


class TestParallelStatsScope:
    """``stats()["parallel"]`` describes the last engine run: after a
    refresh both ``tasks`` and ``batch_groups`` count the dirty subgraph
    only, never a running total across runs."""

    def test_block_after_refresh_counts_the_refreshed_tasks(self):
        base, arrivals = _plant(3).split_tail(1)
        pipeline = HierarchicalDetectionPipeline(base)
        cold_groups = sum(
            _same_length_groups(phase.series.values())
            for machine in base.iter_machines()
            for job in machine.jobs
            for phase in job.phases
        ) + sum(_same_length_groups(line.environment.values()) for line in base.lines)
        assert pipeline.stats()["parallel"] == {
            "tasks": 10, "batch_groups": cold_groups,
        }
        for machine_id, job in arrivals[:2]:
            summary = pipeline.ingest_job(machine_id, job)
            (machine,) = [
                m for m in pipeline.context.dataset.iter_machines()
                if m.machine_id == machine_id
            ]
            # the refresh re-ran one phase task: its (job, phase) groups
            refreshed_groups = sum(
                _same_length_groups(phase.series.values())
                for scored_job in machine.jobs
                for phase in scored_job.phases
            )
            assert pipeline.stats()["parallel"] == {
                "tasks": summary["dirty_tasks"], "batch_groups": refreshed_groups,
            }
            assert pipeline.context.engine_stats().n_tasks == summary["dirty_tasks"]
