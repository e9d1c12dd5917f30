"""Incremental recomputation: ingest → scoped refresh ≡ cold rebuild.

The contract under test: after any sequence of job ingests through
``PlantDataset.ingest_job`` + ``refresh()``, the serialized reports and
health record are *byte-identical* to a cold pipeline built on the full
dataset — on every executor, for every seed, and under chaos
degradation.  Alongside the end-to-end identity: unit coverage of the
ingest API's validation, the dirty-set handshake, ``split_tail``, and
the scoped cache eviction.
"""

from __future__ import annotations

import functools
import gc
import json
import weakref

import pytest

from repro.core import AlgorithmSelector, ProductionLevel
from repro.core.checkpoint import resume_pipeline
from repro.core.parallel import ParallelEngine
from repro.core.pipeline import HierarchicalDetectionPipeline, PipelineConfig
from repro.io import reports_to_json
from repro.obs import to_chrome_trace, validate_chrome_trace, validate_spans
from repro.plant import (
    CAQResult, ChaosConfig, JobRecord, PlantConfig, inject_chaos, simulate_plant,
)

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


def _full_doc(pipeline) -> str:
    return reports_to_json(pipeline.run(), health=pipeline.health, stats=pipeline.stats())


def _replay(dataset, tail: int, **config):
    """Cold-run the base plant, then ingest the held-out tail job by job."""
    base, arrivals = dataset.split_tail(tail)
    pipeline = HierarchicalDetectionPipeline(base, config=PipelineConfig(**config))
    summaries = [pipeline.ingest_job(machine_id, job) for machine_id, job in arrivals]
    return pipeline, summaries


# ----------------------------------------------------------------------
# ingest patterns: each takes ``build(dataset, **config) -> pipeline``, the
# full plant and a scratch directory, and returns the pipeline after every
# held-out job (tail 2) has been ingested and refreshed
# ----------------------------------------------------------------------
def _one_by_one(build, full, scratch):
    base, arrivals = full.split_tail(2)
    pipeline = build(base)
    for arrival in arrivals:
        pipeline.ingest_job(*arrival)
    return pipeline


def _one_machine_batch(build, full, scratch):
    """Both held-out jobs of one machine before one refresh, then the rest."""
    base, arrivals = full.split_tail(2)
    pipeline = build(base)
    first = arrivals[0][0]
    for arrival in arrivals:
        if arrival[0] == first:
            base.ingest_job(*arrival)
    assert pipeline.refresh()["dirty_jobs"] == 2
    for arrival in arrivals:
        if arrival[0] != first:
            pipeline.ingest_job(*arrival)
    return pipeline


def _two_lines_batch(build, full, scratch):
    """One job of each line in one refresh, then every other job in one."""
    base, arrivals = full.split_tail(2)
    pipeline = build(base)
    firsts = {}
    for machine_id, job in arrivals:
        firsts.setdefault(base.line_of(machine_id).line_id, (machine_id, job))
    assert len(firsts) == 2
    for arrival in firsts.values():
        base.ingest_job(*arrival)
    assert set(pipeline.refresh()["task_keys"]) >= {"line/line-0", "line/line-1"}
    for arrival in arrivals:
        if arrival not in firsts.values():
            base.ingest_job(*arrival)
    pipeline.refresh()
    return pipeline


def _append_after_restore(build, full, scratch):
    """Ingest (each refresh snapshots), resume from the newest snapshot,
    and let the resume ingest the rest onto the restored outputs."""
    base, arrivals = full.split_tail(2)
    pipeline = build(base, checkpoint_dir=str(scratch))
    for arrival in arrivals[:3]:
        pipeline.ingest_job(*arrival)
    resumed, summaries, __ = resume_pipeline(
        full, scratch, selector=pipeline.context.selector
    )
    assert len(summaries) == len(arrivals) - 3
    return resumed


def _short_nan_bursts(seed: int):
    """NaN bursts of 6 samples: within ``repair_max_gap``, so repaired."""
    dataset, __ = inject_chaos(
        _plant(seed), ChaosConfig(seed=0, nan_burst_rate=0.3, nan_burst_length=6)
    )
    return dataset


#: case -> (full plant, PHASE fallback chain or None for the default,
#: ingest pattern)
INGEST_CASES = {
    "one-machine-batch": (functools.partial(_plant, 3), None, _one_machine_batch),
    "two-lines-batch": (functools.partial(_plant, 11), None, _two_lines_batch),
    "append-after-restore": (
        functools.partial(_plant, 29), None, _append_after_restore,
    ),
    # fallback events of the always-raising head interleave with the
    # gate's repair warnings in every (job, phase) group
    "chaos-raise+repaired-nan": (
        functools.partial(_short_nan_bursts, 3),
        ("chaos-raise", "ar", "deviants", "zscore"),
        _one_by_one,
    ),
}


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

    @pytest.mark.parametrize("case", sorted(INGEST_CASES))
    def test_ingest_patterns_match_cold_recompute(self, case, tmp_path):
        make_plant, phase_chain, feed = INGEST_CASES[case]
        selector = AlgorithmSelector()
        if phase_chain is not None:
            selector.override(ProductionLevel.PHASE, list(phase_chain))

        def build(dataset, **config):
            return HierarchicalDetectionPipeline(
                dataset, selector=selector, config=PipelineConfig(**config)
            )

        def phase_candidates(pipeline):  # appended outputs keep job order
            return [(c.key, c.outlierness) for c in pipeline.context.phase_candidates]

        cold = build(make_plant())
        cold_doc, cold_health = _doc(cold), cold.health.as_dict()
        if phase_chain is not None:  # the case must exercise what it names
            assert cold_health["fallbacks"] and cold_health["warnings"]
        full_docs = {}
        for executor, workers in (("serial", {}), ("process", {"max_workers": 2})):
            warm = feed(
                functools.partial(build, executor=executor, **workers),
                make_plant(),
                tmp_path / executor,
            )
            assert _doc(warm) == cold_doc
            assert warm.health.as_dict() == cold_health
            assert phase_candidates(warm) == phase_candidates(cold)
            full_docs[executor] = reports_to_json(
                warm.run(), health=warm.health, stats=warm.stats()
            )
        assert full_docs["serial"] == full_docs["process"]

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


class TestRefreshRunsInline:
    """A refresh scores its dirty closure in the calling process, whatever
    the configured executor; only the cold build uses the process pool."""

    def test_process_pipeline_refreshes_without_a_pool(self, monkeypatch):
        full = _plant(3)
        base, arrivals = full.split_tail(2)
        pipeline = HierarchicalDetectionPipeline(
            base, config=PipelineConfig(executor="process", max_workers=2)
        )
        n_cold_tasks = pipeline.context.engine_stats().n_tasks
        tracer = pipeline.telemetry.tracer
        n_cold_spans = len(tracer.spans)

        def no_pool(*args, **kwargs):
            raise AssertionError("a refresh forked a worker pool")

        monkeypatch.setattr(ParallelEngine, "_run_pooled", no_pool)
        summaries = [pipeline.ingest_job(*arrival) for arrival in arrivals]
        serial, __ = _replay(full, tail=2)
        assert _full_doc(pipeline) == _full_doc(serial)
        assert _doc(pipeline) == _doc(HierarchicalDetectionPipeline(full))
        engine = pipeline.context.engine_stats()
        assert (engine.executor, engine.workers) == ("serial", 1)
        workers = pipeline.telemetry.metrics.get("repro_parallel_workers").samples()
        assert workers == [((("executor", "process"),), 2.0), ((("executor", "serial"),), 1.0)]

        by_id = {span.span_id: span for span in tracer.spans}
        task_roots = [
            span for span in tracer.spans[n_cold_spans:] if "task" in span.attributes
        ]
        # each refresh drops the span trees of the refreshes before it
        assert len(task_roots) == summaries[-1]["dirty_tasks"]
        for span in task_roots:
            assert span.name.startswith("score.")
            assert (span.attributes["executor"], span.attributes["worker"]) == (
                "serial", "main",
            )
            parent = by_id[span.parent_id]
            assert parent.name == "pipeline.refresh"
            assert parent.attributes["executor"] == "serial"

        doc = to_chrome_trace(tracer)
        assert validate_chrome_trace(doc) == []
        task_begins = [
            event for event in doc["traceEvents"]
            if event["ph"] == "B" and "task" in event["args"]
        ]
        # the exporter gives the main lane the synthetic pid 1
        on_main = [event for event in task_begins if event["pid"] == 1]
        on_workers = [event for event in task_begins if event["pid"] != 1]
        assert len(on_main) == len(task_roots)
        assert len(on_workers) == n_cold_tasks
        for event in on_workers:
            assert event["args"]["worker"] == f"pid-{event['pid']}"


class TestDroppedPipeline:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_freed_without_the_cyclic_gc(self, executor):
        # reference counting alone must free a dropped pipeline: one held
        # in a reference cycle keeps its traces and spans until a GC pass
        workers = {} if executor == "serial" else {"max_workers": 2}
        base, arrivals = _plant(3).split_tail(1)
        gc.disable()
        try:
            pipeline = HierarchicalDetectionPipeline(
                base, config=PipelineConfig(executor=executor, **workers)
            )
            pipeline.run()
            machine_id, job = arrivals[0]
            pipeline.ingest_job(machine_id, job)
            pipeline.run()
            dropped = weakref.ref(pipeline)
            context = weakref.ref(pipeline.context)
            del pipeline
            assert dropped() is None
            assert context() is None
        finally:
            gc.enable()


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

    def test_ingest_files_jobs_into_the_navigation_index_in_place(self):
        full = _plant(11)
        base, arrivals = full.split_tail(2)
        nav = base._nav()
        ingested = []  # every held-out job, on both lines
        for machine_id, job in arrivals:
            base.ingest_job(machine_id, job)
            ingested.append((machine_id, job.job_index))
        assert {base.line_of(m).line_id for m, __ in ingested} == {"line-0", "line-1"}
        assert base._nav() is nav  # updated, not dropped and rebuilt
        fresh, __ = full.split_at_watermark(
            (m.machine_id, j.job_index) for m in base.iter_machines() for j in m.jobs
        )
        for line in fresh.lines:
            assert base.job_intervals(line.line_id) == fresh.job_intervals(line.line_id)
        for machine in fresh.iter_machines():
            assert base.line_of(machine.machine_id).line_id == (
                fresh.line_of(machine.machine_id).line_id
            )
            for job in machine.jobs:
                assert base.find_job(machine.machine_id, job.job_index) is job
        for machine_id, job_index in ingested:
            assert base.find_job(machine_id, job_index) is full.job(machine_id, job_index)

    def test_refresh_without_ingests_is_a_noop(self):
        base, arrivals = _plant(3).split_tail(1)
        pipeline = HierarchicalDetectionPipeline(base)
        before = _doc(pipeline)
        summary = pipeline.refresh()
        assert summary["dirty_jobs"] == 0 and summary["dirty_tasks"] == 0
        assert summary["task_keys"] == [] and summary["wall_seconds"] == 0.0
        assert _doc(pipeline) == before
        assert pipeline.stats()["incremental"]["refreshes"] == 0
        # callers read one summary shape, whether or not anything was ingested
        assert summary.keys() == pipeline.ingest_job(*arrivals[0]).keys()


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

    def test_tail_at_or_past_a_machines_job_count(self):
        k = 3
        dataset = simulate_plant(
            PlantConfig(seed=7, n_lines=1, machines_per_line=2, jobs_per_machine=k)
        )
        for n in (k - 1, k, k + 1, 2 * k - 1):
            held = min(n, k)
            base, arrivals = dataset.split_tail(n)
            for m_base, m_full in zip(base.iter_machines(), dataset.iter_machines()):
                assert m_base.jobs == m_full.jobs[: k - held], n
            expected = sorted(
                (job.start, m.machine_id, job.job_index)
                for m in dataset.iter_machines()
                for job in m.jobs[k - held:]
            )
            assert [
                (job.start, machine_id, job.job_index) for machine_id, job in arrivals
            ] == expected, n


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
        # dropping every memo table is a nonzero retained set
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
    refresh ``tasks`` counts the dirty subgraph and ``batch_groups`` the
    newly scored job's groups, never a running total across runs."""

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
            # the refresh's phase task scored the ingested job only
            refreshed_groups = sum(
                _same_length_groups(phase.series.values()) for phase in job.phases
            )
            assert pipeline.stats()["parallel"] == {
                "tasks": summary["dirty_tasks"], "batch_groups": refreshed_groups,
            }
            assert pipeline.context.engine_stats().n_tasks == summary["dirty_tasks"]


class TestRefreshWorkScope:
    """A refresh scores the ingested job's phase traces only, so its phase
    work does not grow with the machine's history."""

    @pytest.mark.parametrize("jobs_per_machine", (4, 16))
    def test_refresh_scores_only_the_ingested_job(self, jobs_per_machine):
        dataset = simulate_plant(
            PlantConfig(seed=5, n_lines=1, machines_per_line=2,
                        jobs_per_machine=jobs_per_machine)
        )
        base, arrivals = dataset.split_tail(1)
        pipeline = HierarchicalDetectionPipeline(base)
        tracer = pipeline.telemetry.tracer
        n_spans = len(tracer.spans)
        machine_id, job = arrivals[0]
        pipeline.ingest_job(machine_id, job)
        groups = sum(_same_length_groups(phase.series.values()) for phase in job.phases)
        phase_calls = [
            span for span in tracer.spans[n_spans:]
            if span.name == "detector" and span.attributes["level"] == "PHASE"
        ]
        assert pipeline.stats()["parallel"]["batch_groups"] == groups
        assert len(phase_calls) == groups


    @pytest.mark.parametrize("jobs_per_machine", (4, 16))
    def test_refresh_derives_only_what_the_job_changed(self, jobs_per_machine, monkeypatch):
        dataset = simulate_plant(
            PlantConfig(seed=5, n_lines=2, machines_per_line=2,
                        jobs_per_machine=jobs_per_machine)
        )
        base, arrivals = dataset.split_tail(1)
        pipeline = HierarchicalDetectionPipeline(base)
        before = pipeline.context._plant
        old_lists = {channel: list(traces) for channel, traces in before.traces.items()}
        calls = []
        for owner, name in ((JobRecord, "setup_vector"), (CAQResult, "vector")):
            def spy(self, *args, _original=getattr(owner, name), _name=name):
                calls.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(owner, name, spy)
        machine_id, job = arrivals[0]
        n_stored = len(pipeline.context._runner._tasks.phase_out[machine_id][0])
        pipeline.ingest_job(machine_id, job)
        # the ingested job's two vectors; every other row comes from the cache
        assert sorted(calls) == ["setup_vector", "vector"]

        after = pipeline.context._plant
        new = pipeline.context._runner._tasks.phase_out[machine_id][0][n_stored:]
        assert new and {channel for channel, __ in new} <= {
            ch.sensor_id for ch in base.machine(machine_id).channels
        }
        dirty_line = base.line_of(machine_id).line_id
        env = {channel for ids in before.env_channels.values() for channel in ids}
        assert after.env_channels is before.env_channels
        assert after.trace_stats is before.trace_stats
        for channel, traces in after.traces.items():
            filed = [trace for ch, trace in new if ch == channel]
            if not filed:
                # an untouched machine's or an environment channel: shared
                assert traces is before.traces[channel]
                assert after.trace_starts[channel] is before.trace_starts[channel]
                continue
            assert channel not in env
            # copied, filed like a stable sort by start, the old list untouched
            assert traces == sorted(old_lists.get(channel, []) + filed, key=lambda t: t.start)
            assert after.trace_starts[channel] == [t.start for t in traces]
            assert before.traces.get(channel, []) == old_lists.get(channel, [])
        assert env <= set(after.traces)
        for line_id, index in after.job_intervals.items():
            if line_id == dirty_line:
                assert index[2] == base.job_intervals(line_id)
            else:
                assert index is before.job_intervals[line_id]


class TestSpanRetention:
    """A long-lived pipeline keeps the span trees of its cold build and of
    its latest refresh and run: each refresh drops the trees of the
    refreshes and runs before it."""

    def test_trace_stays_bounded_over_many_ingests(self):
        full = simulate_plant(
            PlantConfig(seed=3, n_lines=2, machines_per_line=2, jobs_per_machine=30)
        )
        base, arrivals = full.split_tail(25)
        pipeline = HierarchicalDetectionPipeline(base)
        tracer = pipeline.telemetry.tracer
        _full_doc(pipeline)
        n_base = len(tracer.spans)

        def last_id():
            return max(span.span_id for span in tracer.spans)

        recorded = []  # spans each op recorded (ids keep counting up)
        for arrival in arrivals:
            first = last_id()
            pipeline.ingest_job(*arrival)
            _full_doc(pipeline)
            recorded.append(last_id() - first)
            assert len(tracer.spans) <= n_base + sum(sorted(recorded)[-2:])
        assert len(arrivals) == 100
        roots = [span for span in tracer.spans if span.parent_id is None]
        assert [span.name for span in roots].count("pipeline.refresh") == 1
        assert [span.name for span in roots].count("pipeline.build") == 1
        assert validate_spans(tracer.spans) == []
        assert validate_chrome_trace(to_chrome_trace(tracer)) == []
