"""Performance plane: Chrome trace export, sampling profiler, perf report."""

from __future__ import annotations

import json
import math
import pathlib
import pickle
import time

import pytest

from repro.core.parallel import EngineStats
from repro.obs import (
    CHROME_TRACE_SCHEMA,
    SamplingProfiler,
    TickClock,
    Tracer,
    chrome_trace_to_json,
    perf_report_rows,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

GOLDEN = pathlib.Path(__file__).parent / "golden_chrome_trace.json"


def _golden_tracer() -> Tracer:
    """The fixed span forest whose Chrome export is pinned byte-for-byte.

    Mirrors one mixed run: a main-lane build span, two thread-executor
    task spans (one on the main thread, one on a pool thread), and a
    process-executor worker tree grafted as a root with its own clock —
    the shape :meth:`Tracer.graft` produces for ``executor=process``.
    """
    tracer = Tracer(clock=TickClock(step=0.001))
    with tracer.span("pipeline.build", executor="thread"):
        with tracer.span(
            "score.PHASE", level="PHASE", task="phase/line-0/machine-0",
            executor="thread", worker="repro-task_0",
        ):
            with tracer.span("detector", detector="ar"):
                pass
        with tracer.span(
            "score.JOB", level="JOB", task="job",
            executor="thread", worker="main",
        ):
            pass
        with tracer.span("pipeline.index"):
            pass
    worker = Tracer(clock=TickClock(start=50.0, step=0.001))
    with worker.span(
        "score.LINE", level="LINE", task="line/line-0",
        executor="process", worker="pid-4242",
    ):
        with worker.span("detector", detector="matrix"):
            pass
    tracer.graft([s.as_dict() for s in worker.spans], None)
    return tracer


def _events(doc, *phases):
    return [e for e in doc["traceEvents"] if e["ph"] in phases]


class TestChromeTraceExport:
    def test_matches_golden_file(self):
        assert chrome_trace_to_json(_golden_tracer()) + "\n" == GOLDEN.read_text()

    def test_golden_file_is_well_formed(self):
        assert validate_chrome_trace(json.loads(GOLDEN.read_text())) == []

    def test_schema_stamp(self):
        doc = to_chrome_trace(_golden_tracer())
        assert doc["otherData"]["schema"] == CHROME_TRACE_SCHEMA

    def test_one_lane_per_worker(self):
        doc = to_chrome_trace(_golden_tracer())
        lanes = {(e["pid"], e["tid"]) for e in _events(doc, "B", "E")}
        # main thread, one pool thread, one process worker on its real pid
        assert lanes == {(1, 0), (1, 2), (4242, 1)}

    def test_metadata_names_every_lane(self):
        doc = to_chrome_trace(_golden_tracer())
        names = {
            (e["pid"], e["tid"], e["name"]): e["args"]["name"]
            for e in _events(doc, "M")
        }
        assert names[(1, 0, "process_name")] == "repro (main)"
        assert names[(4242, 0, "process_name")] == "repro worker pid 4242"
        assert names[(1, 0, "thread_name")] == "main"
        assert names[(1, 2, "thread_name")] == "repro-task_0"
        assert names[(4242, 1, "thread_name")] == "worker"

    def test_flow_events_link_submit_to_execute(self):
        doc = to_chrome_trace(_golden_tracer())
        starts = {e["id"]: e for e in _events(doc, "s")}
        finishes = {e["id"]: e for e in _events(doc, "f")}
        assert set(starts) == set(finishes) and len(starts) == 3
        for fid, finish in finishes.items():
            # the submit anchor lives on the main lane, the finish on the
            # task's execution lane
            assert (starts[fid]["pid"], starts[fid]["tid"]) == (1, 0)
            assert finish["bt"] == "e"
        finish_lanes = {(e["pid"], e["tid"]) for e in finishes.values()}
        assert (4242, 1) in finish_lanes  # cross-process link

    def test_b_e_balanced_and_monotone_per_lane(self):
        doc = to_chrome_trace(_golden_tracer())
        by_lane = {}
        for e in _events(doc, "B", "E"):
            by_lane.setdefault((e["pid"], e["tid"]), []).append(e)
        for lane_events in by_lane.values():
            depth = 0
            last_ts = -math.inf
            for e in lane_events:
                assert e["ts"] >= last_ts
                last_ts = e["ts"]
                depth += 1 if e["ph"] == "B" else -1
                assert depth >= 0
            assert depth == 0

    def test_unclosed_spans_are_skipped(self):
        tracer = Tracer(clock=TickClock(step=0.001))
        span = tracer.span("never.closed")
        span.__enter__()
        doc = to_chrome_trace(tracer)
        assert _events(doc, "B", "E") == []
        assert validate_chrome_trace(doc) == []

    def test_error_spans_carry_status(self):
        tracer = Tracer(clock=TickClock(step=0.001))
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("bad")
        begin = _events(to_chrome_trace(tracer), "B")[0]
        assert begin["args"]["status"] == "error"
        assert "bad" in begin["args"]["error"]

    def test_write_round_trips(self, tmp_path):
        out = write_chrome_trace(_golden_tracer(), tmp_path / "run.trace.json")
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_accepts_span_dicts(self):
        rows = [s.as_dict() for s in _golden_tracer().spans]
        assert to_chrome_trace(rows) == to_chrome_trace(_golden_tracer())


class TestChromeTraceValidator:
    def _doc(self):
        return to_chrome_trace(_golden_tracer())

    def test_unbalanced_b_is_caught(self):
        doc = self._doc()
        doc["traceEvents"] = [
            e for e in doc["traceEvents"] if e["ph"] != "E"
        ]
        assert any("unclosed" in p for p in validate_chrome_trace(doc))

    def test_stray_e_is_caught(self):
        doc = self._doc()
        first_b = next(i for i, e in enumerate(doc["traceEvents"]) if e["ph"] == "B")
        del doc["traceEvents"][first_b]
        assert validate_chrome_trace(doc) != []

    def test_backwards_timestamp_is_caught(self):
        doc = self._doc()
        es = [e for e in doc["traceEvents"] if e["ph"] in ("B", "E")]
        es[-1]["ts"] = -1.0
        assert any("backwards" in p for p in validate_chrome_trace(doc))

    def test_dangling_flow_is_caught(self):
        doc = self._doc()
        doc["traceEvents"] = [e for e in doc["traceEvents"] if e["ph"] != "f"]
        assert any("flow id" in p for p in validate_chrome_trace(doc))

    def test_non_list_events_rejected(self):
        assert validate_chrome_trace({"traceEvents": None}) != []


class TestSamplingProfiler:
    def test_samples_a_busy_loop(self):
        with SamplingProfiler(interval=0.001) as prof:
            deadline = time.perf_counter() + 0.05
            while time.perf_counter() < deadline:
                pass
        assert prof.samples > 0
        assert prof.total_seconds() > 0
        collapsed = prof.collapsed()
        assert collapsed
        for line in collapsed.splitlines():
            stack, __, count = line.rpartition(" ")
            assert stack and int(count) >= 1
            assert all(":" in frame for frame in stack.split(";"))
        assert prof.self_time_by_function()

    def test_write_collapsed(self, tmp_path):
        with SamplingProfiler(interval=0.001) as prof:
            time.sleep(0.01)
        out = prof.write_collapsed(tmp_path / "prof.txt")
        assert out.read_text() == prof.collapsed() + "\n"

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_double_start_rejected(self):
        prof = SamplingProfiler(interval=0.01).start()
        try:
            with pytest.raises(RuntimeError):
                prof.start()
        finally:
            prof.stop()

    def test_stop_is_idempotent(self):
        prof = SamplingProfiler(interval=0.01).start()
        prof.stop()
        prof.stop()


class TestEngineStatsAttribution:
    def _stats(self):
        return EngineStats(
            executor="thread",
            workers=2,
            n_tasks=3,
            wall_seconds=2.0,
            task_seconds={"phase/m0": 1.0, "job": 0.5, "production": 0.25},
            task_cpu_seconds={"phase/m0": 0.8, "job": 0.5, "production": 0.2},
            task_peak_alloc={"phase/m0": 2048, "job": 1024, "production": 512},
        )

    def test_cpu_totals_and_utilization(self):
        es = self._stats()
        assert es.cpu_seconds == pytest.approx(1.5)
        assert es.cpu_utilization == pytest.approx(0.75)

    def test_top_tasks_sorted_by_wall(self):
        rows = self._stats().top_tasks(2)
        assert [r["task"] for r in rows] == ["phase/m0", "job"]
        assert rows[0]["kind"] == "phase"
        assert rows[0]["cpu_seconds"] == pytest.approx(0.8)
        assert rows[0]["peak_alloc_bytes"] == 2048

    def test_as_dict_is_json_safe_with_attribution(self):
        doc = json.loads(json.dumps(self._stats().as_dict()))
        assert doc["cpu_seconds"] == pytest.approx(1.5)
        assert doc["alloc_tracked"] is True
        assert len(doc["top_tasks"]) == 3

    def test_tolerates_pre_perf_snapshots(self):
        # EngineStats travels inside checkpoint pickles; snapshots taken
        # before the attribution fields existed unpickle without them
        es = self._stats()
        del es.__dict__["task_cpu_seconds"]
        del es.__dict__["task_peak_alloc"]
        es = pickle.loads(pickle.dumps(es))
        doc = es.as_dict()
        assert doc["cpu_seconds"] == 0.0
        assert doc["alloc_tracked"] is False
        assert es.top_tasks(1)[0]["task"] == "phase/m0"


def _manifest_doc():
    return {
        "schema": "repro.manifest/1",
        "wall_clock": {"total_seconds": 2.0, "levels": {"PHASE": 1.5}},
        "engine": {
            "wall_seconds": 2.0,
            "compute_seconds": 1.75,
            "cpu_seconds": 1.5,
            "top_tasks": [
                {"task": "phase/m0", "kind": "phase", "wall_seconds": 1.0,
                 "cpu_seconds": 0.8, "peak_alloc_bytes": 2048},
                {"task": "job", "kind": "job", "wall_seconds": 0.5},
            ],
        },
    }


class TestPerfReport:
    def test_manifest_rows(self):
        rows = perf_report_rows(_manifest_doc(), top=1)
        assert rows == [
            {"task": "phase/m0", "kind": "phase", "wall_seconds": 1.0,
             "cpu_seconds": 0.8, "peak_alloc_bytes": 2048}
        ]

    def test_trace_rows(self):
        rows = perf_report_rows(_golden_tracer().as_dict(), top=10)
        assert {r["task"] for r in rows} == {
            "phase/line-0/machine-0", "job", "line/line-0"
        }
        assert all(r["wall_seconds"] > 0 for r in rows)
        walls = [r["wall_seconds"] for r in rows]
        assert walls == sorted(walls, reverse=True)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            perf_report_rows({"schema": "bogus/1"})


class TestCaptureInvariance:
    """Perf capture must never perturb detection results."""

    @staticmethod
    def _detect(plant, **config_kwargs):
        from repro.core import HierarchicalDetectionPipeline, PipelineConfig
        from repro.io import reports_to_json

        pipeline = HierarchicalDetectionPipeline(
            plant, config=PipelineConfig(**config_kwargs)
        )
        return reports_to_json(
            pipeline.run(), health=pipeline.health, stats=pipeline.stats()
        )

    def test_alloc_capture_is_byte_invisible(self, small_plant):
        plain = self._detect(small_plant)
        captured = self._detect(small_plant, perf_alloc=True)
        assert captured == plain

    def test_profiler_is_byte_invisible(self, small_plant):
        plain = self._detect(small_plant)
        with SamplingProfiler(interval=0.001):
            profiled = self._detect(small_plant)
        assert profiled == plain

    def test_alloc_capture_populates_engine_stats(self, small_plant):
        from repro.core import HierarchicalDetectionPipeline, PipelineConfig

        pipeline = HierarchicalDetectionPipeline(
            small_plant, config=PipelineConfig(perf_alloc=True)
        )
        pipeline.run()
        stats = pipeline.context.engine_stats()
        assert stats.task_peak_alloc
        assert set(stats.task_peak_alloc) == set(stats.task_seconds)
        assert all(v >= 0 for v in stats.task_peak_alloc.values())
        assert set(stats.task_cpu_seconds) == set(stats.task_seconds)


class TestPerfCli:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_report_prints_table(self, tmp_path, capsys):
        from repro.cli import main

        artifact = self._write(tmp_path / "m.json", _manifest_doc())
        assert main(["perf", "report", artifact, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "phase/m0" in out and "wall_ms" in out
