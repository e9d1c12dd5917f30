"""Exporters: golden Prometheus exposition, span trees, run manifests."""

from __future__ import annotations

import json
import pathlib

from repro.obs import (
    MetricsRegistry,
    TickClock,
    Tracer,
    build_run_manifest,
    escape_label_value,
    level_timings,
    manifest_path_for,
    metrics_to_json,
    render_span_tree,
    to_prometheus,
    write_metrics,
    write_run_manifest,
    write_trace,
)

GOLDEN = pathlib.Path(__file__).parent / "golden_metrics.prom"


def _golden_registry() -> MetricsRegistry:
    """The fixed registry whose exposition is pinned byte-for-byte."""
    reg = MetricsRegistry()
    calls = reg.counter(
        "repro_detector_calls_total",
        "Detector invocations by level and outcome.",
        labelnames=("level", "detector", "outcome"),
    )
    calls.inc(3, level="PHASE", detector="ar", outcome="ok")
    calls.inc(level="PHASE", detector="zscore", outcome="error")
    calls.inc(level="JOB", detector="iforest", outcome="ok")
    reg.gauge(
        "repro_cache_hit_ratio", "Hit ratio per memo table.",
        labelnames=("cache",),
    ).set(0.75, cache="confirm")
    weird = reg.counter(
        "repro_escaping_total", 'Help with a backslash \\ and "quotes".',
        labelnames=("path",),
    )
    weird.inc(path='C:\\plant\n"line-0"')
    hist = reg.histogram(
        "repro_support", "Support distribution.",
        buckets=(0.0, 0.5, 1.0),
    )
    for v in (0.0, 0.25, 0.5, 0.75, 1.0):
        hist.observe(v)
    return reg


class TestPrometheusExposition:
    def test_matches_golden_file(self):
        assert to_prometheus(_golden_registry()) == GOLDEN.read_text()

    def test_help_and_type_lines_for_every_metric(self):
        text = to_prometheus(_golden_registry())
        for name, kind in (
            ("repro_detector_calls_total", "counter"),
            ("repro_cache_hit_ratio", "gauge"),
            ("repro_support", "histogram"),
        ):
            assert f"# TYPE {name} {kind}" in text
            assert f"# HELP {name} " in text

    def test_label_escaping(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        text = to_prometheus(_golden_registry())
        assert r'path="C:\\plant\n\"line-0\""' in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = to_prometheus(_golden_registry())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_support_bucket")
        ]
        assert counts == sorted(counts)
        assert 'le="+Inf"} 5' in text
        assert "repro_support_count 5" in text

    def test_write_metrics_round_trips(self, tmp_path):
        out = write_metrics(_golden_registry(), tmp_path / "m.prom")
        assert out.read_text() == GOLDEN.read_text()

    def test_metrics_to_json_is_valid_json(self):
        doc = json.loads(metrics_to_json(_golden_registry()))
        assert doc["schema"] == "repro.metrics/1"
        assert "repro_support" in doc["metrics"]


def _traced() -> Tracer:
    tracer = Tracer(clock=TickClock(step=0.001))
    with tracer.span("alg1.run", start_level="PHASE"):
        with tracer.span("score.PHASE", level="PHASE"):
            with tracer.span("detector", detector="ar"):
                pass
        with tracer.span("score.JOB", level="JOB"):
            pass
    return tracer


class TestSpanTree:
    def test_renders_every_span_once(self):
        tracer = _traced()
        text = render_span_tree(tracer.spans)
        lines = text.splitlines()
        assert len(lines) == len(tracer.spans)
        assert lines[0].startswith("alg1.run")
        assert any("detector [detector=ar]" in line for line in lines)
        assert all("ms" in line for line in lines)

    def test_max_depth_truncates(self):
        tracer = _traced()
        text = render_span_tree(tracer.spans, max_depth=1)
        assert "detector" not in text
        assert "score.PHASE" in text

    def test_orphans_become_roots(self):
        spans = _traced().spans[1:]  # drop the root
        text = render_span_tree(spans)
        assert len(text.splitlines()) == len(spans)

    def test_level_timings_sums_score_spans(self):
        timings = level_timings(_traced().spans)
        assert set(timings) == {"PHASE", "JOB"}
        assert timings["PHASE"] > timings["JOB"] > 0


class TestManifest:
    def test_manifest_contents(self):
        tracer = _traced()
        manifest = build_run_manifest(
            command="detect",
            config={"fusion_strategy": "weighted"},
            seed=7,
            tracer=tracer,
            n_reports=4,
            artifacts={"report": "r.json"},
        )
        assert manifest["schema"] == "repro.manifest/1"
        assert manifest["package"]["name"] == "repro"
        assert manifest["package"]["version"] != "unknown"
        assert manifest["seed"] == 7
        assert manifest["config"]["fusion_strategy"] == "weighted"
        assert manifest["wall_clock"]["n_spans"] == len(tracer.spans)
        assert manifest["wall_clock"]["trace_well_formed"] is True
        assert manifest["wall_clock"]["levels"]["PHASE"] > 0
        assert manifest["reports"]["count"] == 4
        assert manifest["artifacts"] == {"report": "r.json"}

    def test_manifest_embeds_health(self, small_plant):
        from repro.core import HierarchicalDetectionPipeline

        pipeline = HierarchicalDetectionPipeline(small_plant)
        pipeline.run()
        manifest = build_run_manifest(
            command="detect", health=pipeline.health
        )
        assert manifest["health"]["degraded"] == pipeline.health.degraded
        assert "health_fallbacks" in manifest["health"]

    def test_write_and_path_helpers(self, tmp_path):
        manifest = build_run_manifest(command="detect")
        path = manifest_path_for(tmp_path / "report.json")
        assert path.name == "report.manifest.json"
        write_run_manifest(manifest, path)
        assert json.loads(path.read_text())["command"] == "detect"

    def test_write_trace(self, tmp_path):
        out = write_trace(_traced(), tmp_path / "t.json")
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.trace/1"
        assert len(doc["spans"]) == 4
