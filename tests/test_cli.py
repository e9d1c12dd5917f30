"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_detect_level_bounds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--start-level", "6"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--batch-scoring"],
            ["detect", "--executor", "thread"],
            ["sanitize", "--executor", "thread"],
        ],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_sanitize_defaults_to_serial(self):
        assert build_parser().parse_args(["sanitize"]).executor == "serial"


class TestCommands:
    @pytest.fixture(scope="class")
    def plant_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "plant.npz"
        rc = main([
            "simulate", "--seed", "5", "--lines", "1", "--machines", "2",
            "--jobs", "4", "--process-fault-rate", "0.3",
            "--sensor-fault-rate", "0.3", "--out", str(path),
        ])
        assert rc == 0
        return path

    def test_simulate_writes_archive(self, plant_file, capsys):
        assert plant_file.exists()

    def test_detect_on_saved_plant(self, plant_file, capsys, tmp_path):
        out_json = tmp_path / "reports.json"
        rc = main([
            "detect", "--plant", str(plant_file), "--top", "5",
            "--json", str(out_json),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "hierarchical reports" in captured
        payload = json.loads(out_json.read_text())
        assert "reports" in payload

    def test_detect_explain(self, plant_file, capsys):
        rc = main(["detect", "--plant", str(plant_file), "--explain", "2"])
        assert rc == 0
        assert "VERDICT" in capsys.readouterr().out

    def test_detect_fusion_choice(self, plant_file, capsys):
        rc = main(["detect", "--plant", str(plant_file), "--fusion", "max"])
        assert rc == 0
        assert "fusion=max" in capsys.readouterr().out

    def test_monitor(self, plant_file, capsys):
        rc = main(["monitor", "--plant", str(plant_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "machine health" in out
        assert "maintenance ranking" in out

    def test_detect_telemetry_artifacts(self, plant_file, capsys, tmp_path):
        out_json = tmp_path / "reports.json"
        metrics = tmp_path / "m.prom"
        trace = tmp_path / "t.json"
        rc = main([
            "detect", "--plant", str(plant_file),
            "--json", str(out_json),
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
        ])
        assert rc == 0

        # metrics: valid Prometheus text exposition
        prom = metrics.read_text()
        assert "# TYPE repro_detector_calls_total counter" in prom
        assert "# TYPE repro_detector_latency_seconds histogram" in prom
        assert 'le="+Inf"' in prom

        # trace: span tree covering all 5 levels + every detector call
        from repro.obs import spans_from_dicts, validate_spans

        doc = json.loads(trace.read_text())
        spans = spans_from_dicts(doc)
        assert validate_spans(spans) == []
        names = {s.name for s in spans}
        for level in ("PHASE", "ENVIRONMENT", "JOB", "PRODUCTION_LINE",
                      "PRODUCTION"):
            assert f"score.{level}" in names
        assert any(s.name == "detector" for s in spans)

        # report: telemetry section with health and cache counters
        payload = json.loads(out_json.read_text())
        assert payload["telemetry"]["stats"]["cache"]["confirm"]["calls"] >= 0
        assert "run_health" in payload["telemetry"]

        # manifest written next to the report
        manifest = json.loads(
            (tmp_path / "reports.manifest.json").read_text()
        )
        assert manifest["schema"] == "repro.manifest/1"
        assert manifest["command"] == "detect"
        assert manifest["wall_clock"]["trace_well_formed"] is True
        assert manifest["artifacts"]["trace"] == str(trace)

    def test_trace_subcommand_renders_tree(self, plant_file, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main([
            "detect", "--plant", str(plant_file), "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        rc = main(["trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alg1.run" in out
        assert "score.PHASE" in out
        assert "per-level timings:" in out
        assert "ms" in out

    def test_detect_log_level_installs_json_handler(self, plant_file, capsys):
        from repro.obs import JsonLogFormatter, get_logger

        rc = main([
            "detect", "--plant", str(plant_file), "--log-level", "WARNING",
        ])
        assert rc == 0
        logger = get_logger()
        installed = [
            h for h in logger.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(installed) == 1
        assert isinstance(installed[0].formatter, JsonLogFormatter)
        logger.removeHandler(installed[0])  # don't leak into other tests
        logger.setLevel(0)

    def test_table1(self, capsys):
        rc = main(["table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Expectation-Maximization" in out
        assert out.count("✓") == 39  # exactly the paper's checkmarks

    def test_fig3_small(self, capsys):
        rc = main(["fig3", "--records", "3000", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "anomaly detection" in out
        assert "fault detection" in out
