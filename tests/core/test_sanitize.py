"""Runtime sanitizer suite (``repro.sanitize`` + ``repro sanitize``).

Covers the three dynamic checks: the unseeded-RNG trap (SAN101/SAN102),
the dual-``PYTHONHASHSEED`` replay plumbing (SAN104), and the executor
byte-identity matrix (SAN105) — plus the finding renderers, baseline
suppression, and the CLI exit-code contract shared with ``repro lint``.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np
import pytest

from repro.cli import main
from repro.io import save_plant
from repro.plant import PlantConfig, simulate_plant
from repro.sanitize import (
    Finding,
    RngTrap,
    apply_baseline,
    canonical_report_bytes,
    executor_matrix,
    format_findings,
    hash_seed_replay,
    load_baseline,
    sarif_document,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Compiled with a filename inside the repro package so the trap's
#: stack-walk attributes the call to "repro code" — the real package is
#: deliberately clean, so the probes have to fake their origin.
_PROBE_FILE = os.path.join("src", "repro", "_sanitize_probe.py")


def _probe(source: str):
    return compile(source, _PROBE_FILE, "exec")


def _tiny_plant(seed: int = 3):
    return simulate_plant(
        PlantConfig(seed=seed, n_lines=1, machines_per_line=2, jobs_per_machine=3)
    )


class TestRngTrap:
    def test_unseeded_default_rng_flagged(self):
        with RngTrap() as trap:
            exec(_probe("import numpy as _np\n_np.random.default_rng()\n"), {})
        assert [f.rule for f in trap.findings] == ["SAN101"]
        finding = trap.findings[0]
        assert finding.line == 2
        assert finding.path.endswith("_sanitize_probe.py")

    def test_seeded_default_rng_clean(self):
        with RngTrap() as trap:
            exec(_probe("import numpy as _np\n_np.random.default_rng(7)\n"), {})
        assert trap.findings == []

    def test_stdlib_random_flagged(self):
        with RngTrap() as trap:
            exec(_probe("import random as _r\n_r.random()\n_r.randint(1, 5)\n"), {})
        assert [f.rule for f in trap.findings] == ["SAN102", "SAN102"]
        assert "random.random()" in trap.findings[0].message

    def test_calls_outside_repro_ignored(self):
        with RngTrap() as trap:
            np.random.default_rng()  # this file is not repro code
        assert trap.findings == []

    def test_originals_restored_on_exit(self):
        import random

        before_np = np.random.default_rng
        before_std = random.random
        with RngTrap():
            assert np.random.default_rng is not before_np
        assert np.random.default_rng is before_np
        assert random.random is before_std

    def test_construction_still_works_while_trapped(self):
        with RngTrap():
            rng = np.random.default_rng(42)
        assert isinstance(rng, np.random.Generator)
        assert rng.integers(0, 10) == np.random.default_rng(42).integers(0, 10)


class TestNoEngineHook:
    def test_src_never_reads_repro_sanitize(self):
        """The sanitizer is a CLI, not an environment switch: no module
        under ``src/`` consults ``REPRO_SANITIZE``."""
        readers = [
            path.relative_to(REPO_ROOT).as_posix()
            for path in sorted((REPO_ROOT / "src").rglob("*.py"))
            if "REPRO_SANITIZE" in path.read_text(encoding="utf-8")
        ]
        assert readers == []


class TestExecutorMatrix:
    def test_clean_on_tiny_plant(self):
        # default matrix: serial vs process
        findings = executor_matrix(lambda: _tiny_plant())
        assert findings == []

    def test_canonical_bytes_deterministic_and_stats_free(self):
        first = canonical_report_bytes(_tiny_plant())  # default config: serial
        second = canonical_report_bytes(_tiny_plant())
        assert first == second
        doc = json.loads(first.decode("utf-8"))
        telemetry = doc.get("telemetry", {})
        assert "stats" not in telemetry  # timings would break byte-identity
        assert "run_health" in telemetry


class TestHashSeedReplay:
    def test_clean_replay_on_tiny_plant(self, tmp_path):
        plant = tmp_path / "tiny.npz"
        save_plant(_tiny_plant(), plant)
        findings = hash_seed_replay(
            ["sanitize", "--replay-child", "--executor", "serial",
             "--plant", str(plant)]
        )
        assert findings == []

    def test_child_failure_reported_as_san104(self, tmp_path):
        findings = hash_seed_replay(
            ["sanitize", "--replay-child", "--executor", "serial",
             "--plant", str(tmp_path / "missing.npz")]
        )
        assert [f.rule for f in findings] == ["SAN104"]
        assert "exited" in findings[0].message


class TestRenderingAndBaseline:
    FINDINGS = (
        Finding(rule="SAN103", path="a.py", line=4, message="write", hint="merge"),
        Finding(rule="SAN101", path="b.py", line=9, message="unseeded"),
    )

    def test_text_format(self):
        text = format_findings(self.FINDINGS, "text", checked=3)
        assert "a.py:4: SAN103 write  [fix: merge]" in text
        assert "SAN101=1, SAN103=1" in text

    def test_json_format(self):
        doc = json.loads(format_findings(self.FINDINGS, "json", checked=3))
        assert doc["tool"] == "repro-sanitize"
        assert doc["summary"] == {"SAN103": 1, "SAN101": 1}

    def test_sarif_format(self):
        doc = sarif_document(self.FINDINGS)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "SAN103", "SAN101",
        ]
        result = run["results"][0]
        assert result["locations"][0]["physicalLocation"]["region"][
            "startLine"
        ] == 4
        assert "[fix: merge]" in result["message"]["text"]

    def test_baseline_roundtrip(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            json.dumps(
                {
                    "schema": "repro.lint-baseline/1",
                    "suppressions": [
                        {"rule": "SAN103", "path": "a.py", "count": 1}
                    ],
                }
            ),
            encoding="utf-8",
        )
        kept, suppressed = apply_baseline(
            list(self.FINDINGS), load_baseline(baseline_file)
        )
        assert suppressed == 1
        assert [f.rule for f in kept] == ["SAN101"]

    def test_baseline_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope", "suppressions": []}))
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestSanitizeCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys, monkeypatch):
        plant = tmp_path / "tiny.npz"
        save_plant(_tiny_plant(), plant)
        monkeypatch.chdir(tmp_path)  # no lint-baseline.json here
        code = main(
            ["sanitize", "--plant", str(plant), "--skip-replay", "--skip-matrix"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repro-sanitize: clean (1 check(s) run)" in out

    def test_sarif_output_parses(self, tmp_path, capsys, monkeypatch):
        plant = tmp_path / "tiny.npz"
        save_plant(_tiny_plant(), plant)
        monkeypatch.chdir(tmp_path)
        code = main(
            ["sanitize", "--plant", str(plant), "--executor", "serial",
             "--skip-replay", "--skip-matrix", "--format", "sarif"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []

    def test_replay_child_prints_canonical_bytes(self, tmp_path, capsys):
        plant = tmp_path / "tiny.npz"
        save_plant(_tiny_plant(), plant)
        code = main(
            ["sanitize", "--replay-child", "--executor", "serial",
             "--plant", str(plant)]
        )
        assert code == 0

    def test_metrics_out_catalogued(self, tmp_path, monkeypatch):
        plant = tmp_path / "tiny.npz"
        save_plant(_tiny_plant(), plant)
        metrics = tmp_path / "sanitize.prom"
        monkeypatch.chdir(tmp_path)
        code = main(
            ["sanitize", "--plant", str(plant), "--executor", "serial",
             "--skip-replay", "--skip-matrix", "--metrics-out", str(metrics)]
        )
        assert code == 0
        text = metrics.read_text(encoding="utf-8")
        assert 'repro_sanitize_checks_total{check="traced-run",' in text
        assert "repro_sanitize_findings_total" in text
