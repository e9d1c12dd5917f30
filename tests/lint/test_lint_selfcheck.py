"""Self-checks: the linter's contracts hold on the *real* tree.

Four cross-artifact consistency surfaces, plus a size limit:

* ``src/repro`` lints clean (the tentpole acceptance criterion), and no
  module in it has more than 1,000 lines;
* the Table-1 manifest matches the live registry class-for-class (all
  29 detectors) and tampering with it is detected;
* the metric catalog agrees with a live pipeline run and with the
  golden Prometheus exposition;
* ``docs/API.md`` has not drifted from the package surface.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tools.lint import LintConfig, run_lint
from tools.lint.rules import make_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
MANIFEST = REPO_ROOT / "tools" / "lint" / "table1_manifest.json"


class TestRealTreeIsClean:
    def test_src_lints_clean(self):
        findings = run_lint(
            [REPO_ROOT / "src"], make_rules(), LintConfig(root=REPO_ROOT)
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_no_module_over_1000_lines(self):
        # a module that long mixes decisions that belong in modules of their own
        sizes = {
            str(path.relative_to(REPO_ROOT)): len(path.read_text().splitlines())
            for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        }
        assert {p: n for p, n in sizes.items() if n > 1000} == {}


class TestManifestMatchesRegistry:
    def _manifest(self):
        return json.loads(MANIFEST.read_text())["detectors"]

    def test_covers_all_29_registered_detectors(self):
        from repro.detectors import registry

        rows = list(registry.TABLE1_ROWS) + list(registry.BASELINE_ROWS)
        assert len(rows) == 29
        manifest_classes = {entry["class"] for entry in self._manifest()}
        registry_classes = {row.cls.__name__ for row in rows}
        assert manifest_classes == registry_classes

    def test_rows_agree_field_for_field(self):
        from repro.detectors import registry

        by_class = {entry["class"]: entry for entry in self._manifest()}
        for container, kind in (
            (registry.TABLE1_ROWS, "table1"),
            (registry.BASELINE_ROWS, "baseline"),
        ):
            for row in container:
                entry = by_class[row.cls.__name__]
                assert entry["technique"] == row.technique
                assert entry["citation"] == row.citation
                assert entry["family"] == row.family.value
                assert entry["row"] == kind
                assert entry["detector"] == row.cls.name
                pts, ssq, tss = row.cls.capabilities()
                for flag, got in (("pts", pts), ("ssq", ssq), ("tss", tss)):
                    assert entry[flag] == got, f"{row.cls.__name__}.{flag}"

    def test_tampered_manifest_is_detected(self, tmp_path):
        doc = json.loads(MANIFEST.read_text())
        doc["detectors"][0]["technique"] = "Tampered technique"
        flag = "pts" if not doc["detectors"][1]["pts"] else "ssq"
        doc["detectors"][1][flag] = not doc["detectors"][1][flag]
        tampered = tmp_path / "manifest.json"
        tampered.write_text(json.dumps(doc))
        findings = run_lint(
            [REPO_ROOT / "src"],
            make_rules(),
            LintConfig(manifest_path=tampered, root=REPO_ROOT),
        )
        rules = {f.rule for f in findings}
        assert "REG002" in rules  # technique drift
        assert "REG003" in rules  # capability drift

    def test_dropped_manifest_entry_is_detected(self, tmp_path):
        doc = json.loads(MANIFEST.read_text())
        dropped = doc["detectors"].pop()
        truncated = tmp_path / "manifest.json"
        truncated.write_text(json.dumps(doc))
        findings = run_lint(
            [REPO_ROOT / "src"],
            make_rules(),
            LintConfig(manifest_path=truncated, root=REPO_ROOT),
        )
        messages = [f.message for f in findings if f.rule == "REG002"]
        assert any(dropped["class"] in m for m in messages)


class TestMetricCatalog:
    def test_live_pipeline_run_stays_in_catalog(self, small_plant):
        from repro.core import HierarchicalDetectionPipeline
        from repro.obs import catalog_problems

        pipeline = HierarchicalDetectionPipeline(small_plant)
        pipeline.run()
        assert catalog_problems(pipeline.telemetry.metrics) == ()

    def test_golden_exposition_kinds_match_catalog(self):
        from repro.obs import METRIC_CATALOG

        golden = (REPO_ROOT / "tests" / "obs" / "golden_metrics.prom").read_text()
        declared = dict(re.findall(r"# TYPE (\S+) (\S+)", golden))
        overlap = set(declared) & set(METRIC_CATALOG)
        assert overlap, "golden exposition shares no families with the catalog"
        for name in sorted(overlap):
            assert declared[name] == METRIC_CATALOG[name].kind, name

    def test_catalog_problems_flags_stray_metric(self):
        from repro.obs import MetricsRegistry, catalog_problems

        registry = MetricsRegistry()
        registry.counter("repro_not_catalogued_total", "stray").inc()
        problems = catalog_problems(registry)
        assert len(problems) == 1
        assert "repro_not_catalogued_total" in problems[0]

    def test_catalog_problems_allows_dynamic_prefix(self):
        from repro.obs import MetricsRegistry, catalog_problems

        registry = MetricsRegistry()
        registry.gauge("repro_stats_cache_confirm_hits", "dynamic").set(1.0)
        assert catalog_problems(registry) == ()


class TestApiDocsFresh:
    @pytest.mark.obs
    def test_generated_docs_have_not_drifted(self):
        proc = subprocess.run(
            [sys.executable, "tools/gen_api_docs.py", "--check"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
