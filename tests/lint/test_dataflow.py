"""Dataflow-engine suite (``tools.lint.dataflow`` + DET1xx wiring).

The DET1xx rules are only as good as the project model underneath them:
module naming, import resolution, engine entry-point discovery, and the
worker-reachability closure.  This file pins each of those down on the
*real* tree and on the fixture trees, and asserts the headline
acceptance scenario — the PR-5 hash-order simulator bug is caught
statically via the CLI with exit code 1 — plus the SARIF renderer and
baseline round-trip shared by ``repro lint`` and ``repro sanitize``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.lint import LintConfig, run_lint
from tools.lint.core import (
    Finding,
    ParsedFile,
    apply_baseline,
    baseline_document,
    load_baseline,
    sarif_document,
)
from tools.lint.dataflow import build_models, module_name_for
from tools.lint.rules import make_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _parse(paths):
    return [ParsedFile.parse(p, root=REPO_ROOT) for p in sorted(paths)]


def _real_model():
    models = build_models(_parse((REPO_ROOT / "src" / "repro").rglob("*.py")))
    assert len(models) == 1, "src/repro must form a single project model"
    return next(iter(models.values()))


class TestModuleNaming:
    @pytest.mark.parametrize(
        ("path", "expected"),
        [
            ("src/repro/core/parallel.py", "repro.core.parallel"),
            ("src/repro/__init__.py", "repro"),
            ("src/repro/plant/__init__.py", "repro.plant"),
            ("tests/lint/fixtures/bad/repro/core/tasks.py", "repro.core.tasks"),
        ],
    )
    def test_anchors_at_last_repro_component(self, path, expected):
        assert module_name_for(path) == expected

    def test_fixture_trees_do_not_fuse_with_src(self):
        files = _parse((REPO_ROOT / "src" / "repro").rglob("*.py")) + _parse(
            (FIXTURES / "bad").rglob("*.py")
        )
        models = build_models(files)
        # same dotted namespace, different anchor roots -> separate models
        assert len(models) == 2


class TestEntryPointDiscovery:
    def test_real_tree_entry_points(self):
        model = _real_model()
        entries = set(model.entry_points)
        # the engine's pool submission target is always an entry point
        assert "repro.core.parallel._pool_call" in entries
        assert "repro.core.parallel._timed_call" in model.worker_reachable
        # every _TASK_RUNNERS dispatch value is an entry point
        runners = {e for e in entries if e.startswith("repro.core.tasks._run_")}
        assert len(runners) >= 5, sorted(entries)

    def test_reachable_set_is_worker_side_only(self):
        model = _real_model()
        reachable = model.worker_reachable
        assert any(q.startswith("repro.core.") for q in reachable)
        # the CLI and the observability plane never run inside workers
        assert not any(q.startswith("repro.cli") for q in reachable)
        assert not any(q.startswith("repro.obs.") for q in reachable)

    def test_cross_file_reachability_through_imports(self):
        # bad/repro/core/pipeline.py's runner calls helper_task from
        # bad/repro/core/tasks.py; both must be in the closure
        files = _parse((FIXTURES / "bad" / "repro" / "core").rglob("*.py"))
        model = next(iter(build_models(files).values()))
        reachable = model.worker_reachable
        assert "repro.core.pipeline._run_score_task" in reachable
        assert "repro.core.tasks.helper_task" in reachable


class TestPlantedSimulatorBug:
    """Acceptance: the PR-5-class hash-order bug is caught statically."""

    def test_cli_exits_one_with_det103(self):
        planted = FIXTURES / "bad" / "repro" / "plant" / "simulate.py"
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", str(planted),
             "--select", "DET103", "--no-baseline", "--format", "json"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["summary"] == {"DET103": 1}
        finding = doc["findings"][0]
        assert finding["rule"] == "DET103"
        assert finding["line"] == 7
        assert finding["path"].endswith("plant/simulate.py")

    def test_fixed_idiom_is_clean(self):
        fixed = FIXTURES / "good" / "repro" / "plant" / "simulate.py"
        findings = run_lint([fixed], make_rules(), LintConfig(root=REPO_ROOT))
        assert findings == []


class TestSarifOutput:
    def test_cli_sarif_parses_and_carries_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", str(FIXTURES / "bad"),
             "--select", "DET10", "--no-baseline", "--format", "sarif"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"DET101", "DET102", "DET103", "DET104"} <= rule_ids
        for result in run["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1

    def test_sarif_document_unit(self):
        findings = [
            Finding(rule="DET103", path="x.py", line=3, message="set iter",
                    hint="sort it"),
        ]
        doc = sarif_document(findings, tool="repro-lint")
        result = doc["runs"][0]["results"][0]
        assert result["ruleId"] == "DET103"
        assert "[fix: sort it]" in result["message"]["text"]


class TestBaseline:
    def test_roundtrip_suppresses_everything(self, tmp_path):
        findings = run_lint(
            [FIXTURES / "bad"], make_rules(), LintConfig(root=REPO_ROOT)
        )
        assert findings
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(baseline_document(findings)))
        kept, suppressed = apply_baseline(findings, load_baseline(baseline_file))
        assert kept == []
        assert suppressed == len(findings)

    def test_budget_drops_lowest_lines_first(self):
        # findings reach apply_baseline sorted by (path, line), so the
        # earliest occurrences consume the budget
        findings = [
            Finding(rule="DET101", path="m.py", line=10, message="early"),
            Finding(rule="DET101", path="m.py", line=30, message="late"),
        ]
        kept, suppressed = apply_baseline(
            findings, {("DET101", "m.py"): 1}
        )
        assert suppressed == 1
        assert [f.line for f in kept] == [30]

    def test_checked_in_baseline_is_empty(self):
        # src/ is clean, so the shipped baseline must not grandfather
        # anything — new DET findings in src must fail CI immediately
        doc = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert doc["schema"] == "repro.lint-baseline/1"
        assert doc["suppressions"] == []

    def test_cli_write_then_apply(self, tmp_path):
        baseline = tmp_path / "b.json"
        write = subprocess.run(
            [sys.executable, "-m", "tools.lint", str(FIXTURES / "bad"),
             "--write-baseline", str(baseline)],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert write.returncode == 0, write.stderr
        apply = subprocess.run(
            [sys.executable, "-m", "tools.lint", str(FIXTURES / "bad"),
             "--baseline", str(baseline)],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert apply.returncode == 0, apply.stdout
        assert "baselined" in apply.stdout

    def test_bad_baseline_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/1", "suppressions": []}))
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", str(FIXTURES / "good"),
             "--baseline", str(bad)],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 2
        assert "bad baseline" in proc.stderr


class TestStreamMonitorRegression:
    """The one true positive the DET1xx sweep found stays fixed."""

    def test_reconsider_support_iterates_sorted(self):
        source = (REPO_ROOT / "src" / "repro" / "streaming"
                  / "stream_monitor.py").read_text(encoding="utf-8")
        assert "for cid in sorted({e.channel_id" in source

    def test_src_has_no_det1xx_findings(self):
        rules = [
            r for r in make_rules()
            if any(rid.startswith("DET10") for rid in r.rule_ids)
        ]
        findings = run_lint(
            [REPO_ROOT / "src"], rules, LintConfig(root=REPO_ROOT)
        )
        assert findings == [], "\n".join(f.render() for f in findings)
