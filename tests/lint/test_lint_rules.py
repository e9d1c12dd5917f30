"""Fixture-tree tests: every repro-lint rule fires at a known location.

The ``bad/`` fixture tree mirrors the real package layout (the rules
scope themselves by path suffix) and violates each rule exactly where
``EXPECTED_BAD`` says; the ``good/`` tree must be clean.  Line numbers
are asserted exactly, so the fixture files and this module change
together.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from tools.lint import LintConfig, run_lint
from tools.lint.rules import ALL_RULES, make_rules, rules_by_id

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: (rule, path suffix, line) for every finding the bad tree must produce.
EXPECTED_BAD = {
    ("REG001", "bad/repro/detectors/widget.py", 14),
    ("REG002", "bad/repro/detectors/registry.py", 11),
    ("REG003", "bad/repro/detectors/widget.py", 8),
    ("REG004", "bad/repro/detectors/widget.py", 8),
    ("EXC001", "bad/repro/util_bad.py", 17),
    ("EXC002", "bad/repro/util_bad.py", 26),
    ("EXC003", "bad/repro/detectors/widget.py", 18),
    ("DET001", "bad/repro/util_bad.py", 8),
    ("DET002", "bad/repro/util_bad.py", 3),
    ("DET002", "bad/repro/util_bad.py", 10),
    ("DET003", "bad/repro/util_bad.py", 11),
    ("DET004", "bad/repro/util_bad.py", 9),
    ("DET005", "bad/repro/util_bad.py", 32),
    ("DET006", "bad/repro/util_bad.py", 36),
    ("DET101", "bad/repro/core/pipeline.py", 9),
    ("DET101", "bad/repro/core/pipeline.py", 10),
    ("DET101", "bad/repro/core/tasks.py", 7),
    ("DET102", "bad/repro/core/pipeline.py", 13),
    ("DET103", "bad/repro/plant/simulate.py", 7),
    ("DET104", "bad/repro/util_bad.py", 9),
    ("TEL001", "bad/repro/obs/emit_bad.py", 5),
    ("TEL001", "bad/repro/obs/emit_bad.py", 9),
    ("TEL002", "bad/repro/obs/emit_bad.py", 10),
    ("TEL003", "bad/repro/obs/emit_bad.py", 8),
    ("TEL004", "bad/repro/obs/emit_bad.py", 6),
    ("TEL004", "bad/repro/obs/emit_bad.py", 7),
    ("HYG001", "bad/repro/util_bad.py", 14),
    ("HYG002", "bad/repro/util_bad.py", 22),
    ("HYG003", "bad/repro/write_bad.py", 8),
    ("HYG003", "bad/repro/write_bad.py", 10),
    ("HYG003", "bad/repro/write_bad.py", 12),
    ("HYG004", "bad/repro/core/shm_bad.py", 3),
    ("HYG004", "bad/repro/core/shm_bad.py", 4),
    ("HYG004", "bad/repro/core/shm_bad.py", 8),
    ("HYG004", "bad/repro/core/shm_bad.py", 10),
}


def _lint(tree: str, manifest: str):
    config = LintConfig(manifest_path=FIXTURES / manifest, root=REPO_ROOT)
    return run_lint([FIXTURES / tree], make_rules(), config)


class TestBadTree:
    def test_every_expected_finding_fires(self):
        found = {
            (f.rule, f.path.split("fixtures/")[-1], f.line)
            for f in _lint("bad", "manifest_bad.json")
        }
        missing = EXPECTED_BAD - found
        assert not missing, f"rules that did not fire: {sorted(missing)}"

    def test_no_unexpected_findings(self):
        findings = _lint("bad", "manifest_bad.json")
        found = {(f.rule, f.path.split("fixtures/")[-1], f.line) for f in findings}
        # HYG001 fires once per mutable default; both sit on line 14.
        extra = found - EXPECTED_BAD
        assert extra == set(), f"unexpected findings: {sorted(extra)}"
        assert len(findings) == len(EXPECTED_BAD) + 1  # two HYG001 on line 14

    def test_every_rule_id_covered_by_fixtures(self):
        fired = {f.rule for f in _lint("bad", "manifest_bad.json")}
        declared = set(rules_by_id())
        assert fired == declared, (
            "fixture tree must exercise every declared rule id; "
            f"uncovered: {sorted(declared - fired)}"
        )


class TestGoodTree:
    def test_clean(self):
        findings = _lint("good", "manifest_good.json")
        assert findings == [], [f.render() for f in findings]


class TestSuppressions:
    def test_line_suppression(self, tmp_path):
        bad = tmp_path / "repro" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n"
            "T = time.time()  # repro-lint: disable=DET003\n"
            "U = time.time()\n"
        )
        findings = run_lint([tmp_path], make_rules(), LintConfig(root=tmp_path))
        assert [(f.rule, f.line) for f in findings] == [("DET003", 3)]

    def test_file_suppression(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "# repro-lint: disable-file=DET003\n"
            "import time\n"
            "T = time.time()\n"
            "U = time.time()\n"
        )
        findings = run_lint([tmp_path], make_rules(), LintConfig(root=tmp_path))
        assert findings == []

    def test_disable_all(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "def f(x=[]):  # repro-lint: disable=all\n    return x\n"
        )
        findings = run_lint([tmp_path], make_rules(), LintConfig(root=tmp_path))
        assert findings == []


class TestParseErrors:
    def test_syntax_error_becomes_lnt000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        findings = run_lint([tmp_path], make_rules(), LintConfig(root=tmp_path))
        assert [f.rule for f in findings] == ["LNT000"]
        assert findings[0].line == 1


def _run_cli(*argv: str, cwd: Path = REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "tools.lint", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


class TestCommandLine:
    def test_bad_tree_exits_one_with_json(self):
        proc = _run_cli(
            "tests/lint/fixtures/bad",
            "--manifest",
            "tests/lint/fixtures/manifest_bad.json",
            "--format",
            "json",
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["tool"] == "repro-lint"
        assert doc["summary"]["EXC003"] == 1
        assert {f["rule"] for f in doc["findings"]} == set(rules_by_id())

    def test_good_tree_exits_zero(self):
        proc = _run_cli(
            "tests/lint/fixtures/good",
            "--manifest",
            "tests/lint/fixtures/manifest_good.json",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_select_filters_rules(self):
        proc = _run_cli(
            "tests/lint/fixtures/bad",
            "--manifest",
            "tests/lint/fixtures/manifest_bad.json",
            "--select",
            "HYG",
        )
        assert proc.returncode == 1
        assert "HYG001" in proc.stdout
        assert "DET001" not in proc.stdout

    def test_select_no_match_is_usage_error(self):
        proc = _run_cli("src", "--select", "NOPE")
        assert proc.returncode == 2

    def test_missing_path_is_usage_error(self):
        proc = _run_cli("no/such/dir")
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in rules_by_id():
            assert rule_id in proc.stdout

    def test_repro_cli_subcommand_forwards(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "EXC001" in proc.stdout


class TestRuleMetadata:
    def test_rule_ids_unique(self):
        ids = [rid for rule in ALL_RULES for rid in rule.rule_ids]
        assert len(ids) == len(set(ids))

    def test_rule_ids_documented(self):
        doc = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text()
        for rule_id in list(rules_by_id()) + ["LNT000"]:
            assert rule_id in doc, f"{rule_id} missing from docs/STATIC_ANALYSIS.md"
