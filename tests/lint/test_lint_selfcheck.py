"""Self-checks: the linter's contracts hold on the *real* tree.

Four cross-artifact consistency surfaces, plus a size limit:

* ``src/repro`` lints clean (the tentpole acceptance criterion), no
  module in it has more than 1,000 lines, no module of the trees
  ``ruff check`` covers has an unused top-level import (its F401), and
  every function, method and property in ``src`` has a caller outside
  the tests, bar a short list kept on purpose;
* the Table-1 manifest matches the live registry class-for-class (all
  29 detectors) and tampering with it is detected;
* the metric catalog agrees with a live pipeline run and with the
  golden Prometheus exposition;
* ``docs/API.md`` has not drifted from the package surface.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import pytest

from tools.lint import LintConfig, run_lint
from tools.lint.rules import make_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
MANIFEST = REPO_ROOT / "tools" / "lint" / "table1_manifest.json"

#: the trees CI's ``ruff check`` covers; its configuration exempts
#: ``__init__.py`` re-export hubs from F401 and skips the fixture trees
RUFF_TREES = ("src", "tools", "tests", "benchmarks")
RUFF_EXCLUDED = ("tests", "lint", "fixtures")

#: the trees whose code can call a member of ``src``; a test is no caller
CALLER_TREES = ("src", "perfbench", "benchmarks", "examples", "tools")

#: members of ``src`` that no caller runs, kept on purpose: qualified
#: name -> why it stays
UNCALLED_KEPT = {
    "TimeSeries.zscores": "the synthetic-dataset test measures injected "
    "spikes with it; deleting it would move the same code into the test",
    "RunHealth.quarantined_channels": "the chaos suite checks which "
    "channels were quarantined with it",
    "AlertManager.all_alerts": "the alert and health tests read every "
    "alert, acknowledged or not, through it",
    "Detection.n_flagged": "the detector tests count flagged points with it",
    "AlgorithmSelector.preferences_for": "the selection and fallback-chain "
    "tests read a level's ranked preferences through it",
    "StreamingSensorMonitor.skipped_counts": "part of the stream golden "
    "record (tests/streaming/stream_reference.json)",
    "SoftSensor.virtual_series": "interface of the soft-sensor extension "
    "(DESIGN §6)",
    "SoftSensor.residual_sigma": "interface of the soft-sensor extension "
    "(DESIGN §6)",
    "ShmArena.block_name": "core/shm.py goes whole once perfbench stops "
    "reading it (ROADMAP item 2)",
}


def _module_scope(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, including those under ``if``/``try``/``with``."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_scope(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_scope(handler.body)


def _quoted_annotation_names(tree: ast.Module) -> Set[str]:
    """Names inside string annotations (``x: "PipelineConfig"``)."""
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            annotations += [arg.annotation for arg in args if arg and arg.annotation]
            annotations += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: Set[str] = set()
    for sub in (s for a in annotations for s in ast.walk(a)):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:  # a Literal["..."] value, not a type
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _unused_imports(path: Path) -> List[str]:
    """Top-level imports of ``path`` that nothing in it names: what ruff's
    F401 reports there, for a checkout without ruff.  A redundant alias
    (``import x as x``), ``__all__`` and a ``# noqa`` comment mark an
    import as used, as they do for ruff."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported: Dict[str, int] = {}
    exported: Set[str] = set()
    for node in _module_scope(tree.body):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if any(re.search(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b", line) for line in span):
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    bound = bound.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported.update(
                    e.value for e in node.value.elts if isinstance(e, ast.Constant)
                )
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= exported | _quoted_annotation_names(tree)
    rel = path.relative_to(REPO_ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def _members(node: ast.AST, prefix: str = "") -> Iterator[Tuple[str, int]]:
    """``(qualified name, line)`` of every function, method and property
    defined under ``node``, dunders excluded."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _members(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield f"{prefix}{child.name}", child.lineno
            yield from _members(child, f"{prefix}{child.name}.")
        else:
            yield from _members(child, prefix)


def _uncalled_src_members() -> Dict[str, str]:
    """Members of ``src`` whose name appears as a whole word only at its
    own definition across :data:`CALLER_TREES`: qualified name -> where."""
    words = Counter(
        word
        for tree in CALLER_TREES
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text())
    )
    uncalled = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for qualname, line in _members(ast.parse(path.read_text())):
            if words[qualname.rsplit(".", 1)[-1]] == 1:
                uncalled[qualname] = f"{path.relative_to(REPO_ROOT)}:{line}"
    return uncalled


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

    def test_no_unused_top_level_imports(self):
        unused = [
            finding
            for tree in RUFF_TREES
            for path in sorted((REPO_ROOT / tree).rglob("*.py"))
            if path.name != "__init__.py"
            and path.relative_to(REPO_ROOT).parts[:3] != RUFF_EXCLUDED
            for finding in _unused_imports(path)
        ]
        assert unused == [], "\n".join(unused)

    def test_every_src_member_has_a_caller(self):
        # code only tests reach is code no command, workload or bench runs:
        # delete it with its tests, or list it in UNCALLED_KEPT with a reason
        uncalled = _uncalled_src_members()
        stray = [f"{where}: {name}" for name, where in uncalled.items()
                 if name not in UNCALLED_KEPT]
        assert stray == [], "no caller outside the tests:\n" + "\n".join(stray)
        # an entry that gained a caller, or went, leaves the list too
        assert sorted(UNCALLED_KEPT.keys() - uncalled.keys()) == []


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
