"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, lists the names it exports in
``__all__``, and records each object's one-line summary (the first line of
its docstring).  Run after changing any public API:

    python tools/gen_api_docs.py

``--check`` regenerates in memory and exits 1 if docs/API.md on disk has
drifted (CI runs this in the lint job).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys

#: Hand-written notes appended after the generated tables so they survive
#: regeneration.  Keep these short and about *cross-cutting* API behaviour
#: that no single docstring owns.
NOTES = """\
## Notes

### Confirmation/support caching (`repro.core.context`)

`PlantHierarchyContext` reads precomputed indexes (machine→line map,
per-line job interval index, sorted per-channel trace index,
phase-candidate indexes) and memoizes `confirm(candidate, level)`,
`support(candidate)`, and `find_candidates(level)` on the candidate's
canonical `OutlierCandidate.key` — a hashable
`(level, machine, job, phase, sensor, index)` tuple that deliberately
excludes score/provenance fields.  Repeated `run()` calls and the
up/down walks of `calc_global_score` therefore never recompute a
confirmation.  The cache is always on and a pure performance layer:
reports are byte-identical to a context that recomputes every query.
Hit/miss/call counters are exposed through
`HierarchicalDetectionPipeline.stats()` (equivalently
`PlantHierarchyContext.stats()`, a `PipelineStats` snapshot);
`reset_stats()` zeroes them and `invalidate_caches()` drops memoized
results while keeping the indexes.  After a job ingest
(`PlantDataset.ingest_job` → `refresh()`), eviction is *scoped* instead:
only entries whose keys fall in the dirty subgraph are dropped, so
ENVIRONMENT-level confirmations and unaffected support values survive
the refresh (see DESIGN.md §10).

### Unification-method defaults

`find_hierarchical_outliers` (and `HierarchicalDetectionPipeline.run`,
which forwards its `unify_method` argument) default to `"rank"` —
distribution-free, the safe choice when mixing detectors across a level —
while the lower-level `repro.core.scores.unify` helper defaults to
`"gaussian"`.  Pass the method explicitly whenever the distinction
matters.

### Windowing semantics (`repro.core.support.window_bounds`)

All time-window → sample-range conversions (the support loop and the
environment confirmation) share `window_bounds`: the lower bound floors,
the upper bound ceils, and degenerate traces (`step <= 0` or non-finite)
select the whole trace instead of raising `ZeroDivisionError`.

### Resilience layer (`repro.core.resilience`, `repro.plant.chaos`)

Every detector invocation inside the pipeline runs through a
`DetectorSandbox` (`SandboxPolicy`: wall-clock `time_budget`,
`max_attempts` with deterministic backoff, optional `hard_timeout`
thread isolation).  Transient `DetectorError`s are retried; permanent
ones (`NotFittedError`, `ShapeUnsupportedError`, `DataQualityError`,
`DetectorTimeoutError`) fail over immediately to the next
`ChooseAlgorithm` candidate via `fallback_chain`, ending at a robust
z/MAD baseline that cannot fail, so `run()` always completes.  Before
scoring, a data-quality gate (`QualityPolicy`, `assess_series`,
`repair_series`) repairs benign defects (short NaN gaps, ±inf) and
quarantines fatally corrupt traces.  Channels that are dead everywhere
leave the Algorithm-1 support divisor: `SupportCalculator` renormalizes
over *surviving* redundancy-group members, so support for real process
faults stays comparable to a fault-free run instead of being dragged
down by sensors that cannot vote (the `abl-support` ablation compares
against disabling support entirely; quarantine only shrinks the
divisor, never the numerator).  Everything that degraded is recorded in
`RunHealth` (fallbacks, quarantines, warnings, per-level notes),
surfaced through `HierarchicalDetectionPipeline.stats()` /
`.health`, `AlertManager.ingest_health`, the `run_health` block of
`reports_to_json`, and the CLI.  `repro.plant.chaos` provides the
seeded fault-injection harness (`inject_chaos` + `ChaosConfig`:
dropout, NaN bursts, stuck-at, truncation) and the always-raising /
flaky / hanging detector wrappers used by the `-m chaos` test suite and
`benchmarks/test_bench_chaos_degradation.py`.

### Telemetry (`repro.obs`)

Default-on, stdlib-only observability: every pipeline run records
nestable spans (one per hierarchy level, detector invocation,
confirmation/support computation) in a `Tracer`, counts into a
`MetricsRegistry` (counters/gauges/fixed-bucket histograms), and emits
structured JSON logs under the `repro.*` logger hierarchy.  One
`Telemetry` object bundles the three; `Telemetry(enabled=False)` (or
`PipelineConfig(enable_telemetry=False)`) swaps in shared no-op
instruments so the disabled path is effectively free, and the enabled
path is budgeted at <5% wall-clock overhead
(`benchmarks/test_bench_observability_overhead.py`).  Span ids are
sequential and the clock injectable (`TickClock`), so traces serialize
byte-identically across seeded reruns — the chaos rerun guarantee
extends to telemetry.  Exporters live in `repro.obs.export`
(`to_prometheus` text exposition, `metrics_to_json` / `trace_to_json`,
`render_span_tree`, `build_run_manifest`); the CLI surfaces them via
`repro detect --metrics-out/--trace-out/--log-level` and
`repro trace <trace.json>`.  See `docs/OBSERVABILITY.md` for the span
taxonomy, metric catalog, and manifest schema.
"""

SUBPACKAGES = [
    "repro.timeseries",
    "repro.synthetic",
    "repro.detectors",
    "repro.plant",
    "repro.corpus",
    "repro.eval",
    "repro.obs",
    "repro.core",
    "repro.monitor",
    "repro.streaming",
    "repro.io",
    "repro.sanitize",
    "repro.cli",
]


def one_liner(obj) -> str:
    if isinstance(obj, (tuple, frozenset, dict, str, int, float)):
        return ""  # builtin-type docstrings are noise for constants
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0].strip() if doc else ""


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    if isinstance(obj, (tuple, frozenset, dict)):
        return "constant"
    return "object"


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — the public surface of",
        "every subpackage (`__all__`) with one-line summaries.",
        "",
    ]
    for name in SUBPACKAGES:
        module = importlib.import_module(name)
        summary = one_liner(module)
        lines.append(f"## `{name}`")
        if summary:
            lines.append(f"\n{summary}\n")
        exported = getattr(module, "__all__", [])
        rows = []
        for export in exported:
            obj = getattr(module, export, None)
            if obj is None:
                continue
            if inspect.ismodule(obj):
                continue
            rows.append((export, kind_of(obj), one_liner(obj)))
        if rows:
            lines.append("| name | kind | summary |")
            lines.append("|---|---|---|")
            for export, kind, doc in rows:
                doc = doc.replace("|", "\\|")
                lines.append(f"| `{export}` | {kind} | {doc} |")
        lines.append("")
    lines.append(NOTES)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/API.md is stale instead of rewriting it",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    rendered = render()
    if args.check:
        current = out.read_text() if out.exists() else ""
        if current != rendered:
            print(
                f"{out} is stale — regenerate with `python tools/gen_api_docs.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{out} is up to date")
        return 0
    out.parent.mkdir(exist_ok=True)
    out.write_text(rendered)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
