"""Central metric catalog: the closed namespace of emitted metric names.

Every metric family the codebase emits through
:class:`repro.obs.metrics.MetricsRegistry` is declared here once — name,
instrument kind, label names, and help text.  The repro-lint telemetry
checker (rule TEL001/TEL004 in ``tools/lint``) statically verifies that
every ``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` call
site in ``src/repro`` uses a catalogued name with the catalogued shape,
and ``tests/lint`` verifies the catalog against a real pipeline run and
the golden Prometheus exposition (``tests/obs/golden_metrics.prom``).

Names produced *dynamically* by
:meth:`~repro.obs.metrics.MetricsRegistry.import_nested` (the
``stats()`` tree folded into gauges) are covered by
:data:`DYNAMIC_METRIC_PREFIXES` instead of individual entries.

Keep ``METRIC_CATALOG`` a literal dict of :class:`MetricSpec` calls with
literal keyword arguments — the lint rule reads it with ``ast``, never
by import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["MetricSpec", "METRIC_CATALOG", "DYNAMIC_METRIC_PREFIXES", "catalog_problems"]


@dataclass(frozen=True)
class MetricSpec:
    """Declared shape of one metric family."""

    kind: str
    labels: Tuple[str, ...] = ()
    help: str = ""


METRIC_CATALOG: Dict[str, MetricSpec] = {
    # -- hierarchical pipeline (repro.core.runner / context / pipeline) -
    "repro_detector_calls_total": MetricSpec(
        kind="counter",
        labels=("level", "detector", "outcome"),
        help="Sandboxed detector invocations by level, detector, and outcome.",
    ),
    "repro_detector_latency_seconds": MetricSpec(
        kind="histogram",
        labels=("level",),
        help="Wall-clock latency of sandboxed detector calls.",
    ),
    "repro_fallbacks_total": MetricSpec(
        kind="counter",
        labels=("level",),
        help="Detector failures survived by falling back to the next choice.",
    ),
    "repro_quarantines_total": MetricSpec(
        kind="counter",
        labels=("scope",),
        help="Traces or whole channels pulled from scoring by the quality gate.",
    ),
    "repro_candidates_total": MetricSpec(
        kind="counter",
        labels=("level",),
        help="Outlier candidates found per hierarchy level.",
    ),
    "repro_confirmations_total": MetricSpec(
        kind="counter",
        labels=("level", "detected"),
        help="Cross-level confirmation computations by level and outcome.",
    ),
    "repro_support": MetricSpec(
        kind="histogram",
        labels=(),
        help="Distribution of computed Algorithm-1 support values.",
    ),
    "repro_cache_hit_ratio": MetricSpec(
        kind="gauge",
        labels=("cache",),
        help="Hit ratio per confirmation/support memo table.",
    ),
    "repro_runs_total": MetricSpec(
        kind="counter",
        labels=("start_level",),
        help="Algorithm-1 runs executed.",
    ),
    "repro_reports_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Hierarchical outlier reports emitted.",
    ),
    "repro_measurement_warnings_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Reports carrying the wrong-measurement warning.",
    ),
    "repro_confirmed_levels_total": MetricSpec(
        kind="counter",
        labels=("level", "detected"),
        help="Level confirmations attached to emitted reports, by outcome.",
    ),
    # -- parallel execution engine (repro.core.parallel) ---------------
    "repro_tasks_total": MetricSpec(
        kind="counter",
        labels=("kind",),
        help="Scoring tasks executed by the execution engine, by task kind.",
    ),
    "repro_task_latency_seconds": MetricSpec(
        kind="histogram",
        labels=("kind",),
        help="In-worker wall-clock latency of one scoring task.",
    ),
    "repro_parallel_workers": MetricSpec(
        kind="gauge",
        labels=("executor",),
        help="Worker-pool size the execution engine resolved for this run.",
    ),
    # -- incremental recomputation (repro.core.context.refresh) ---------
    # Registered lazily on the first refresh, so cold runs expose exactly
    # the families they always have.
    "repro_incremental_refreshes_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Incremental subgraph refreshes triggered by job ingests.",
    ),
    "repro_incremental_dirty_jobs_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Ingested jobs consumed by incremental refreshes.",
    ),
    "repro_incremental_tasks_total": MetricSpec(
        kind="counter",
        labels=("kind",),
        help="Dirty-closure tasks re-run by incremental refreshes, by kind.",
    ),
    "repro_incremental_evicted_total": MetricSpec(
        kind="counter",
        labels=("table",),
        help="Cache entries dropped by scoped eviction, by memo table.",
    ),
    "repro_incremental_retained_total": MetricSpec(
        kind="counter",
        labels=("table",),
        help="Cache entries retained across a refresh, by memo table.",
    ),
    "repro_incremental_refresh_latency_seconds": MetricSpec(
        kind="histogram",
        labels=(),
        help="Engine wall-clock latency of one incremental refresh.",
    ),
    # -- streaming monitor (repro.streaming.stream_monitor) ------------
    "repro_stream_samples_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Samples fed to the streaming monitor.",
    ),
    "repro_stream_skipped_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Non-finite samples ignored.",
    ),
    "repro_stream_events_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Flagged samples (stream events).",
    ),
    "repro_stream_stalls_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Channels whose heartbeat stalled.",
    ),
    # -- checkpointing (repro.core.checkpoint) --------------------------
    # Registered by SnapshotStore / resume_pipeline, so only runs with a
    # checkpoint_dir expose these families.
    "repro_checkpoint_snapshots_total": MetricSpec(
        kind="counter",
        labels=("trigger",),
        help="Snapshots written, by trigger (build / refresh / manual).",
    ),
    "repro_checkpoint_bytes": MetricSpec(
        kind="gauge",
        labels=(),
        help="Size of the most recently written snapshot file.",
    ),
    "repro_checkpoint_duration_seconds": MetricSpec(
        kind="histogram",
        labels=(),
        help="Wall-clock duration of one snapshot write.",
    ),
    "repro_checkpoint_corrupt_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Snapshots rejected at load time (CRC / schema / truncation).",
    ),
    "repro_checkpoint_resume_tail_jobs": MetricSpec(
        kind="gauge",
        labels=(),
        help="Jobs past the watermark replayed by the last resume.",
    ),
    "repro_checkpoint_age_seconds": MetricSpec(
        kind="gauge",
        labels=(),
        help="Age of the snapshot the last resume restored from.",
    ),
    # -- performance observability (repro.obs.perf + pipeline capture) --
    "repro_perf_task_cpu_seconds": MetricSpec(
        kind="histogram",
        labels=("kind",),
        help="In-worker CPU seconds of one scoring task.",
    ),
    "repro_perf_cpu_utilization": MetricSpec(
        kind="gauge",
        labels=(),
        help="CPU seconds per wall second of the scoring task graph.",
    ),
    "repro_perf_profile_samples_total": MetricSpec(
        kind="counter",
        labels=(),
        help="Stack samples captured by the opt-in sampling profiler.",
    ),
    # -- task transport (process executor) -------------------------------
    "repro_transport_bytes": MetricSpec(
        kind="gauge",
        labels=("mode",),
        help="Task-payload bytes pickled per engine run (0 when workers "
        "inherit their payloads by fork, and on serial runs).",
    ),
    # -- alerting (repro.monitor.alerts) -------------------------------
    "repro_alerts_total": MetricSpec(
        kind="counter",
        labels=("severity",),
        help="Alerts newly opened, re-opened, or escalated, by severity.",
    ),
    # -- runtime sanitizer (repro.sanitize via the CLI) -----------------
    "repro_sanitize_checks_total": MetricSpec(
        kind="counter",
        labels=("check", "outcome"),
        help="Sanitizer checks executed, by check name and pass/fail outcome.",
    ),
    "repro_sanitize_findings_total": MetricSpec(
        kind="counter",
        labels=("rule",),
        help="Runtime sanitizer findings, by SAN1xx rule id.",
    ),
}

#: Prefixes of metric families created dynamically (one gauge per numeric
#: leaf of the ``stats()`` tree, via ``MetricsRegistry.import_nested``).
DYNAMIC_METRIC_PREFIXES: Tuple[str, ...] = ("repro_stats_",)


def catalog_problems(registry: "object") -> Tuple[str, ...]:
    """Check a live :class:`~repro.obs.metrics.MetricsRegistry` snapshot.

    Returns one human-readable problem string per metric whose name is
    not catalogued (and not covered by a dynamic prefix) or whose
    kind/labels contradict the catalog — the runtime twin of lint rules
    TEL001/TEL004, used by the self-check tests.
    """
    problems = []
    for metric in registry.collect():  # type: ignore[attr-defined]
        name = metric.name
        spec = METRIC_CATALOG.get(name)
        if spec is None:
            if any(name.startswith(prefix) for prefix in DYNAMIC_METRIC_PREFIXES):
                continue
            problems.append(f"metric {name!r} is not in METRIC_CATALOG")
            continue
        if metric.kind != spec.kind:
            problems.append(
                f"metric {name!r} is a {metric.kind} but catalogued as {spec.kind}"
            )
        if tuple(metric.labelnames) != spec.labels:
            problems.append(
                f"metric {name!r} has labels {tuple(metric.labelnames)!r} but "
                f"catalogued {spec.labels!r}"
            )
    return tuple(problems)
