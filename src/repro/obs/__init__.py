"""``repro.obs`` — end-to-end telemetry for the hierarchical pipeline.

A stdlib-only observability subsystem threaded through every layer:

* :mod:`repro.obs.trace` — nestable spans with injectable monotonic
  clocks (per hierarchy level, per detector invocation including
  fallback chains, per confirmation/support computation, per streaming
  tick);
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms (detector latency, candidates per level, support
  distribution, health and cache counters);
* :mod:`repro.obs.export` — Prometheus text exposition, structured
  JSON, a span-tree renderer, and per-run manifests;
* :mod:`repro.obs.logging` — a JSON log formatter and the ``repro.*``
  logger hierarchy replacing previously silent degradation paths;
* :mod:`repro.obs.perf` — the performance plane: a Chrome trace-event
  (Perfetto-loadable) exporter with per-worker pid/tid lanes and
  cross-process flow events, an opt-in sampling profiler with
  collapsed-stack output, and the slow-task report behind
  ``repro perf report``.

:class:`Telemetry` bundles one tracer, one metrics registry, and one
logger; the pipeline creates an enabled bundle by default
(``PipelineConfig(enable_telemetry=False)`` opts out) and callers may
inject their own — e.g. with a :class:`~repro.obs.TickClock` for
byte-identical traces across seeded reruns.
"""

from __future__ import annotations

import logging as _logging
import time
from typing import Callable, Optional

from .catalog import (
    DYNAMIC_METRIC_PREFIXES,
    METRIC_CATALOG,
    MetricSpec,
    catalog_problems,
)
from .logging import JsonLogFormatter, configure_logging, get_logger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    UNIT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .perf import (
    CHROME_TRACE_SCHEMA,
    SamplingProfiler,
    chrome_trace_to_json,
    perf_report_rows,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .trace import Span, TickClock, Tracer, spans_from_dicts, validate_spans
from .export import (
    build_run_manifest,
    escape_label_value,
    level_timings,
    manifest_path_for,
    metrics_to_json,
    render_span_tree,
    to_prometheus,
    trace_to_json,
    write_metrics,
    write_run_manifest,
    write_trace,
)

__all__ = [
    "Telemetry",
    "Tracer",
    "Span",
    "TickClock",
    "spans_from_dicts",
    "validate_spans",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "UNIT_BUCKETS",
    "CHROME_TRACE_SCHEMA",
    "to_chrome_trace",
    "chrome_trace_to_json",
    "write_chrome_trace",
    "validate_chrome_trace",
    "SamplingProfiler",
    "perf_report_rows",
    "MetricSpec",
    "METRIC_CATALOG",
    "DYNAMIC_METRIC_PREFIXES",
    "catalog_problems",
    "to_prometheus",
    "metrics_to_json",
    "trace_to_json",
    "escape_label_value",
    "render_span_tree",
    "level_timings",
    "write_metrics",
    "write_trace",
    "build_run_manifest",
    "write_run_manifest",
    "manifest_path_for",
    "JsonLogFormatter",
    "get_logger",
    "configure_logging",
]


class Telemetry:
    """One run's telemetry bundle: tracer + metrics registry + logger.

    ``clock`` is shared with the tracer and injectable for determinism;
    a disabled bundle (``enabled=False``) records nothing and hands out
    no-op spans/instruments, which is what keeps the telemetry-off path
    of the overhead benchmark honest.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
        logger_name: str = "pipeline",
    ) -> None:
        self.enabled = enabled
        self.clock = clock or time.monotonic
        self.tracer = Tracer(clock=self.clock, enabled=enabled)
        self.metrics = MetricsRegistry(enabled=enabled)
        self.logger = get_logger(logger_name)

    def log(self, severity: int, message: str, /, **fields: object) -> None:
        """Emit a structured log record tagged with the active span id.

        ``fields`` become ``extra={...}`` attributes on the record; the
        leading parameters are positional-only so fields named
        ``severity``/``level``/``message`` never collide with them.
        """
        if not self.enabled:
            return
        fields.setdefault("span_id", self.tracer.current_span_id)
        self.logger.log(severity, message, extra=fields)

    def warning(self, message: str, /, **fields: object) -> None:
        self.log(_logging.WARNING, message, **fields)

    def info(self, message: str, /, **fields: object) -> None:
        self.log(_logging.INFO, message, **fields)
