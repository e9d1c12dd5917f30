"""Command-line interface: ``python -m repro <command>``.

Commands
--------
simulate   simulate a plant and save it as a ``.npz`` archive
detect     run hierarchical detection over a saved (or fresh) plant
resume     warm-restart detection from a ``detect --checkpoint-dir`` snapshot
monitor    condition monitoring / alerts / maintenance over a plant
table1     print the executable Table-1 capability matrix
fig3       run the Fig.-3 corpus queries
trace      pretty-print a span trace written by ``detect --trace-out``
perf       performance tooling: slow-task report
lint       run the repro-lint static contract checkers (tools.lint)
sanitize   runtime determinism sanitizer (repro.sanitize)
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

__all__ = ["main", "build_parser"]


def _count(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=`` for an integer option of at least ``minimum``:
    anything else is a usage error (exit 2), never a traceback or a value
    quietly read as another."""
    def count(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid count value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser behind ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical outlier detection for industrial production settings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a plant and save it")
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--lines", type=int, default=2)
    sim.add_argument("--machines", type=int, default=3)
    sim.add_argument("--jobs", type=int, default=10)
    sim.add_argument("--process-fault-rate", type=float, default=0.08)
    sim.add_argument("--sensor-fault-rate", type=float, default=0.08)
    sim.add_argument("--setup-anomaly-rate", type=float, default=0.05)
    sim.add_argument("--out", required=True, help="output .npz path")

    det = sub.add_parser("detect", help="run hierarchical detection")
    det.add_argument("--plant", help=".npz archive from `repro simulate`")
    det.add_argument("--seed", type=int, default=7,
                     help="simulate fresh with this seed when --plant is absent")
    det.add_argument("--start-level", type=int, default=1, choices=range(1, 6))
    det.add_argument("--fusion", default="weighted",
                     choices=("max", "mean", "weighted", "fisher"))
    det.add_argument("--top", type=int, default=15)
    det.add_argument("--json", help="write full reports to this JSON file")
    det.add_argument("--explain", type=int, default=0, metavar="N",
                     help="print operator explanations for the top N reports")
    det.add_argument("--chaos-dropout", type=float, default=0.0, metavar="RATE",
                     help="inject chaos: kill each sensor channel with this "
                          "probability before detection")
    det.add_argument("--chaos-seed", type=int, default=0,
                     help="seed of the chaos fault injection")
    det.add_argument("--metrics-out", metavar="PATH",
                     help="write Prometheus text-format metrics to this file")
    det.add_argument("--trace-out", metavar="PATH",
                     help="write the span trace as JSON to this file")
    det.add_argument("--trace-format", default="auto",
                     choices=("auto", "repro", "chrome"),
                     help="--trace-out format: repro span JSON or a Chrome "
                          "trace-event file loadable in Perfetto (auto picks "
                          "chrome when the filename ends in .trace.json)")
    det.add_argument("--profile-out", metavar="PATH",
                     help="sample the detection run with the wall-clock "
                          "profiler and write collapsed stacks (flamegraph "
                          "input) to this file")
    det.add_argument("--profile-interval-ms", type=float, default=5.0,
                     metavar="MS",
                     help="sampling interval of --profile-out in milliseconds")
    det.add_argument("--log-level", default=None, metavar="LEVEL",
                     help="emit structured JSON logs at this level "
                          "(DEBUG/INFO/WARNING/...) to stderr")
    det.add_argument("--executor", default="serial",
                     choices=("serial", "process"),
                     help="scoring-task execution engine backend; reports are "
                          "byte-identical across both")
    det.add_argument("--max-workers", type=_count(1), default=None, metavar="N",
                     help="worker-pool cap for --executor process "
                          "(default: available cpu cores)")
    det.add_argument("--ingest-tail", type=_count(0), default=0, metavar="N",
                     help="hold out each machine's last N jobs, score the "
                          "base plant cold, then ingest the held-out jobs "
                          "one by one through the incremental refresh and "
                          "verify byte-identity against a cold recompute "
                          "of the full plant")
    det.add_argument("--checkpoint-dir", metavar="DIR",
                     help="write crash-consistent snapshots into this "
                          "directory (one after the cold build, then one per "
                          "--checkpoint-every refreshes); `repro resume` "
                          "warm-restarts from the newest one")
    det.add_argument("--checkpoint-every", type=_count(1), default=1, metavar="N",
                     help="snapshot after every N-th incremental refresh")
    det.add_argument("--checkpoint-retain", type=_count(1), default=3, metavar="N",
                     help="keep only the newest N snapshot files")
    det.add_argument("--chaos-kill-after", type=_count(0), default=0, metavar="N",
                     help="chaos: SIGKILL this process immediately after the "
                          "N-th post-build snapshot write (requires "
                          "--checkpoint-dir; pair with --ingest-tail so "
                          "refresh snapshots happen)")

    res = sub.add_parser(
        "resume",
        help="warm-restart detection from the newest checkpoint snapshot",
    )
    res.add_argument("--checkpoint-dir", required=True, metavar="DIR",
                     help="snapshot directory written by `detect --checkpoint-dir`")
    res.add_argument("--plant", help=".npz archive from `repro simulate` "
                                     "(the full plant, same as the killed run)")
    res.add_argument("--seed", type=int, default=7,
                     help="simulate fresh with this seed when --plant is absent")
    res.add_argument("--start-level", type=int, default=1, choices=range(1, 6))
    res.add_argument("--fusion", default="weighted",
                     choices=("max", "mean", "weighted", "fisher"))
    res.add_argument("--top", type=int, default=15)
    res.add_argument("--json", help="write full reports to this JSON file")
    res.add_argument("--verify", action="store_true",
                     help="cross-check reports + health byte-identity against "
                          "a cold recompute of the full plant; exit 1 on "
                          "mismatch")
    res.add_argument("--log-level", default=None, metavar="LEVEL",
                     help="emit structured JSON logs at this level to stderr")

    mon = sub.add_parser("monitor", help="condition/maintenance summary")
    mon.add_argument("--plant", help=".npz archive from `repro simulate`")
    mon.add_argument("--seed", type=int, default=7)

    sub.add_parser("table1", help="print the Table-1 capability matrix")

    fig3 = sub.add_parser("fig3", help="run the Fig.-3 corpus queries")
    fig3.add_argument("--records", type=int, default=60_000)
    fig3.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser(
        "trace", help="pretty-print a span trace from `detect --trace-out`"
    )
    trace.add_argument("trace_file", help="span-trace JSON file")
    trace.add_argument("--max-depth", type=int, default=None,
                       help="truncate the rendered tree at this depth")

    perf = sub.add_parser(
        "perf", help="performance tooling (see docs/PERFORMANCE.md)"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_report = perf_sub.add_parser(
        "report", help="top-K slowest scoring tasks of one run"
    )
    perf_report.add_argument(
        "artifact",
        help="run manifest (detect --json writes one next to the report) "
             "or span-trace JSON (detect --trace-out)",
    )
    perf_report.add_argument("--top", type=int, default=10, metavar="K",
                             help="number of tasks to list")

    # ``main`` hands everything after ``lint`` to tools.lint, which parses
    # its own flags; this entry only lists the command in ``repro --help``
    sub.add_parser(
        "lint",
        help="run the repro-lint static contract checkers (requires a "
        "repo checkout; see docs/STATIC_ANALYSIS.md)",
    )

    san = sub.add_parser(
        "sanitize",
        help="runtime determinism sanitizer: RNG traps, hash-seed replay, "
        "executor matrix (see docs/STATIC_ANALYSIS.md)",
    )
    san.add_argument("--plant", help=".npz archive from `repro simulate`")
    san.add_argument("--seed", type=int, default=7,
                     help="simulate fresh with this seed when --plant is absent")
    san.add_argument("--executor", default="serial",
                     choices=("serial", "process"),
                     help="executor for the traced run (default: serial — "
                          "the RNG traps see only in-process scoring)")
    san.add_argument("--max-workers", type=_count(1), default=None)
    san.add_argument("--chaos-dropout", type=float, default=0.0, metavar="RATE",
                     help="inject sensor-dropout chaos before every check")
    san.add_argument("--chaos-seed", type=int, default=0)
    san.add_argument("--format", choices=("text", "json", "sarif"),
                     default="text")
    san.add_argument("--skip-replay", action="store_true",
                     help="skip the dual-PYTHONHASHSEED subprocess replay")
    san.add_argument("--skip-matrix", action="store_true",
                     help="skip the serial/process executor matrix")
    san.add_argument("--metrics-out", metavar="PATH",
                     help="write Prometheus text-format metrics to this file")
    san.add_argument("--baseline", default=None, metavar="PATH",
                     help="suppression baseline "
                          "(default: ./lint-baseline.json when it exists)")
    san.add_argument("--no-baseline", action="store_true")
    san.add_argument("--replay-child", action="store_true",
                     help=argparse.SUPPRESS)

    return parser


def _load_or_simulate(args) -> "object":
    """The ``--plant`` archive, or a fresh plant simulated from ``--seed``.

    An archive that is missing or unreadable ends the command with one
    line on stderr and exit code 2.
    """
    import zipfile

    from .io import load_plant
    from .plant import PlantConfig, simulate_plant

    if getattr(args, "plant", None):
        try:
            return load_plant(args.plant)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            print(f"repro {args.command}: cannot load plant archive {args.plant}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2) from None
    return simulate_plant(PlantConfig(seed=args.seed))


def _chaotic_plant(args, rate: float, seed: int):
    """The plant of :func:`_load_or_simulate` after sensor-dropout chaos at
    ``rate`` from ``seed`` (untouched at rate 0), and the number of
    infrastructure faults injected."""
    dataset = _load_or_simulate(args)
    if rate <= 0:
        return dataset, 0
    from .plant import ChaosConfig, inject_chaos

    dataset, events = inject_chaos(
        dataset, ChaosConfig(seed=seed, sensor_dropout_rate=rate)
    )
    return dataset, len(events)


def _matches_cold(label: str, dataset, pipeline, reports, run_kwargs) -> bool:
    """Print and return whether ``reports`` and ``pipeline``'s health are
    byte-identical to a cold recompute over ``dataset``."""
    import dataclasses

    from .io import reports_to_json
    from .sanitize import canonical_report_bytes

    # the cold recompute must not snapshot into the live checkpoint dir
    cold_config = dataclasses.replace(pipeline.config, checkpoint_dir=None)
    identical = reports_to_json(reports, health=pipeline.health).encode(
        "utf-8"
    ) == canonical_report_bytes(dataset, cold_config, **run_kwargs)
    print(f"{label} vs cold recompute: "
          + ("byte-identical" if identical else "MISMATCH"))
    return identical


def _cmd_simulate(args) -> int:
    from .io import save_plant
    from .plant import FaultConfig, PlantConfig, simulate_plant

    config = PlantConfig(
        seed=args.seed,
        n_lines=args.lines,
        machines_per_line=args.machines,
        jobs_per_machine=args.jobs,
        faults=FaultConfig(
            process_fault_rate=args.process_fault_rate,
            sensor_fault_rate=args.sensor_fault_rate,
            setup_anomaly_rate=args.setup_anomaly_rate,
        ),
    )
    dataset = simulate_plant(config)
    written = save_plant(dataset, args.out)
    n_jobs = sum(1 for __ in dataset.iter_jobs())
    print(
        f"simulated plant: {args.lines} lines, "
        f"{sum(1 for __ in dataset.iter_machines())} machines, {n_jobs} jobs, "
        f"{len(dataset.faults)} injected faults -> {written}"
    )
    for fault in dataset.faults:
        print(f"  {fault.describe()}")
    return 0


def _cmd_detect(args) -> int:
    from .core import HierarchicalDetectionPipeline, PipelineConfig, ProductionLevel
    from .io import reports_to_json

    if args.log_level:
        from .obs import configure_logging

        configure_logging(level=args.log_level)
    dataset, n_chaos = _chaotic_plant(args, args.chaos_dropout, args.chaos_seed)
    if args.chaos_dropout > 0:
        print(f"chaos: injected {n_chaos} infrastructure fault(s)")
    if args.chaos_kill_after > 0 and not args.checkpoint_dir:
        print("detect: --chaos-kill-after requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    if args.ingest_tail > 0:
        # the base plant must keep a job on every machine to be scored cold
        fewest = min(dataset.iter_machines(), key=lambda m: len(m.jobs))
        if args.ingest_tail >= len(fewest.jobs):
            print(f"detect: --ingest-tail {args.ingest_tail} must be smaller than "
                  f"the {len(fewest.jobs)} job(s) of machine {fewest.machine_id}",
                  file=sys.stderr)
            return 2
    config = PipelineConfig(
        executor=args.executor,
        max_workers=args.max_workers,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        checkpoint_retain=args.checkpoint_retain,
    )
    profiler = None
    if args.profile_out:
        from .obs import SamplingProfiler

        profiler = SamplingProfiler(
            interval=args.profile_interval_ms / 1e3
        ).start()
    try:
        ingest_ok = True
        if args.ingest_tail > 0:
            pipeline, reports, ingest_ok = _detect_incremental(
                dataset, config, args
            )
        else:
            pipeline = HierarchicalDetectionPipeline(dataset, config=config)
            _arm_checkpoint(pipeline, args)
            reports = pipeline.run(
                start_level=ProductionLevel(args.start_level),
                fusion_strategy=args.fusion,
            )
    finally:
        if profiler is not None:
            profiler.stop()
    if profiler is not None:
        pipeline.telemetry.metrics.counter(
            "repro_perf_profile_samples_total",
            "Stack samples captured by the opt-in sampling profiler.",
        ).inc(profiler.samples)
    engine = pipeline.context.engine_stats()
    if args.executor != "serial" and not args.ingest_tail:
        print(
            f"engine: {engine.executor} x{engine.workers} — "
            f"{engine.n_tasks} tasks, wall {engine.wall_seconds:.2f}s, "
            f"cpu_utilization {engine.cpu_utilization:.2f}"
        )
    print(f"{len(reports)} hierarchical reports (start level {args.start_level}, "
          f"fusion={args.fusion}); top {min(args.top, len(reports))}:")
    for report in reports[: args.top]:
        print(f"  {report.describe()}")
    if pipeline.health.degraded:
        print()
        print(pipeline.health.describe())
    if args.explain > 0:
        from .core import explain_report

        for report in reports[: args.explain]:
            print()
            print(explain_report(report))
    artifacts = {}
    if args.json:
        reports_to_json(
            reports, args.json, health=pipeline.health, stats=pipeline.stats()
        )
        artifacts["report"] = str(args.json)
        print(f"full reports written to {args.json}")
    if args.metrics_out:
        from .obs import write_metrics

        write_metrics(pipeline.telemetry.metrics, args.metrics_out)
        artifacts["metrics"] = str(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        fmt = args.trace_format
        if fmt == "auto":
            fmt = "chrome" if str(args.trace_out).endswith(".trace.json") else "repro"
        if fmt == "chrome":
            from .obs import write_chrome_trace

            write_chrome_trace(pipeline.telemetry.tracer, args.trace_out)
            print(f"Chrome trace written to {args.trace_out} "
                  "(open in Perfetto / chrome://tracing)")
        else:
            from .obs import write_trace

            write_trace(pipeline.telemetry.tracer, args.trace_out)
            print(f"span trace written to {args.trace_out}")
        artifacts["trace"] = str(args.trace_out)
    if profiler is not None:
        profiler.write_collapsed(args.profile_out)
        artifacts["profile"] = str(args.profile_out)
        hot = next(iter(profiler.self_time_by_function()), "n/a")
        print(
            f"profile: {profiler.samples} samples "
            f"({profiler.total_seconds():.2f}s attributed, hottest {hot}) "
            f"-> {args.profile_out}"
        )
    if args.json:
        from .obs import build_run_manifest, manifest_path_for, write_run_manifest

        manifest = build_run_manifest(
            command="detect",
            config=pipeline.config,
            seed=args.seed,
            tracer=pipeline.telemetry.tracer,
            health=pipeline.health,
            n_reports=len(reports),
            artifacts=artifacts,
            extra={"engine": engine.as_dict()},
        )
        manifest_path = write_run_manifest(manifest, manifest_path_for(args.json))
        print(f"run manifest written to {manifest_path}")
    return 0 if ingest_ok else 1


def _arm_checkpoint(pipeline, args) -> None:
    """Record resume metadata and the chaos kill hook on a fresh pipeline.

    The killed run's chaos parameters land in every snapshot written from
    here on, so ``repro resume`` can re-apply the identical fault
    injection to the reloaded plant before replaying the tail.  The
    SIGKILL hook (``--chaos-kill-after``) counts only post-build
    snapshots: it is registered after construction, so the build snapshot
    written inside ``__init__`` never triggers it.
    """
    manager = pipeline.checkpoint
    if manager is None:
        return
    manager.extra_meta.update(
        {
            "chaos_dropout": args.chaos_dropout,
            "chaos_seed": args.chaos_seed,
            "ingest_tail": args.ingest_tail,
            "start_level": args.start_level,
            "fusion": args.fusion,
        }
    )
    if args.chaos_kill_after > 0:
        from .plant.chaos import kill_after_snapshots

        manager.add_post_snapshot_hook(
            kill_after_snapshots(args.chaos_kill_after)
        )


def _detect_incremental(dataset, config, args):
    """The ``detect --ingest-tail`` path: replay held-out jobs incrementally.

    Scores the base plant cold, ingests each held-out job through
    :meth:`~repro.core.HierarchicalDetectionPipeline.ingest_job` (which
    re-runs only the dirty closure), then cross-checks the result against
    a cold pipeline over the full plant.  Returns ``(pipeline, reports,
    identical)``; a mismatch turns into a nonzero exit code upstream.
    """
    from .core import HierarchicalDetectionPipeline, ProductionLevel

    base, arrivals = dataset.split_tail(args.ingest_tail)
    pipeline = HierarchicalDetectionPipeline(base, config=config)
    _arm_checkpoint(pipeline, args)
    latencies = []
    for machine_id, job in arrivals:
        summary = pipeline.ingest_job(machine_id, job)
        latencies.append(float(summary["wall_seconds"]))
    run_kwargs = dict(
        start_level=ProductionLevel(args.start_level), fusion_strategy=args.fusion
    )
    reports = pipeline.run(**run_kwargs)
    if latencies:
        lat = sorted(latencies)
        print(
            f"incremental: ingested {len(arrivals)} job(s), refresh p50 "
            f"{lat[len(lat) // 2] * 1e3:.1f} ms, max {lat[-1] * 1e3:.1f} ms"
        )
    else:
        print("incremental: no held-out jobs to ingest")
    identical = _matches_cold("incremental", dataset, pipeline, reports, run_kwargs)
    return pipeline, reports, identical


def _cmd_resume(args) -> int:
    """Warm-restart detection from the newest valid checkpoint snapshot.

    Reloads (or re-simulates) the *full* plant, re-applies the killed
    run's chaos injection from the snapshot's metadata, restores the
    pipeline state, and replays only the jobs past the ingest watermark.
    ``--verify`` cross-checks reports + health byte-identity against a
    cold recompute of the full plant (stats are excluded here: they
    depend on the ingest history, and the stats-inclusive identity
    against an uninterrupted run of the same workload is covered by the
    crash-resume test suite).
    """
    from .core import ProductionLevel, SnapshotStore, resume_pipeline
    from .io import reports_to_json

    if args.log_level:
        from .obs import configure_logging

        configure_logging(level=args.log_level)
    store = SnapshotStore(args.checkpoint_dir)
    snapshot = store.load_latest()
    if snapshot is None:
        print(f"resume: no usable snapshot under {args.checkpoint_dir}",
              file=sys.stderr)
        return 2
    extra = snapshot.sections["meta"].get("extra", {})
    chaos_rate = float(extra.get("chaos_dropout", 0.0) or 0.0)
    dataset, n_chaos = _chaotic_plant(
        args, chaos_rate, int(extra.get("chaos_seed", 0))
    )
    if chaos_rate > 0:
        print(f"chaos: re-applied {n_chaos} infrastructure "
              f"fault(s) recorded in the snapshot")
    pipeline, summaries, snapshot = resume_pipeline(dataset, args.checkpoint_dir)
    print(
        f"resumed from {snapshot.path.name} "
        f"(trigger={snapshot.meta.get('trigger')}): replayed "
        f"{len(summaries)} job(s) past the watermark"
    )
    run_kwargs = dict(
        start_level=ProductionLevel(args.start_level), fusion_strategy=args.fusion
    )
    reports = pipeline.run(**run_kwargs)
    print(f"{len(reports)} hierarchical reports (start level "
          f"{args.start_level}, fusion={args.fusion}); "
          f"top {min(args.top, len(reports))}:")
    for report in reports[: args.top]:
        print(f"  {report.describe()}")
    if pipeline.health.degraded:
        print()
        print(pipeline.health.describe())
    identical = not args.verify or _matches_cold(
        "resume", dataset, pipeline, reports, run_kwargs
    )
    if args.json:
        reports_to_json(
            reports, args.json, health=pipeline.health, stats=pipeline.stats()
        )
        print(f"full reports written to {args.json}")
    return 0 if identical else 1


def _cmd_trace(args) -> int:
    import json

    from .obs import level_timings, render_span_tree, spans_from_dicts

    with open(args.trace_file) as fh:
        doc = json.load(fh)
    spans = spans_from_dicts(doc)
    if not spans:
        print("(empty trace)")
        return 0
    print(render_span_tree(spans, max_depth=args.max_depth))
    timings = level_timings(spans)
    if timings:
        print()
        print("per-level timings:")
        for level, seconds in timings.items():
            print(f"  {level:16s} {seconds * 1e3:10.3f} ms")
    return 0


def _load_json(path: str):
    import json

    with open(path) as fh:
        return json.load(fh)


def _cmd_perf(args) -> int:
    """Top-K slow-task table from a run manifest or span-trace file."""
    from .obs import perf_report_rows

    try:
        rows = perf_report_rows(_load_json(args.artifact), top=args.top)
    except (OSError, ValueError) as exc:
        print(f"perf report: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("perf report: no task timings in artifact")
        return 0
    has_cpu = any("cpu_seconds" in r for r in rows)
    header = f"{'task':32s} {'kind':12s} {'wall_ms':>10s}"
    if has_cpu:
        header += f" {'cpu_ms':>10s}"
    print(header)
    for row in rows:
        line = (
            f"{str(row['task']):32s} {str(row['kind']):12s} "
            f"{float(row['wall_seconds']) * 1e3:10.3f}"
        )
        if has_cpu:
            cpu = row.get("cpu_seconds")
            line += f" {float(cpu) * 1e3:10.3f}" if cpu is not None else f" {'-':>10s}"
        print(line)
    return 0


def _cmd_monitor(args) -> int:
    from .core import HierarchicalDetectionPipeline
    from .monitor import AlertManager, ConditionMonitor, MaintenanceAdvisor, Severity

    dataset = _load_or_simulate(args)
    pipeline = HierarchicalDetectionPipeline(dataset)
    reports = pipeline.run()

    manager = AlertManager()
    manager.ingest(reports)
    manager.ingest_health(pipeline.health)
    counts = manager.counts_by_severity()
    print(
        f"alerts: {counts[Severity.CRITICAL]} critical / "
        f"{counts[Severity.WARNING]} warning / {counts[Severity.INFO]} info"
    )
    for alert in manager.open_alerts(min_severity=Severity.WARNING):
        print(f"  {alert.describe()}")

    print("\nmachine health:")
    monitor = ConditionMonitor()
    monitor.ingest(reports)
    for condition in monitor.fleet():
        print(f"  {condition.describe()}")

    print("\nmaintenance ranking:")
    for indicator in MaintenanceAdvisor(dataset).ranking():
        print(f"  {indicator.describe()}")
    return 0


def _cmd_table1(args) -> int:
    from .detectors import capability_table

    print(f"{'technique':36s} {'family':6s} {'PTS':>4s} {'SSQ':>4s} {'TSS':>4s}  detector")
    for row in capability_table():
        marks = ["✓" if row[c] else "·" for c in ("pts", "ssq", "tss")]
        print(
            f"{row['technique']:36s} {row['family']:6s} "
            f"{marks[0]:>4s} {marks[1]:>4s} {marks[2]:>4s}  {row['detector']}"
        )
    return 0


def _cmd_fig3(args) -> int:
    from .corpus import generate_corpus, run_fig3_queries

    index = generate_corpus(n_records=args.records, seed=args.seed)
    print(f"{'field':26s} {'term+time series':>18s} {'+ACS':>8s}")
    for row in run_fig3_queries(index):
        print(f"{row.field:26s} {row.time_series_count:18d} {row.acs_count:8d}")
    return 0


def _cmd_lint(argv: Sequence[str]) -> int:
    """Forward to ``tools.lint`` (the suite lives in the repo, not the package)."""
    import os

    try:
        from tools.lint.__main__ import run
    except ImportError:
        # Installed-package invocation outside a checkout: the tools/
        # directory sits next to src/, so try the current directory the
        # way `python -m tools.lint` would.
        sys.path.insert(0, os.getcwd())
        try:
            from tools.lint.__main__ import run
        except ImportError:
            print(
                "repro lint: cannot import tools.lint — run from a repository "
                "checkout (the linter lives in tools/lint/, not in the "
                "installed package)",
                file=sys.stderr,
            )
            return 2
    return run(argv)


def _cmd_sanitize(args) -> int:
    from pathlib import Path

    from . import sanitize as san
    from .core import HierarchicalDetectionPipeline, PipelineConfig

    def dataset():
        return _chaotic_plant(args, args.chaos_dropout, args.chaos_seed)[0]

    if args.replay_child:
        # internal mode used by hash_seed_replay: print the canonical
        # report bytes (reports + health, no timing-bearing stats) so the
        # parent can diff two PYTHONHASHSEED universes byte-for-byte
        sys.stdout.buffer.write(
            san.canonical_report_bytes(
                dataset(), PipelineConfig(executor=args.executor)
            )
        )
        return 0

    findings = []
    checks = {}

    # 1. traced run: unseeded-RNG trap around one full detection (level
    #    scoring included) under the requested executor
    with san.RngTrap() as trap:
        pipeline = HierarchicalDetectionPipeline(
            dataset(),
            config=PipelineConfig(
                executor=args.executor, max_workers=args.max_workers
            ),
        )
        pipeline.run()
    traced = list(trap.findings)
    findings += traced
    checks["traced-run"] = "fail" if traced else "pass"

    # 2. executor matrix: byte-identical reports across executors
    if not args.skip_matrix:
        matrix = san.executor_matrix(dataset)
        findings += matrix
        checks["executor-matrix"] = "fail" if matrix else "pass"

    # 3. dual-PYTHONHASHSEED subprocess replay
    if not args.skip_replay:
        child = ["sanitize", "--replay-child", "--executor", "serial",
                 "--seed", str(args.seed)]
        if args.plant:
            child += ["--plant", str(args.plant)]
        if args.chaos_dropout > 0:
            child += ["--chaos-dropout", str(args.chaos_dropout),
                      "--chaos-seed", str(args.chaos_seed)]
        replay = san.hash_seed_replay(child)
        findings += replay
        checks["hash-seed-replay"] = "fail" if replay else "pass"

    m_checks = pipeline.telemetry.metrics.counter(
        "repro_sanitize_checks_total",
        "Sanitizer checks executed, by check name and pass/fail outcome.",
        labelnames=("check", "outcome"),
    )
    for check, outcome in checks.items():
        m_checks.inc(check=check, outcome=outcome)
    m_findings = pipeline.telemetry.metrics.counter(
        "repro_sanitize_findings_total",
        "Runtime sanitizer findings, by SAN1xx rule id.",
        labelnames=("rule",),
    )
    for finding in findings:
        m_findings.inc(rule=finding.rule)
    if args.metrics_out:
        from .obs import write_metrics

        write_metrics(pipeline.telemetry.metrics, args.metrics_out)

    suppressed = 0
    baseline_path = None
    if not args.no_baseline:
        if args.baseline:
            baseline_path = Path(args.baseline)
        elif Path("lint-baseline.json").is_file():
            baseline_path = Path("lint-baseline.json")
    if baseline_path is not None:
        if not baseline_path.is_file():
            print(f"repro sanitize: no such baseline: {baseline_path}",
                  file=sys.stderr)
            return 2
        try:
            findings, suppressed = san.apply_baseline(
                findings, san.load_baseline(baseline_path)
            )
        except (ValueError, KeyError) as exc:
            print(f"repro sanitize: bad baseline: {exc}", file=sys.stderr)
            return 2
    print(
        san.format_findings(
            findings, args.format, checked=len(checks), suppressed=suppressed
        )
    )
    return 1 if findings else 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "resume": _cmd_resume,
    "monitor": _cmd_monitor,
    "table1": _cmd_table1,
    "fig3": _cmd_fig3,
    "trace": _cmd_trace,
    "perf": _cmd_perf,
    "sanitize": _cmd_sanitize,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        return _cmd_lint(argv[1:])
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
