"""A measured process of the benchmark (started by ``run.py``).

Three modes:

* default: the long-lived process of ``plant_scan``, ``ingest_refresh`` or
  ``stream_replay``.  It imports the program, loads the archive, sets the
  workload up, stamps the moment it is ready, then issues ops closed-loop
  (one client; the next op starts when the previous returns) for
  ``--seconds`` and checks every op's output against the reference.
* ``--probe``: the set-up of ``cold_detect``: import and ``load_plant``.
* ``--cold-child ARGS``: a traced ``cold_detect`` op, i.e. ``repro ARGS``
  with span wrappers installed.

With ``--trace 1`` every other op is traced, so the traced and untraced op
latencies of one process give the tracing overhead.
"""

import time

T_START = time.monotonic()  # first: everything before it is interpreter start-up

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from checks import (  # noqa: E402
    IMPORT_BEGIN,
    IMPORT_END,
    compare_events,
    compare_reports,
    event_fields,
    fault_ap,
    read_json,
    report_fields,
)
import workloads  # noqa: E402

#: exceptions a program-reported counter raises when its name moved away
MOVED = (AttributeError, KeyError, TypeError)


def import_program(workload: str, markers: bool):
    """Import the workload's entry points; returns the (start, end) stamps."""
    if markers:
        print(IMPORT_BEGIN, file=sys.stderr, flush=True)
    start = time.monotonic()
    for name in workloads.IMPORTS[workload]:
        importlib.import_module(name)
    end = time.monotonic()
    if markers:
        print(IMPORT_END, file=sys.stderr, flush=True)
    return start, end


def _read(source, missing: list, name: str):
    """``source()``, or ``None`` with metric ``name`` recorded as missing."""
    try:
        return source()
    except MOVED:
        missing.append(name)
        return None


def pipeline_counters(pipeline, before, missing: list) -> dict:
    """Program-reported per-op counters of a pipeline (engine, cache, health).

    ``before`` is the (hits, calls) cache total before the op, or ``None``
    when the op built a fresh pipeline.
    """
    out = {}
    try:
        engine = pipeline.context.engine_stats()
    except MOVED:
        engine = None  # each engine metric below is then reported missing
    for metric, read in (
        ("parallel.task_ms_sum", lambda: engine.compute_seconds * 1e3),
        ("shm.bytes_shared", lambda: engine.bytes_shared),
        ("shm.bytes_pickled", lambda: engine.bytes_pickled),
        ("shm.decode_ms_sum", lambda: engine.transport_decode_seconds * 1e3),
    ):
        value = _read(read, missing, metric)  # a missing engine_stats() misses all four
        if value is not None:
            out[metric] = float(value)
    totals = _read(lambda: cache_totals(pipeline), missing, "alg1.cache_hit_ratio")
    if totals is not None:
        hits0, calls0 = before or (0, 0)
        out["_cache_hits"] = float(totals[0] - hits0)
        out["_cache_calls"] = float(totals[1] - calls0)
    for metric, key in (("resilience.fallbacks", "fallbacks"),
                        ("resilience.quarantined", "quarantines")):
        value = _read(lambda: pipeline.stats()["health"][key], missing, metric)
        if value is not None:
            out[metric] = float(value)
    spans = _read(lambda: len(pipeline.telemetry.tracer.spans), missing, "obs.spans_retained")
    if spans is not None:
        out["obs.spans_retained"] = float(spans)
    return out


def cache_totals(pipeline):
    tables = pipeline.stats()["cache"].values()
    return sum(t["hits"] for t in tables), sum(t["calls"] for t in tables)


def monitor_counters(monitor, stalls_before: float, missing: list) -> dict:
    out = {}
    stalls = _read(lambda: stall_count(monitor), missing, "streaming.stalls")
    if stalls is not None:
        out["streaming.stalls"] = stalls - stalls_before
    spans = _read(lambda: len(monitor.telemetry.tracer.spans), missing, "obs.spans_retained")
    if spans is not None:
        out["obs.spans_retained"] = float(spans)
    return out


def stall_count(monitor) -> float:
    return float(monitor.telemetry.metrics.get("repro_stream_stalls_total").value())


def check(state, out, reference: dict, truth) -> tuple:
    """(problem or None, fault AP when the op completes a ranking)."""
    expected = reference["outputs"][state.last]
    if isinstance(state, workloads.StreamReplay):
        return compare_events([event_fields(e) for e in out], expected), None
    rows = json.loads(out)["reports"]
    problem = compare_reports([report_fields(r) for r in rows], expected)
    ranked = isinstance(state, workloads.PlantScan) or state.exhausted
    return problem, fault_ap(rows, truth) if ranked else None


def counters_before(state):
    """Cumulative counters the next op's deltas are taken from (``None`` when
    the op builds a fresh pipeline)."""
    try:
        if isinstance(state, workloads.StreamReplay):
            return stall_count(state.monitor)
        if isinstance(state, workloads.IngestRefresh):
            return cache_totals(state.pipeline)
    except MOVED:
        pass
    return None


def counters(state, before, full_tasks, missing: list) -> dict:
    if isinstance(state, workloads.StreamReplay):
        return monitor_counters(state.monitor, before or 0.0, missing)
    out = pipeline_counters(state.pipeline, before, missing)
    if full_tasks:
        out["_full_tasks"] = float(full_tasks)
    return out


def full_task_count(state):
    """Tasks of a full build: read right after set-up or a reset."""
    try:
        return state.pipeline.stats()["parallel"]["tasks"]
    except MOVED:
        return None


def serve(args, prepared: dict) -> dict:
    traced = bool(args.trace)
    import_start, import_end = import_program(args.workload, markers=traced)
    rec = None
    missing: list = []
    if traced:
        from tracing import Recorder, unit_components

        rec = Recorder(clock=time.monotonic)
        rec.install()
        rec.enable()
        setup_root = rec.open("setup", start=T_START)
        rec.add("import", import_start, import_end, setup_root)
    from repro.io import load_plant

    plant = load_plant(prepared["archive"])
    state = workloads.setup(args.workload, plant)
    t_ready = time.monotonic()
    full_tasks = full_task_count(state)
    setup_unit = None
    if rec is not None:
        rec.close(setup_root, end=t_ready)
        rec.disable()
        setup_unit = unit_components(rec.spans, setup_root)
        setup_unit.update(counters(state, None, full_tasks, missing))
        del rec.spans[:]
    stream = isinstance(state, workloads.StreamReplay)
    if stream:
        state.shape_inputs(plant)
    reference = read_json(prepared["reference"])

    ops, units, failures, aps = [], [], [], []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        if state.exhausted:
            state.reset()  # untimed, between ops
            full_tasks = full_task_count(state)
        traced_op = rec is not None and len(ops) % 2 == 1
        before = counters_before(state) if traced_op else None
        if traced_op:
            rec.enable()
        t0 = time.monotonic()
        root = rec.open("op", start=t0) if traced_op else None
        try:
            out = state.op()
        except Exception:  # an op that raises is a failed op; the run goes on
            t1 = time.monotonic()
            failures.append(traceback.format_exc(limit=3))
            ops.append([(t1 - t0) * 1e3, False, traced_op, 0])
            state.reset()
            out = None
        else:
            t1 = time.monotonic()
        if traced_op:
            rec.close(root, end=t1)
            rec.disable()
            if out is not None:
                unit = unit_components(rec.spans, root)
                unit.update(counters(state, before, full_tasks, missing))
                units.append(unit)
            del rec.spans[:]
        if out is None:
            continue
        problem, ap = check(state, out, reference, prepared["truth"])
        if problem:
            failures.append(f"op {len(ops)}: {problem}")
        if ap is not None:
            aps.append(ap)
        samples = len(state.blocks[state.last]) if stream else 0
        ops.append([(t1 - t0) * 1e3, problem is None, traced_op, samples])
    return {
        "t_start": T_START,
        "t_ready": t_ready,
        "ops": ops,
        "failures": failures,
        "fault_ap": aps,
        "units": units,
        "setup_unit": setup_unit,
        "missing": sorted(set(missing + (rec.missing if rec else []))),
        "t_end": time.monotonic(),
    }


def probe(args, prepared: dict) -> dict:
    import_program("cold_detect", markers=False)
    from repro.io import load_plant

    load_plant(prepared["archive"])
    return {"t_start": T_START, "t_ready": time.monotonic()}


def cold_child(args) -> dict:
    import_start, import_end = import_program("cold_detect", markers=True)
    from tracing import Recorder, unit_components

    rec = Recorder(clock=time.monotonic)
    rec.install()
    rec.enable()
    root = rec.open("op", start=T_START)
    rec.add("import", import_start, import_end, root)
    cli = sys.modules["repro.cli"]
    missing: list = []
    code = cli.main(args.argv)
    t_end = time.monotonic()
    rec.close(root, end=t_end)
    rec.disable()
    unit = unit_components(rec.spans, root)
    if rec.last_pipeline is not None:
        unit.update(pipeline_counters(rec.last_pipeline, None, missing))
    return {"code": code, "unit": unit, "t_start": T_START, "t_end": t_end,
            "missing": sorted(set(missing + rec.missing))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--prepared")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--cold-child", dest="argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.argv is not None:
        result = cold_child(args)
    else:
        prepared = read_json(args.prepared)
        result = probe(args, prepared) if args.probe else serve(args, prepared)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return int(result.get("code", 0) or 0)


if __name__ == "__main__":
    sys.exit(main())
