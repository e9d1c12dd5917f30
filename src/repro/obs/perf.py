"""Performance observability: Chrome traces, profiling, slow-task reports.

The pipeline's tracer answers *what* ran; this module answers *where the
time and memory went*:

* :func:`to_chrome_trace` — renders a (possibly grafted) span forest in
  the Chrome trace-event format, loadable in Perfetto / ``chrome://
  tracing``: one pid/tid lane per executor worker (real worker pids for
  the process executor; named thread lanes for trace files written by
  earlier versions, which had a thread pool), ``B``/``E`` duration
  events, and ``s``/``f`` flow events linking each task's submit point
  in the main process to its execution in a worker;
* :func:`validate_chrome_trace` — the structural well-formedness check
  the export tests and hypothesis properties assert (balanced ``B``/``E``
  per lane, non-decreasing timestamps within a lane, paired flow ids);
* :class:`SamplingProfiler` — an opt-in wall-clock sampling profiler
  that aggregates self-time by function and exports collapsed-stack
  (flamegraph) output.  It reads real clocks internally (this module is
  a registered DET003 clock-injection point) but never touches the
  telemetry clock and feeds nothing back into reports, so deterministic
  runs stay byte-identical with profiling on;
* :func:`perf_report_rows` — the library half of ``repro perf report``
  (top-K slow-task table from a run manifest or span trace).

Whether a change made the program slower is answered by perfbench
(``perfbench/run.py``), not here.

Everything here is stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading
import time
from types import FrameType, TracebackType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

from ..atomic import write_atomic
from .trace import Span, Tracer, spans_from_dicts

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "to_chrome_trace",
    "chrome_trace_to_json",
    "write_chrome_trace",
    "validate_chrome_trace",
    "SamplingProfiler",
    "perf_report_rows",
]

#: Stamped into the exported document's ``otherData`` block.
CHROME_TRACE_SCHEMA = "repro.chrome-trace/1"

#: The synthetic pid of the main process in exported traces.  Real pids
#: would make seeded exports non-deterministic; worker lanes use the real
#: worker pid carried in their ``worker="pid-<n>"`` span attribute.
_MAIN_PID = 1
_MAIN_TID = 0

#: Lane key: (pid, tid).
_Lane = Tuple[int, int]

_FLOW_NAME = "task-dispatch"


def _json_safe(value: object) -> object:
    """Coerce one attribute value into something ``json.dumps`` accepts."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return str(value)


def _worker_lane(worker: str, tids: Dict[str, int]) -> _Lane:
    """Map a task root span's ``worker`` label onto a (pid, tid) lane.

    ``pid-<n>`` labels (process executor) become real-pid lanes;
    ``main`` is the main lane.  Any other label — a thread name, as in
    trace files written by earlier versions that had a thread-pool
    executor — shares the main pid with one tid per label (assigned in
    first-appearance order, hence deterministic for a deterministic span
    order).
    """
    if worker == "main":
        return (_MAIN_PID, _MAIN_TID)
    if worker.startswith("pid-"):
        try:
            return (int(worker[4:]), 1)
        except ValueError:
            pass
    if worker not in tids:
        tids[worker] = len(tids) + 2  # 0 = main thread, 1 = process workers
    return (_MAIN_PID, tids[worker])


def _as_spans(spans: Union[Tracer, Sequence[Span], Sequence[Dict[str, object]]]) -> List[Span]:
    if isinstance(spans, Tracer):
        return spans.spans
    out: List[Span] = []
    rows: List[Dict[str, object]] = []
    for item in spans:
        if isinstance(item, Span):
            out.append(item)
        else:
            rows.append(item)
    return out + spans_from_dicts(rows)


def to_chrome_trace(
    spans: Union[Tracer, Sequence[Span], Sequence[Dict[str, object]]],
) -> Dict[str, object]:
    """Render a span forest as a Chrome trace-event document.

    Every span becomes a ``B``/``E`` pair on the lane of its nearest
    ancestor (including itself) carrying a ``worker`` attribute — the
    label :func:`repro.core.tasks._worker_label` stamps on task root
    spans — so process-executor runs get one lane per real worker pid
    (and traces from earlier thread-pool runs one lane per pool thread).
    ``M`` metadata events
    name the lanes; ``s``/``f`` flow events connect each task root to
    its submit anchor in the main lane (the grafted root's parent when
    it has one, else the open ``pipeline.build`` / ``pipeline.refresh``
    span).  Unclosed spans are skipped.  Timestamps are microseconds.
    """
    all_spans = _as_spans(spans)
    by_id: Dict[int, Span] = {s.span_id: s for s in all_spans}
    tids: Dict[str, int] = {}
    lane_cache: Dict[int, _Lane] = {}

    def lane_of(span: Span) -> _Lane:
        chain: List[Span] = []
        lane: Optional[_Lane] = None
        cur: Optional[Span] = span
        while cur is not None:
            cached = lane_cache.get(cur.span_id)
            if cached is not None:
                lane = cached
                break
            chain.append(cur)
            worker = cur.attributes.get("worker")
            if worker is not None:
                lane = _worker_lane(str(worker), tids)
                break
            cur = by_id.get(cur.parent_id) if cur.parent_id is not None else None
        if lane is None:
            lane = (_MAIN_PID, _MAIN_TID)
        for entry in chain:
            lane_cache[entry.span_id] = lane
        return lane

    closed = [s for s in all_spans if s.end is not None]
    lanes: Dict[int, _Lane] = {s.span_id: lane_of(s) for s in closed}

    # Within-lane tree: a span roots its lane when its parent is absent,
    # unclosed, or lives on a different lane.
    children: Dict[_Lane, Dict[Optional[int], List[Span]]] = {}
    for span in closed:
        lane = lanes[span.span_id]
        parent_key: Optional[int] = None
        if span.parent_id is not None and lanes.get(span.parent_id) == lane:
            parent_key = span.parent_id
        children.setdefault(lane, {}).setdefault(parent_key, []).append(span)

    def us(seconds: float) -> float:
        return round(seconds * 1e6, 3)

    events: List[Dict[str, object]] = []

    # lane-naming metadata first
    pids = sorted({lane[0] for lane in children} | {_MAIN_PID})
    thread_names = {tid: name for name, tid in tids.items()}
    for pid in pids:
        label = "repro (main)" if pid == _MAIN_PID else f"repro worker pid {pid}"
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": label}}
        )
    for lane in sorted(children):
        pid, tid = lane
        if pid == _MAIN_PID:
            name = "main" if tid == _MAIN_TID else thread_names.get(tid, f"thread-{tid}")
        else:
            name = "worker"
        events.append(
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )

    def emit(span: Span, lane: _Lane) -> None:
        pid, tid = lane
        args: Dict[str, object] = {
            key: _json_safe(value) for key, value in sorted(span.attributes.items())
        }
        if span.status != "ok":
            args["status"] = span.status
            args["error"] = span.error
        events.append(
            {"ph": "B", "name": span.name, "cat": "span", "pid": pid,
             "tid": tid, "ts": us(span.start), "args": args}
        )
        for child in sorted(
            children[lane].get(span.span_id, ()), key=lambda s: (s.start, s.span_id)
        ):
            emit(child, lane)
        assert span.end is not None  # only closed spans are emitted
        events.append(
            {"ph": "E", "name": span.name, "cat": "span", "pid": pid,
             "tid": tid, "ts": us(span.end)}
        )

    for lane in sorted(children):
        for root in sorted(
            children[lane].get(None, ()), key=lambda s: (s.start, s.span_id)
        ):
            emit(root, lane)

    # flow events: submit (main lane) -> execute (worker lane), one pair
    # per task root span, ids sequential in span order
    main_anchor: Optional[Span] = None
    for span in closed:
        if lanes[span.span_id] != (_MAIN_PID, _MAIN_TID):
            continue
        if span.name in ("pipeline.build", "pipeline.refresh"):
            main_anchor = span
            break
        if main_anchor is None:
            main_anchor = span
    flow_id = 0
    for span in closed:
        if "task" not in span.attributes or "worker" not in span.attributes:
            continue
        anchor: Optional[Span] = None
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            if parent is not None and parent.end is not None:
                anchor = parent
        if anchor is None:
            anchor = main_anchor
        if anchor is None or anchor is span:
            continue
        flow_id += 1
        a_pid, a_tid = lanes[anchor.span_id]
        s_pid, s_tid = lanes[span.span_id]
        events.append(
            {"ph": "s", "name": _FLOW_NAME, "cat": "task", "id": flow_id,
             "pid": a_pid, "tid": a_tid, "ts": us(anchor.start)}
        )
        events.append(
            {"ph": "f", "bt": "e", "name": _FLOW_NAME, "cat": "task",
             "id": flow_id, "pid": s_pid, "tid": s_tid, "ts": us(span.start)}
        )

    return {
        "displayTimeUnit": "ms",
        "otherData": {"schema": CHROME_TRACE_SCHEMA},
        "traceEvents": events,
    }


def chrome_trace_to_json(
    spans: Union[Tracer, Sequence[Span], Sequence[Dict[str, object]]],
    indent: Optional[int] = 2,
) -> str:
    """JSON text of :func:`to_chrome_trace` (key-sorted, deterministic)."""
    return json.dumps(to_chrome_trace(spans), indent=indent, sort_keys=True)


def write_chrome_trace(
    spans: Union[Tracer, Sequence[Span], Sequence[Dict[str, object]]],
    path: Union[str, pathlib.Path],
) -> pathlib.Path:
    """Write the Chrome trace-event export of ``spans`` to ``path``."""
    return write_atomic(pathlib.Path(path), chrome_trace_to_json(spans) + "\n")


def validate_chrome_trace(doc: Mapping[str, object]) -> List[str]:
    """Well-formedness problems of a Chrome trace document (empty = ok).

    Checks the properties the export tests pin down: every lane's
    ``B``/``E`` events balance like a stack with matching names,
    timestamps never decrease within a lane, and every flow id is used
    by exactly one ``s`` and one ``f`` event.
    """
    problems: List[str] = []
    raw_events = doc.get("traceEvents")
    if not isinstance(raw_events, list):
        return ["traceEvents is not a list"]
    stacks: Dict[_Lane, List[str]] = {}
    last_ts: Dict[_Lane, float] = {}
    flow_starts: Dict[object, int] = {}
    flow_finishes: Dict[object, int] = {}
    for event in raw_events:
        if not isinstance(event, dict):
            problems.append(f"non-dict event {event!r}")
            continue
        ph = event.get("ph")
        if ph == "M":
            continue
        lane = (int(event.get("pid", 0)), int(event.get("tid", 0)))
        ts = float(event.get("ts", 0.0))
        if ph in ("B", "E"):
            if ts < last_ts.get(lane, float("-inf")):
                problems.append(
                    f"timestamp moved backwards on lane {lane}: "
                    f"{ts} after {last_ts[lane]} ({ph} {event.get('name')!r})"
                )
            last_ts[lane] = ts
        if ph == "B":
            stacks.setdefault(lane, []).append(str(event.get("name")))
        elif ph == "E":
            stack = stacks.setdefault(lane, [])
            if not stack:
                problems.append(
                    f"E event without open B on lane {lane}: {event.get('name')!r}"
                )
            elif stack[-1] != str(event.get("name")):
                problems.append(
                    f"E event {event.get('name')!r} closes {stack[-1]!r} "
                    f"on lane {lane}"
                )
                stack.pop()
            else:
                stack.pop()
        elif ph == "s":
            flow_starts[event.get("id")] = flow_starts.get(event.get("id"), 0) + 1
        elif ph == "f":
            flow_finishes[event.get("id")] = flow_finishes.get(event.get("id"), 0) + 1
    for lane, stack in stacks.items():
        if stack:
            problems.append(f"unclosed B events on lane {lane}: {stack!r}")
    for fid, count in sorted(flow_starts.items(), key=str):
        if count != 1 or flow_finishes.get(fid, 0) != 1:
            problems.append(
                f"flow id {fid!r} has {count} start(s) and "
                f"{flow_finishes.get(fid, 0)} finish(es)"
            )
    for fid in sorted(set(flow_finishes) - set(flow_starts), key=str):
        problems.append(f"flow id {fid!r} finishes without a start")
    return problems


# ----------------------------------------------------------------------
# sampling profiler
# ----------------------------------------------------------------------
class SamplingProfiler:
    """Wall-clock sampling profiler for one thread, flamegraph-ready.

    A daemon thread samples the target thread's Python stack every
    ``interval`` seconds via ``sys._current_frames`` and accumulates
    (stack → sample count, self-seconds).  Usage::

        with SamplingProfiler(interval=0.005) as prof:
            pipeline.run()
        prof.write_collapsed("profile.txt")      # flamegraph.pl input
        prof.self_time_by_function()             # {frame label: seconds}

    Deterministic-clock safety: the profiler owns its timing entirely
    (this module is a DET003 clock-injection point) and is observation-
    only — it never touches the telemetry clock, the spans, or any
    scoring state, so a profiled run's reports are byte-identical to an
    unprofiled one.  Frames are labelled ``<file>:<function>`` and
    aggregated per function, not per line.
    """

    def __init__(self, interval: float = 0.005, max_depth: int = 128) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.max_depth = int(max_depth)
        self._stacks: Dict[Tuple[str, ...], List[float]] = {}  # [count, secs]
        self._samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target: Optional[int] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Begin sampling the *calling* thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.stop()
        return False

    # -- sampling -------------------------------------------------------
    def _frame_stack(self, frame: Optional[FrameType]) -> Tuple[str, ...]:
        labels: List[str] = []
        while frame is not None and len(labels) < self.max_depth:
            code = frame.f_code
            filename = code.co_filename.rsplit("/", 1)[-1]
            labels.append(f"{filename}:{code.co_name}")
            frame = frame.f_back
        labels.reverse()
        return tuple(labels)

    def _loop(self) -> None:
        last = time.perf_counter()
        while not self._stop.wait(self.interval):
            now = time.perf_counter()
            frame = sys._current_frames().get(self._target or -1)
            if frame is None:  # target thread exited
                break
            stack = self._frame_stack(frame)
            entry = self._stacks.setdefault(stack, [0.0, 0.0])
            entry[0] += 1
            entry[1] += now - last
            self._samples += 1
            last = now

    # -- results --------------------------------------------------------
    @property
    def samples(self) -> int:
        """Number of stack samples captured so far."""
        return self._samples

    def total_seconds(self) -> float:
        """Profiled wall-clock seconds attributed across all stacks."""
        return float(sum(entry[1] for entry in self._stacks.values()))

    def self_time_by_function(self) -> Dict[str, float]:
        """Self-seconds per leaf frame label, largest first."""
        out: Dict[str, float] = {}
        for stack, (__, seconds) in self._stacks.items():
            if stack:
                out[stack[-1]] = out.get(stack[-1], 0.0) + seconds
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def collapsed(self) -> str:
        """Collapsed-stack text (``a;b;c <samples>``), flamegraph input."""
        lines = [
            f"{';'.join(stack)} {int(entry[0])}"
            for stack, entry in sorted(self._stacks.items())
            if stack
        ]
        return "\n".join(lines)

    def write_collapsed(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write :meth:`collapsed` output to ``path``."""
        return write_atomic(pathlib.Path(path), self.collapsed() + "\n")


# ----------------------------------------------------------------------
# perf report (the library half of the CLI subcommand)
# ----------------------------------------------------------------------
def perf_report_rows(
    doc: Mapping[str, object], top: int = 10
) -> List[Dict[str, object]]:
    """Top-``top`` slowest tasks from a run manifest or span-trace doc.

    Accepts a ``repro.manifest/1`` document (reads the engine block's
    ``top_tasks``, which carry wall + CPU columns) or a ``repro.trace/1``
    document (falls back to ``score.*`` span durations; CPU columns are
    absent there).  Rows are dicts with ``task``, ``kind``,
    ``wall_seconds`` and optionally ``cpu_seconds``, sorted by wall time
    descending.
    """
    schema = str(doc.get("schema", ""))
    rows: List[Dict[str, object]] = []
    engine = doc.get("engine")
    if isinstance(engine, Mapping):
        for entry in engine.get("top_tasks", ()):  # type: ignore[attr-defined]
            if isinstance(entry, Mapping):
                rows.append(dict(entry))
    elif schema.startswith("repro.trace/"):
        for span in spans_from_dicts(dict(doc)):
            task = span.attributes.get("task")
            if task is None or not span.name.startswith("score."):
                continue
            rows.append(
                {
                    "task": str(task),
                    "kind": str(task).split("/", 1)[0],
                    "wall_seconds": span.duration,
                }
            )
    else:
        raise ValueError(
            "expected a repro.manifest/1 document with an 'engine' block "
            f"or a repro.trace/1 document, got schema {schema!r}"
        )
    rows.sort(key=lambda r: (-float(r.get("wall_seconds", 0.0)), str(r.get("task"))))
    return rows[: max(0, int(top))]
