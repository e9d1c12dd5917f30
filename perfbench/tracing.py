"""Outside-in layer tracing for the traced benchmark runs.

The benchmark records spans around the program's *public* functions from
its own code: it swaps every ``repro.*`` module binding of a function (and
the class attribute of a method) for a wrapper that records name, start,
end and parent.  Functions that ``pipeline.py`` or ``algorithm.py`` import
by name are therefore caught too.  Spans stay in memory; a run turns them
into per-unit components (:func:`unit_components`) when it ends.

A target that no longer exists is reported as missing, together with the
metrics that need it; it never fails the run.  Only the measured process's
main thread records: forked executor workers inherit the wrappers but pass
straight through, so scoring inside workers shows up only through the
program-reported engine counters.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from checks import covered, self_time


def _getsize(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _remember_pipeline(rec: "Recorder", args) -> None:
    rec.last_pipeline = args[0]


#: span name -> (module, qualified name, on_call(rec, args) -> attrs,
#: on_return(args, result) -> attrs)
TARGETS: Dict[str, Tuple[str, str, Optional[Callable], Optional[Callable]]] = {
    "cli.main": ("repro.cli", "main", None, None),
    "io.load_plant": ("repro.io", "load_plant",
                      lambda rec, a: {"bytes": _getsize(a[0]) if a else 0}, None),
    "io.reports_to_json": ("repro.io", "reports_to_json", None,
                           lambda a, r: {"bytes": len(r)}),
    "io.manifest": ("repro.obs.export", "write_run_manifest", None, None),
    "plant.ingest_job": ("repro.plant.model", "PlantDataset.ingest_job", None, None),
    "pipeline.build": ("repro.core.pipeline", "HierarchicalDetectionPipeline.__init__",
                       lambda rec, a: _remember_pipeline(rec, a), None),
    "pipeline.stats": ("repro.core.pipeline", "HierarchicalDetectionPipeline.stats",
                       None, None),
    "pipeline.refresh": ("repro.core.pipeline", "PlantHierarchyContext.refresh", None,
                         lambda a, r: {"dirty_tasks": r.get("dirty_tasks", 0)}),
    "parallel.engine_run": ("repro.core.parallel", "ParallelEngine.run",
                            lambda rec, a: {"tasks": len(a[1]),
                                            "workers": getattr(a[0], "workers", 0)},
                            None),
    "shm.publish": ("repro.core.shm", "ShmArena.publish", None, None),
    "shm.dispose": ("repro.core.shm", "ShmArena.dispose", None, None),
    "detectors.sandbox_call": ("repro.core.resilience", "DetectorSandbox.call", None, None),
    "resilience.assess": ("repro.core.resilience", "assess_series", None, None),
    "resilience.repair": ("repro.core.resilience", "repair_series", None, None),
    "alg1.run": ("repro.core.pipeline", "HierarchicalDetectionPipeline.run", None,
                 lambda a, r: {"reports": len(r)}),
    "alg1.find_candidates": ("repro.core.pipeline", "PlantHierarchyContext.find_candidates",
                             None, None),
    "alg1.confirm": ("repro.core.pipeline", "PlantHierarchyContext.confirm", None, None),
    "alg1.support": ("repro.core.pipeline", "PlantHierarchyContext.support", None, None),
    "alg1.fuse": ("repro.core.fusion", "fuse", None, None),
    "support.corresponding": ("repro.core.support", "CorrespondenceGraph.corresponding",
                              None, None),
    "support.support_for": ("repro.core.support", "SupportCalculator.support_for",
                            None, None),
    "streaming.observe_block": ("repro.streaming.stream_monitor",
                                "StreamingSensorMonitor.observe_block",
                                lambda rec, a: {"samples": len(a[1])},
                                lambda a, r: {"events": len(r)}),
}

#: metric -> span it totals (ms)
SPAN_TOTAL_MS = {
    "io.load_plant_ms": "io.load_plant",
    "io.reports_to_json_ms": "io.reports_to_json",
    "io.manifest_ms": "io.manifest",
    "plant.ingest_job_ms": "plant.ingest_job",
    "pipeline.build_ms": "pipeline.build",
    "pipeline.refresh_ms": "pipeline.refresh",
    "parallel.engine_run_ms": "parallel.engine_run",
    "shm.publish_ms": "shm.publish",
    "shm.dispose_ms": "shm.dispose",
    "detectors.fit_score_ms": "detectors.sandbox_call",
    "alg1.run_ms": "alg1.run",
    "alg1.find_candidates_ms": "alg1.find_candidates",
    "alg1.confirm_ms": "alg1.confirm",
    "alg1.support_ms": "alg1.support",
    "alg1.fuse_ms": "alg1.fuse",
    "support.corresponding_ms": "support.corresponding",
    "support.support_for_ms": "support.support_for",
}
#: metric -> span whose self time it totals (ms)
SPAN_SELF_MS = {
    "cli.self_ms": "cli.main",
    "pipeline.build_self_ms": "pipeline.build",
    "pipeline.refresh_self_ms": "pipeline.refresh",
    "streaming.observe_block_self_ms": "streaming.observe_block",
}
#: metric -> span it counts
SPAN_COUNT = {
    "detectors.calls": "detectors.sandbox_call",
    "alg1.confirm_calls": "alg1.confirm",
    "alg1.support_calls": "alg1.support",
    "support.corresponding_calls": "support.corresponding",
}
#: metric -> (span, attribute) it sums
SPAN_ATTR = {
    "io.plant_bytes": ("io.load_plant", "bytes"),
    "io.report_bytes": ("io.reports_to_json", "bytes"),
    "parallel.tasks": ("parallel.engine_run", "tasks"),
    "pipeline.dirty_tasks": ("pipeline.refresh", "dirty_tasks"),
    "alg1.reports": ("alg1.run", "reports"),
    "_stream_samples": ("streaming.observe_block", "samples"),
    "_stream_events": ("streaming.observe_block", "events"),
}
#: metric -> (span, attribute) whose largest value it takes
SPAN_ATTR_MAX = {"parallel.workers": ("parallel.engine_run", "workers")}
#: metric -> spans whose totals it adds
SPAN_SUM_MS = {"resilience.gate_ms": ("resilience.assess", "resilience.repair")}


def span_metric_targets() -> Dict[str, Tuple[str, ...]]:
    """Every span-derived metric with the targets it needs."""
    out: Dict[str, Tuple[str, ...]] = {}
    for table in (SPAN_TOTAL_MS, SPAN_SELF_MS, SPAN_COUNT):
        out.update({m: (s,) for m, s in table.items()})
    for table in (SPAN_ATTR, SPAN_ATTR_MAX):
        out.update({m: (s,) for m, (s, __) in table.items()})
    out.update(SPAN_SUM_MS)
    return out


class Recorder:
    """In-memory span store plus the swappable wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: [name, start, end, parent index or -1, attrs]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()
        self._patches: List[Tuple[object, str, object, object]] = []
        self.missing: List[str] = []
        self.last_pipeline = None

    # -- spans ---------------------------------------------------------
    def open(self, name: str, start: Optional[float] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock() if start is None else start, None,
                           parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, end: Optional[float] = None) -> None:
        self.spans[index][2] = self.clock() if end is None else end
        while self._stack and self._stack[-1] != index:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        self.spans.append([name, start, end, parent, None])
        return len(self.spans) - 1

    def _attrs(self, index: int, attrs) -> None:
        if attrs:
            self.spans[index][4] = {**(self.spans[index][4] or {}), **attrs}

    # -- wrappers ------------------------------------------------------
    def _wrapper(self, name: str, fn: Callable, on_call, on_return) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != rec._pid or threading.get_ident() != rec._tid:
                return fn(*args, **kwargs)
            attrs = on_call(rec, args) if on_call else None
            index = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            rec._attrs(index, attrs)
            if on_return is not None:
                rec._attrs(index, on_return(args, result))
            return result

        return wrapper

    def install(self, targets: Dict = TARGETS) -> None:
        """Resolve every target among the loaded modules and prepare its
        patches (see :meth:`enable`)."""
        for name, (module_name, qualname, on_call, on_return) in targets.items():
            owner = sys.modules.get(module_name)
            if owner is None:  # a layer this process never imported stays unwrapped
                try:
                    spec = importlib.util.find_spec(module_name)
                except ModuleNotFoundError:  # a parent package is gone
                    spec = None
                if spec is None:
                    self.missing.append(name)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, original, on_call, on_return)
            if path:  # a method: the class attribute serves every caller
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original, wrapper))

    def enable(self) -> None:
        for owner, attr, __, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, __ in self._patches:
            setattr(owner, attr, original)


def unit_components(spans: List[list], root: int) -> Dict[str, float]:
    """Raw per-layer components of the spans under ``spans[root]``.

    Totals skip a span nested in a span of the same name, so recursion is
    not counted twice.  ``trace.unattributed_ms`` is the root's duration
    minus what its direct children cover.
    """
    children: Dict[int, List[int]] = {}
    inside = {root}
    for i in range(root + 1, len(spans)):
        parent = spans[i][3]
        if parent in inside:
            inside.add(i)
            children.setdefault(parent, []).append(i)

    def nested_in_same(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent != root and parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    by_name: Dict[str, List[int]] = {}
    for i in sorted(inside - {root}):
        if not nested_in_same(i):
            by_name.setdefault(spans[i][0], []).append(i)

    def total_ms(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ())) * 1e3

    def self_ms(name: str) -> float:
        return sum(
            self_time(spans[i][1], spans[i][2],
                      [(spans[c][1], spans[c][2]) for c in children.get(i, ())])
            for i in by_name.get(name, ())
        ) * 1e3

    out: Dict[str, float] = {}
    for metric, name in SPAN_TOTAL_MS.items():
        out[metric] = total_ms(name)
    for metric, name in SPAN_SELF_MS.items():
        out[metric] = self_ms(name)
    for metric, name in SPAN_COUNT.items():
        out[metric] = float(len(by_name.get(name, ())))
    for metric, (name, attr) in SPAN_ATTR.items():
        out[metric] = float(sum((spans[i][4] or {}).get(attr, 0) for i in by_name.get(name, ())))
    for metric, (name, attr) in SPAN_ATTR_MAX.items():
        out[metric] = float(max(
            [(spans[i][4] or {}).get(attr, 0) for i in by_name.get(name, ())], default=0
        ))
    for metric, names in SPAN_SUM_MS.items():
        out[metric] = sum(total_ms(n) for n in names)
    start, end = spans[root][1], spans[root][2]
    top = [(spans[c][1], spans[c][2]) for c in children.get(root, ())]
    out["trace.unattributed_ms"] = ((end - start) - covered(start, end, top)) * 1e3
    return out
