"""DET0xx — determinism discipline.

Every experiment, the chaos suite's rerun guarantee, and the
byte-identical trace serialization all rest on one invariant: *no hidden
entropy sources*.  Randomness flows through seeded
``numpy.random.Generator`` objects passed (or constructed from an
explicit seed) at injection points; clocks flow through the injectable
callables of ``repro.obs`` / ``repro.core.resilience``.

* **DET001** module-level ``np.random.<fn>(...)`` calls (global-state
  RNG: ``np.random.seed``, ``np.random.normal``, ...) — only
  ``default_rng`` / ``Generator`` / ``SeedSequence`` construction is
  allowed;
* **DET002** stdlib ``random`` usage (import or call);
* **DET003** wall-clock reads or sleeps (``time.time``,
  ``time.monotonic``, ``time.perf_counter``, ``time.sleep``,
  ``datetime.now`` / ``utcnow`` / ``today``) outside the clock injection
  points;
* **DET004** ``np.random.default_rng()`` *without a seed argument* —
  an unseeded generator is hidden entropy with a reassuring name;
* **DET005** direct ``ThreadPoolExecutor`` / ``ProcessPoolExecutor``
  construction outside ``repro.core.parallel`` — ad-hoc pools bypass the
  execution engine's deterministic scheduling, worker sizing, and
  result-merge ordering (one pool construction site keeps the
  byte-identical-across-executors guarantee auditable);
* **DET006** direct ``.jobs`` mutation (``x.jobs.append(...)``,
  ``x.jobs = ...``, ``x.jobs[i] = ...``, ``del x.jobs[i]``) outside the
  plant-construction modules — job arrivals must flow through
  ``PlantDataset.ingest_job``, the one API that keeps the navigation
  index and the incremental pipeline's dirty tracking coherent; a job
  appended behind its back is scored stale (or never) on refresh.  The
  rule also flags in-place writes to a job's ``.setup`` or CAQ
  ``.measurements`` dict there (``x.setup[k] = ...``, ``del
  x.setup[k]``, ``x.setup.update(...)`` and the other mutating dict
  methods): the dataset caches every job's feature row on first use.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..core import Finding, LintConfig, ParsedFile, Rule

__all__ = ["DeterminismRule"]

#: Modules allowed to touch real clocks: the tracer/telemetry defaults,
#: the sandbox's timeout machinery, the chaos harness's hanging
#: detector (whose whole point is to block), the snapshot store
#: (wall-clock mtime age of on-disk checkpoint files), the sampling
#: profiler (observation-only; its measurements never enter reports),
#: and the shared-memory transport (encode/decode overhead timing —
#: observability-only, never part of a report).
_CLOCK_INJECTION_POINTS = (
    "repro/obs/trace.py",
    "repro/obs/__init__.py",
    "repro/obs/perf.py",
    "repro/core/resilience.py",
    "repro/core/parallel.py",
    "repro/core/checkpoint.py",
    "repro/core/shm.py",
    "repro/plant/chaos.py",
)

#: The one module allowed to construct executor pools (DET005).
_POOL_CONSTRUCTION_POINTS = ("repro/core/parallel.py",)

#: Modules allowed to mutate ``.jobs`` directly (DET006): the dataset
#: model itself (whose ``ingest_job`` is the sanctioned mutation API),
#: the simulator, and the ``.npz`` loader — all construction-time.
_JOBS_MUTATION_POINTS = (
    "repro/plant/model.py",
    "repro/plant/simulate.py",
    "repro/io.py",
)

#: List methods that mutate in place (DET006 flags them on ``.jobs``).
_MUTATING_LIST_METHODS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
)

#: A job's dicts that the dataset's row caches read once (DET006), and the
#: dict methods that write to them in place.
_JOB_DICTS = frozenset({"setup", "measurements"})
_MUTATING_DICT_METHODS = frozenset({"update", "pop", "clear", "setdefault", "popitem"})

#: Executor classes whose direct construction DET005 flags.
_POOL_CLASSES = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})

#: np.random attributes that are constructors, not global-state RNG calls.
_ALLOWED_NP_RANDOM = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)

_WALL_CLOCK_CALLS = {
    "time": frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
         "perf_counter_ns", "sleep", "localtime", "gmtime"}
    ),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}


class DeterminismRule(Rule):
    name = "determinism-discipline"
    rule_ids: Tuple[str, ...] = (
        "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
    )

    def check(self, src: ParsedFile, config: LintConfig) -> Iterator[Finding]:
        clock_ok = src.matches(*_CLOCK_INJECTION_POINTS)
        pool_ok = src.matches(*_POOL_CONSTRUCTION_POINTS)
        jobs_ok = src.matches(*_JOBS_MUTATION_POINTS)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self._finding(
                    "DET002",
                    src,
                    node,
                    "stdlib 'random' import: global-state RNG breaks seeded reruns",
                    hint="take a seeded np.random.Generator parameter instead",
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self._finding(
                            "DET002",
                            src,
                            node,
                            "stdlib 'random' import: global-state RNG breaks "
                            "seeded reruns",
                            hint="take a seeded np.random.Generator parameter instead",
                        )
            elif isinstance(node, ast.Call):
                if not pool_ok:
                    yield from self._check_pool(node, src)
                if not jobs_ok:
                    yield from self._check_jobs_call(node, src)
                yield from self._check_call(node, src, clock_ok)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)) and not jobs_ok:
                yield from self._check_jobs_assign(node, src)

    def _check_pool(self, node: ast.Call, src: ParsedFile) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if name in _POOL_CLASSES:
            yield self._finding(
                "DET005",
                src,
                node,
                f"direct {name} construction outside repro.core.parallel",
                hint="route pooled work through "
                "repro.core.parallel.ParallelEngine (executor= in "
                "PipelineConfig), the single audited pool construction site",
            )

    def _check_jobs_call(self, node: ast.Call, src: ParsedFile) -> Iterator[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)):
            return
        owner = func.value.attr
        if owner == "jobs" and func.attr in _MUTATING_LIST_METHODS:
            yield self._jobs_finding(node, src, f".jobs.{func.attr}(...)")
        elif owner in _JOB_DICTS and func.attr in _MUTATING_DICT_METHODS:
            yield self._jobs_finding(node, src, f".{owner}.{func.attr}(...)")

    def _check_jobs_assign(
        self, node: "ast.Assign | ast.AugAssign | ast.Delete", src: ParsedFile
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Assign):
            targets, verb = node.targets, "{} = ..."
        elif isinstance(node, ast.AugAssign):
            targets, verb = [node.target], "{} = ..."
        else:
            targets, verb = node.targets, "del {}"
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr == "jobs":
                yield self._jobs_finding(node, src, verb.format(".jobs"))
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and (target.value.attr == "jobs" or target.value.attr in _JOB_DICTS)
            ):
                yield self._jobs_finding(
                    node, src, verb.format(f".{target.value.attr}[...]")
                )

    def _jobs_finding(self, node: ast.AST, src: ParsedFile, what: str) -> Finding:
        return self._finding(
            "DET006",
            src,
            node,
            f"direct {what} mutation outside the plant-construction modules",
            hint="route job arrivals through PlantDataset.ingest_job so the "
            "navigation index and the incremental pipeline's dirty "
            "tracking stay coherent; a job's setup and CAQ measurements "
            "stay as built (the dataset caches its feature row)",
        )

    def _check_call(
        self, node: ast.Call, src: ParsedFile, clock_ok: bool
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        chain = _attribute_chain(func)
        if chain is None:
            return
        # np.random.<fn>(...) / numpy.random.<fn>(...)
        if len(chain) == 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            fn = chain[2]
            if fn == "default_rng" and not (node.args or node.keywords):
                yield self._finding(
                    "DET004",
                    src,
                    node,
                    "np.random.default_rng() without a seed is hidden entropy",
                    hint="pass an explicit seed (or thread a Generator parameter)",
                )
            elif fn not in _ALLOWED_NP_RANDOM:
                yield self._finding(
                    "DET001",
                    src,
                    node,
                    f"module-level np.random.{fn}() uses numpy's global RNG state",
                    hint="use a seeded np.random.Generator (rng = "
                    "np.random.default_rng(seed); rng.<fn>(...))",
                )
        # random.<fn>(...)
        elif len(chain) == 2 and chain[0] == "random":
            yield self._finding(
                "DET002",
                src,
                node,
                f"stdlib random.{chain[1]}() is unseeded global-state RNG",
                hint="take a seeded np.random.Generator parameter instead",
            )
        # time.<fn>() / datetime.<fn>() outside the injection points
        elif not clock_ok and len(chain) >= 2:
            owner, fn = chain[-2], chain[-1]
            if fn in _WALL_CLOCK_CALLS.get(owner, ()):
                yield self._finding(
                    "DET003",
                    src,
                    node,
                    f"wall-clock call {owner}.{fn}() outside the clock "
                    "injection points",
                    hint="accept an injectable clock callable (see "
                    "repro.obs.TickClock / DetectorSandbox)",
                )


def _attribute_chain(node: ast.expr) -> "Tuple[str, ...] | None":
    """``np.random.normal`` -> ("np", "random", "normal"); None if not names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None
