"""DET1xx — worker purity and ordering determinism (project-wide).

The byte-identical-across-executors guarantee holds only if (a) code
that runs inside pool workers is *pure* with respect to module state and
picklable, and (b) nothing anywhere in the package lets hash-seeded
iteration order leak into RNG consumption, accumulation, or emitted
output.  The PR-5 simulator bug — ``rng.choice(sorted(setup))`` fixed,
but an earlier ``set()`` dedup consuming the RNG in per-process order —
is the canonical instance; these rules make that class of bug a lint
failure instead of a lucky chaos-matrix catch.

DET101/DET102 are scoped to the **worker-reachable set** computed by
:mod:`tools.lint.dataflow` (BFS from the ``_TASK_RUNNERS`` values, the
``engine.run(graph, worker)`` worker arguments, and ``pool.submit``
targets).  DET103/DET104 are package-wide: hash-order and shared-RNG
bugs corrupt determinism from any module (the PR-5 bug lived in
``plant/simulate.py``, which no worker reaches).

* **DET101** — module-global mutation inside worker-reachable code:
  ``global`` rebinding, or in-place mutation (method call, subscript or
  augmented store) of a name bound to a container at module top level.
  Forked workers mutate a *copy* that never reaches the parent, so the
  result depends on executor choice.
* **DET102** — late-binding capture inside worker-reachable code: a
  ``lambda`` or nested ``def`` inside a loop that closes over the loop
  variable without default-binding it (``lambda name=name:`` is the
  sanctioned idiom).
* **DET103** — hash-order-sensitive iteration anywhere in the package:
  a ``for`` statement or comprehension iterating a set expression
  (literal, ``set()``/``frozenset()`` call, set comprehension) whose
  element order can escape.  Order-insensitive sinks are exempt: a
  generator/comprehension feeding ``sorted``/``min``/``max``/``sum``/
  ``len``/``any``/``all``/``set``/``frozenset``, and set-comprehension
  results (still unordered).  Fix: iterate ``sorted(...)``.
* **DET104** — RNG escaping its construction site into shared state:
  module-level or class-body assignment of ``np.random.default_rng`` /
  ``Generator`` / ``PCG64`` / ``TickClock`` objects.  Even a *seeded*
  module-level generator is shared mutable state — every importer
  advances the same stream, so scoring order changes results.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core import Finding, LintConfig, ParsedFile, ProjectRule
from ..dataflow import MUTATING_METHODS, FunctionInfo, ModuleInfo, ProjectModel, build_models

__all__ = ["ConcurrencyRule"]

#: Modules exempt from the worker-purity rules: the execution engine
#: itself (owns the pool and the per-task bookkeeping).
_WORKER_PURITY_EXEMPT = ("repro/core/parallel.py",)

#: Callables that consume an iterable without exposing element order.
_ORDER_INSENSITIVE_SINKS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: RNG/clock constructors DET104 flags at module/class scope.
_SHARED_STATE_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "PCG64", "TickClock"}
)


class ConcurrencyRule(ProjectRule):
    name = "worker-purity-dataflow"
    rule_ids: Tuple[str, ...] = ("DET101", "DET102", "DET103", "DET104")

    def check_project(
        self, files: Sequence[ParsedFile], config: LintConfig
    ) -> Iterator[Finding]:
        models = build_models(files)
        for model in models.values():
            yield from self._check_model(model)

    def _check_model(self, model: ProjectModel) -> Iterator[Finding]:
        for fn in model.reachable_functions():
            module = model.modules[fn.module]
            if module.src.matches(*_WORKER_PURITY_EXEMPT):
                continue
            yield from self._check_global_mutation(fn, module)
            yield from self._check_capture(fn, module)
        for module in model.modules.values():
            parents = _parent_map(module.src.tree)
            yield from self._check_set_iteration(module, parents)
            yield from self._check_shared_rng(module)

    # -- DET101 ------------------------------------------------------

    def _check_global_mutation(
        self, fn: FunctionInfo, module: ModuleInfo
    ) -> Iterator[Finding]:
        src = module.src
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                yield self._finding(
                    "DET101",
                    src,
                    node,
                    f"'global {', '.join(node.names)}' in worker-reachable "
                    f"{_short(fn.qualname)}: forked workers rebind a private copy",
                    hint="return the value and merge in the parent, or thread "
                    "state through the task payload",
                )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module.mutable_globals
                ):
                    yield self._mutation_finding(
                        src, node, fn, f"{func.value.id}.{func.attr}(...)"
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in module.mutable_globals
                    ):
                        yield self._mutation_finding(
                            src, node, fn, f"{target.value.id}[...] = ..."
                        )

    def _mutation_finding(
        self, src: ParsedFile, node: ast.AST, fn: FunctionInfo, what: str
    ) -> Finding:
        return self._finding(
            "DET101",
            src,
            node,
            f"module-global mutation {what} in worker-reachable "
            f"{_short(fn.qualname)}: lost in forked workers",
            hint="return the value from the task and merge deterministically "
            "in the parent process",
        )

    # -- DET102 ------------------------------------------------------

    def _check_capture(
        self, fn: FunctionInfo, module: ModuleInfo
    ) -> Iterator[Finding]:
        src = module.src
        for node in ast.walk(fn.node):
            loop_targets = _loop_target_names(node)
            if loop_targets is None:
                continue
            body = node.body if isinstance(node, (ast.For, ast.AsyncFor)) else [node]
            for inner in body:
                for closure in ast.walk(inner):
                    if not isinstance(closure, (ast.Lambda, ast.FunctionDef)):
                        continue
                    late = _free_names(closure) & loop_targets
                    if late:
                        yield self._finding(
                            "DET102",
                            src,
                            closure,
                            f"closure in worker-reachable {_short(fn.qualname)} "
                            f"captures loop variable(s) {sorted(late)} by "
                            "reference: every closure sees the last iteration",
                            hint="default-bind the loop variable "
                            "(lambda name=name: ...), the idiom "
                            "pipeline._score_resilient uses",
                        )

    # -- DET103 ------------------------------------------------------

    def _check_set_iteration(
        self, module: ModuleInfo, parents: Dict[int, ast.AST]
    ) -> Iterator[Finding]:
        src = module.src
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
                yield self._set_iter_finding(src, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter) and not _order_insensitive_sink(
                        node, parents
                    ):
                        yield self._set_iter_finding(src, gen.iter)

    def _set_iter_finding(self, src: ParsedFile, node: ast.AST) -> Finding:
        return self._finding(
            "DET103",
            src,
            node,
            "iteration over a set exposes hash-seeded element order "
            "(PYTHONHASHSEED-dependent for str keys)",
            hint="iterate sorted(...) — or dict.fromkeys(...) for "
            "first-occurrence dedup, the plant/simulate.py idiom",
        )

    # -- DET104 ------------------------------------------------------

    def _check_shared_rng(self, module: ModuleInfo) -> Iterator[Finding]:
        src = module.src
        scopes: List[Sequence[ast.stmt]] = [src.tree.body]
        scopes.extend(
            stmt.body for stmt in src.tree.body if isinstance(stmt, ast.ClassDef)
        )
        for scope in scopes:
            for stmt in scope:
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                value = stmt.value
                if isinstance(value, ast.Call) and _constructor_name(
                    value.func
                ) in _SHARED_STATE_CONSTRUCTORS:
                    yield self._finding(
                        "DET104",
                        src,
                        stmt,
                        "RNG/clock bound at module or class scope is shared "
                        "mutable state: every consumer advances one stream, "
                        "so results depend on scoring order",
                        hint="construct per task from an explicit seed "
                        "or thread a Generator parameter",
                    )


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


def _loop_target_names(node: ast.AST) -> Optional[Set[str]]:
    """Loop-variable names for For nodes and comprehensions; else None."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return _target_names(node.target)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        names: Set[str] = set()
        for gen in node.generators:
            names |= _target_names(gen.target)
        return names
    return None


def _target_names(target: ast.expr) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            out.add(node.id)
    return out


def _free_names(closure: "ast.Lambda | ast.FunctionDef") -> Set[str]:
    """Names the closure body loads, minus its own parameters.

    Parameter *defaults* evaluate at definition time, so a default-bound
    loop variable (``lambda name=name: ...``) is not a late binding.
    """
    args = closure.args
    params = {
        a.arg
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    }
    if args.vararg:
        params.add(args.vararg.arg)
    if args.kwarg:
        params.add(args.kwarg.arg)
    body = closure.body if isinstance(closure.body, list) else [closure.body]
    loads: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
    return loads - params


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _order_insensitive_sink(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    """True when a comprehension's result order cannot escape."""
    parent = parents.get(id(node))
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in _ORDER_INSENSITIVE_SINKS
        and node in parent.args
    )


def _constructor_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _parent_map(tree: ast.Module) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents
