"""Project-wide dataflow model behind the DET1xx concurrency rules.

The per-file rules in this suite see one AST at a time; the worker-purity
contract of ``repro.core.parallel`` is a *cross-file* property: a helper
three imports away from ``_run_scoring_task`` still executes inside a
worker process, and a module-global it mutates is silently forked state.
This module builds the static approximation those rules need:

1. a **module graph** over every scanned file whose path contains a
   ``repro`` package component (fixture trees that mirror the layout get
   their own graph, keyed by the directory that anchors ``repro``);
2. an **import table** per module (absolute and relative, module-level
   and function-level imports alike);
3. a **reference graph** between functions.  Any ``Name`` load or
   resolvable attribute chain inside a function body counts as an edge —
   a deliberate over-approximation that covers the ways workers acquire
   callees in this codebase: direct calls, ``_TASK_RUNNERS``-style
   dispatch dicts, ``functools.partial``, and ``pool.submit``;
4. the **worker entry points**: values of module-level ``_TASK_RUNNERS``
   dicts, the worker argument of ``<engine>.run(graph, worker)`` calls
   in modules that import :class:`ParallelEngine`, and first arguments
   of ``pool.submit(fn, ...)`` inside ``repro/core/parallel.py``;
5. the **worker-reachable set**: BFS closure over the reference graph
   from the entry points.  Referencing a class marks every method of the
   class reachable (instances cross the pickle boundary whole).

Known approximations (see docs/STATIC_ANALYSIS.md):

* over: bare-name references count as calls even when only stored;
  reaching a class reaches all its methods; nested functions are folded
  into their parent's reference set.
* under: attribute chains through instance state (``self.x.fn()``),
  callables stored in containers other than ``_TASK_RUNNERS``, and
  ``getattr``/string dispatch are invisible.

Pure stdlib ``ast``; never imports the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import ParsedFile

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectModel", "build_models", "module_name_for"]

#: Container-mutating method names (DET101 flags them on module globals).
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "add", "discard", "update", "setdefault", "popitem",
        "appendleft", "extendleft",
    }
)


def module_name_for(posix_path: str) -> Optional[str]:
    """Dotted module name anchored at the last ``repro`` path component.

    ``src/repro/core/parallel.py`` -> ``repro.core.parallel``;
    ``tests/lint/fixtures/bad/repro/util_bad.py`` -> ``repro.util_bad``;
    paths without a ``repro`` component return None.
    """
    parts = posix_path.split("/")
    if not parts or not parts[-1].endswith(".py"):
        return None
    try:
        anchor = len(parts) - 2 - parts[:-1][::-1].index("repro")
    except ValueError:
        return None
    dotted = parts[anchor:]
    dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def _anchor_root(posix_path: str) -> str:
    """Directory prefix that contains the ``repro`` package component."""
    parts = posix_path.split("/")
    anchor = len(parts) - 2 - parts[:-1][::-1].index("repro")
    return "/".join(parts[:anchor])


@dataclass
class FunctionInfo:
    """One function or method, addressed by dotted qualname."""

    qualname: str          #: e.g. ``repro.core.tasks._run_phase_task``
    module: str            #: owning module's dotted name
    node: ast.AST          #: FunctionDef / AsyncFunctionDef
    cls: Optional[str] = None  #: owning class qualname for methods


@dataclass
class ModuleInfo:
    """Statically extracted surface of one module."""

    name: str
    src: ParsedFile
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    class_methods: Dict[str, List[str]] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)
    #: Names bound at module top level (any assignment target).
    module_globals: Set[str] = field(default_factory=set)
    #: Subset of ``module_globals`` bound to mutable containers.
    mutable_globals: Set[str] = field(default_factory=set)

    @property
    def package(self) -> str:
        return self.name if self.src.path.name == "__init__.py" else self.name.rsplit(".", 1)[0]


_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)


def _collect_module(src: ParsedFile, name: str) -> ModuleInfo:
    info = ModuleInfo(name=name, src=src)
    _collect_imports(info, src.tree)
    for stmt in src.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{name}.{stmt.name}"
            info.functions[qual] = FunctionInfo(qual, name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            cls_qual = f"{name}.{stmt.name}"
            methods: List[str] = []
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    mqual = f"{cls_qual}.{item.name}"
                    info.functions[mqual] = FunctionInfo(mqual, name, item, cls=cls_qual)
                    methods.append(mqual)
            info.class_methods[cls_qual] = methods
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            mutable = isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                         ast.DictComp, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_CONSTRUCTORS
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    info.module_globals.add(target.id)
                    if mutable:
                        info.mutable_globals.add(target.id)
    return info


def _collect_imports(info: ModuleInfo, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(info, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _resolve_from_base(info: ModuleInfo, node: ast.ImportFrom) -> Optional[str]:
    if node.level == 0:
        return node.module or ""
    package_parts = info.package.split(".")
    up = node.level - 1
    if up > len(package_parts):
        return None
    base_parts = package_parts[: len(package_parts) - up]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts)


class ProjectModel:
    """Module graph + reference graph + worker-reachable closure."""

    def __init__(self, modules: Dict[str, ModuleInfo]):
        self.modules = modules
        self._functions: Dict[str, FunctionInfo] = {}
        self._class_methods: Dict[str, List[str]] = {}
        for mod in modules.values():
            self._functions.update(mod.functions)
            self._class_methods.update(mod.class_methods)
        self.entry_points: List[str] = self._discover_entry_points()
        self.worker_reachable: Set[str] = self._closure(self.entry_points)

    @classmethod
    def build(cls, files: Sequence[ParsedFile]) -> "ProjectModel":
        modules: Dict[str, ModuleInfo] = {}
        for src in files:
            name = module_name_for(src.path.as_posix())
            if name is not None:
                modules[name] = _collect_module(src, name)
        return cls(modules)

    # -- resolution -------------------------------------------------

    def _resolve_dotted(self, dotted: str) -> List[str]:
        """Qualnames a dotted path resolves to (methods of a class count)."""
        if dotted in self._functions:
            return [dotted]
        if dotted in self._class_methods:
            return list(self._class_methods[dotted])
        return []

    def _resolve_name(self, module: ModuleInfo, name: str) -> List[str]:
        local = f"{module.name}.{name}"
        hit = self._resolve_dotted(local)
        if hit:
            return hit
        target = module.imports.get(name)
        if target is not None:
            return self._resolve_dotted(target)
        return []

    def _resolve_chain(
        self, module: ModuleInfo, chain: Tuple[str, ...], owner: Optional[str]
    ) -> List[str]:
        if len(chain) == 1:
            return self._resolve_name(module, chain[0])
        head = chain[0]
        if head == "self" and owner is not None:
            return self._resolve_dotted(f"{owner}.{chain[-1]}")
        base = module.imports.get(head, head)
        for split in range(len(chain), 1, -1):
            dotted = ".".join([base, *chain[1:split]])
            hit = self._resolve_dotted(dotted)
            if hit:
                return hit
        return []

    # -- reference edges --------------------------------------------

    def references(self, qualname: str) -> List[str]:
        """Functions/methods referenced anywhere in ``qualname``'s body."""
        fn = self._functions[qualname]
        module = self.modules[fn.module]
        out: List[str] = []
        seen: Set[str] = set()
        for node in ast.walk(fn.node):
            resolved: List[str] = []
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                resolved = self._resolve_name(module, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                chain = _attribute_chain(node)
                if chain is not None:
                    resolved = self._resolve_chain(module, chain, fn.cls)
            for qual in resolved:
                if qual != qualname and qual not in seen:
                    seen.add(qual)
                    out.append(qual)
        return out

    # -- worker entry points ----------------------------------------

    def _discover_entry_points(self) -> List[str]:
        entries: List[str] = []
        seen: Set[str] = set()

        def add(quals: List[str]) -> None:
            for qual in quals:
                if qual not in seen:
                    seen.add(qual)
                    entries.append(qual)

        for module in self.modules.values():
            # 1. values of module-level _TASK_RUNNERS-style dispatch dicts
            for stmt in module.src.tree.body:
                if (
                    isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    and isinstance(stmt.value, ast.Dict)
                ):
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    )
                    named = any(
                        isinstance(t, ast.Name) and t.id == "_TASK_RUNNERS"
                        for t in targets
                    )
                    if named:
                        for value in stmt.value.values:
                            if isinstance(value, ast.Name):
                                add(self._resolve_name(module, value.id))
            # 2. the worker argument of <engine>.run(graph, worker) in
            #    modules that import ParallelEngine
            imports_engine = any(
                target.endswith("ParallelEngine") or target.endswith("core.parallel")
                for target in module.imports.values()
            ) or module.name.endswith("core.parallel")
            if imports_engine:
                for node in ast.walk(module.src.tree):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "run"
                        and len(node.args) >= 2
                    ):
                        add(self._worker_arg(module, node.args[1]))
            # 3. first arguments of pool.submit(fn, ...) inside the engine
            if module.name.endswith("core.parallel"):
                for node in ast.walk(module.src.tree):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "submit"
                        and node.args
                    ):
                        add(self._worker_arg(module, node.args[0]))
        return entries

    def _worker_arg(self, module: ModuleInfo, arg: ast.expr) -> List[str]:
        """Resolve a worker-position argument: name, partial, or cast(...)."""
        if isinstance(arg, ast.Name):
            return self._resolve_name(module, arg.id)
        if isinstance(arg, ast.Call):
            func = arg.func
            fname = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if fname == "partial" and arg.args:
                return self._worker_arg(module, arg.args[0])
            if fname == "cast" and len(arg.args) >= 2:
                return self._worker_arg(module, arg.args[1])
        return []

    # -- reachability -----------------------------------------------

    def _closure(self, roots: Sequence[str]) -> Set[str]:
        reached: Set[str] = set()
        stack = [qual for qual in roots if qual in self._functions]
        while stack:
            qual = stack.pop()
            if qual in reached:
                continue
            reached.add(qual)
            for ref in self.references(qual):
                if ref not in reached:
                    stack.append(ref)
        return reached

    def reachable_functions(self) -> Iterator[FunctionInfo]:
        """Worker-reachable functions in deterministic qualname order."""
        for qual in sorted(self.worker_reachable):
            yield self._functions[qual]


def build_models(files: Sequence[ParsedFile]) -> Dict[str, ProjectModel]:
    """One :class:`ProjectModel` per ``repro`` anchor root, in path order.

    A mixed scan (real ``src/`` plus fixture trees that mirror the
    layout) must not fuse distinct packages into one graph, so files are
    grouped by the directory that contains their ``repro`` component.
    """
    groups: Dict[str, List[ParsedFile]] = {}
    for src in files:
        posix = src.path.as_posix()
        if module_name_for(posix) is None:
            continue
        groups.setdefault(_anchor_root(posix), []).append(src)
    return {root: ProjectModel.build(group) for root, group in sorted(groups.items())}


def _attribute_chain(node: ast.expr) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None
