"""Nestable tracing spans with injectable clocks.

The answer to "where did this run spend its time, and why did this
candidate get confirmed at level 3?" without a debugger: every layer of
the hierarchical pipeline opens a :class:`Span` around its unit of work
(one per hierarchy level, one per detector invocation including fallback
chains, one per confirmation/support recomputation), and the
:class:`Tracer` records them as a flat list that is trivially
reconstructable into a tree (``parent_id`` links).

Design constraints, in order:

* **zero dependencies** — stdlib only, importable everywhere;
* **deterministic under injected clocks** — span ids are sequential
  integers and the clock is a plain callable, so two seeded runs driven
  by a :class:`TickClock` serialize byte-identically (the chaos suite's
  rerun guarantee extends to telemetry);
* **cheap when disabled** — a disabled tracer hands out one shared
  no-op span and records nothing.
"""

from __future__ import annotations

import json
import time
from types import TracebackType
from typing import Callable, Dict, List, Optional, Sequence, Type, Union

__all__ = [
    "Span",
    "Tracer",
    "TickClock",
    "validate_spans",
    "spans_from_dicts",
]


class TickClock:
    """Deterministic injectable clock: every call advances by ``step``.

    Substituting this for ``time.monotonic`` makes span timings (and
    therefore serialized traces) a pure function of the call sequence —
    the property the determinism tests pin down.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self._now = float(start)
        self._step = float(step)

    def __call__(self) -> float:
        now = self._now
        self._now += self._step
        return now


class Span:
    """One timed, attributed unit of work.

    ``parent_id`` is ``None`` for root spans.  ``status`` is ``"ok"``
    unless the body raised, in which case the exception is captured as
    ``"<ErrorClass>: <message>"`` and re-raised — tracing never swallows
    failures.

    A span doubles as its own ``with`` target (``__enter__`` /
    ``__exit__``): detector spans sit on the hot path, and folding the
    context manager into the span saves one allocation per invocation.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end",
        "attributes", "status", "error", "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = attributes or {}
        self.status = "ok"
        self.error = ""
        self._tracer: Optional["Tracer"] = None

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attributes: object) -> "Span":
        """Attach attributes after the span opened (chainable)."""
        self.attributes.update(attributes)
        return self

    def as_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        if exc is not None:
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"
        tracer = self._tracer
        if tracer is not None:
            self.end = tracer._clock()
            tracer._stack.pop()
            # a closed span no longer needs its tracer; keeping it would
            # make every tracer a reference cycle through its own spans
            self._tracer = None
        return False  # never swallow the exception


class _NullSpan:
    """Shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()
    name = ""
    span_id = -1
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    status = "ok"
    error = ""
    attributes: Dict[str, object] = {}

    def set(self, **attributes: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _NullContext:
    """Shared no-op ``with`` target handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


def _json_default(obj: object) -> object:
    # attribute values may be numpy scalars; obs stays numpy-free, so
    # coerce anything non-JSON through float() with a str() fallback
    try:
        return float(obj)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return str(obj)


class Tracer:
    """Collects nested spans; the single telemetry clock of one run.

    ``clock`` is any zero-argument callable returning monotonically
    non-decreasing floats (default :func:`time.monotonic`; inject
    :class:`TickClock` for deterministic traces).  Span ids are
    sequential starting at 1 in creation order.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording ------------------------------------------------------
    def span(self, name: str, **attributes: object) -> Span:
        """Open a span for the duration of the ``with`` body.

        Returns the :class:`Span` itself as the context manager (not a
        ``@contextmanager`` generator): span entry sits on the per-detector
        hot path, and skipping the generator machinery and the extra
        wrapper object keeps default-on telemetry inside its overhead
        budget.
        """
        if not self.enabled:
            return _NULL_CONTEXT  # type: ignore[return-value]
        stack = self._stack
        sp = Span(
            name,
            self._next_id,
            stack[-1].span_id if stack else None,
            self._clock(),
            attributes,
        )
        sp._tracer = self
        self._next_id += 1
        self._spans.append(sp)
        stack.append(sp)
        return sp

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span (None outside any span)."""
        return self._stack[-1].span_id if self._stack else None

    def graft(
        self,
        rows: Sequence[Dict[str, object]],
        parent_id: Optional[int] = None,
    ) -> List[Span]:
        """Adopt spans recorded by another tracer into this trace.

        Parallel tasks record their spans on a worker-local tracer and
        ship them back as ``as_dict()`` rows; grafting re-numbers them
        into this tracer's sequential id space (preserving row order and
        the internal parent links) and attaches the foreign root spans
        under ``parent_id`` — or keeps them as roots when ``parent_id``
        is ``None``, which is how process-mode trees arrive: their worker
        clocks are not comparable with an injected main-process clock, so
        nesting them under a main-process span could violate the
        containment invariant of :func:`validate_spans`.
        """
        if not self.enabled or not rows:
            return []
        id_map: Dict[int, int] = {}
        for row in rows:
            id_map[int(row["span_id"])] = self._next_id  # type: ignore[arg-type]
            self._next_id += 1
        grafted: List[Span] = []
        for row in rows:
            old_parent = row.get("parent_id")
            new_parent = (
                parent_id if old_parent is None else id_map[int(old_parent)]  # type: ignore[arg-type]
            )
            sp = Span(
                name=str(row["name"]),
                span_id=id_map[int(row["span_id"])],  # type: ignore[arg-type]
                parent_id=new_parent,
                start=float(row["start"]),  # type: ignore[arg-type]
                attributes=dict(row.get("attributes", {})),  # type: ignore[arg-type]
            )
            end = row.get("end")
            sp.end = None if end is None else float(end)  # type: ignore[arg-type]
            sp.status = str(row.get("status", "ok"))
            sp.error = str(row.get("error", ""))
            self._spans.append(sp)
            grafted.append(sp)
        return grafted

    # -- queries --------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def find(self, name: str) -> List[Span]:
        """All recorded spans with the given name, in creation order."""
        return [s for s in self._spans if s.name == name]

    def total_seconds(self) -> float:
        """Wall-clock total: summed durations of the root spans."""
        return sum(s.duration for s in self._spans if s.parent_id is None)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro.trace/1",
            "spans": [s.as_dict() for s in self._spans],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, default=_json_default)


def spans_from_dicts(doc: Union[Dict, Sequence[Dict]]) -> List[Span]:
    """Rebuild :class:`Span` objects from a trace document or span list."""
    rows = doc.get("spans", []) if isinstance(doc, dict) else doc
    spans: List[Span] = []
    for row in rows:
        sp = Span(
            name=row["name"],
            span_id=int(row["span_id"]),
            parent_id=None if row["parent_id"] is None else int(row["parent_id"]),
            start=float(row["start"]),
            attributes=dict(row.get("attributes", {})),
        )
        sp.end = None if row.get("end") is None else float(row["end"])
        sp.status = row.get("status", "ok")
        sp.error = row.get("error", "")
        spans.append(sp)
    return spans


def validate_spans(spans: Sequence[Span]) -> List[str]:
    """Structural well-formedness check; returns human-readable problems.

    A well-formed trace has unique span ids, every ``parent_id``
    resolving to an existing span, every span closed with
    ``start <= end``, and every parent opening no later and closing no
    earlier than its children (proper nesting).
    """
    problems: List[str] = []
    by_id: Dict[int, Span] = {}
    for sp in spans:
        if sp.span_id in by_id:
            problems.append(f"duplicate span id {sp.span_id}")
        by_id[sp.span_id] = sp
    for sp in spans:
        if sp.end is None:
            problems.append(f"span {sp.span_id} ({sp.name}) never closed")
        elif sp.end < sp.start:
            problems.append(
                f"span {sp.span_id} ({sp.name}) ends before it starts"
            )
        if sp.parent_id is None:
            continue
        parent = by_id.get(sp.parent_id)
        if parent is None:
            problems.append(
                f"span {sp.span_id} ({sp.name}) orphaned: "
                f"parent {sp.parent_id} does not exist"
            )
            continue
        if parent.start > sp.start:
            problems.append(
                f"span {sp.span_id} ({sp.name}) starts before its parent"
            )
        if parent.end is not None and sp.end is not None and sp.end > parent.end:
            problems.append(
                f"span {sp.span_id} ({sp.name}) outlives its parent"
            )
    return problems
