"""Zero-copy shared-memory arena for task payloads, unused by the pipeline.

Process workers now inherit their payloads through fork (DESIGN §12), so
nothing in ``src`` publishes here.  The module stays while the repo's
benchmark traces :meth:`ShmArena.publish` / :meth:`ShmArena.dispose` for
its ``shm.*`` rows (which now read 0), and goes with them.

An arena publishes a payload's numpy arrays **once** into one
``multiprocessing`` shared-memory block and replaces them with tiny
``(dtype, shape, offset)`` descriptors; :func:`resolve_payload` attaches
the block and copies them back out.  Lifecycle:

* its creator disposes an arena (idempotently) once the readers are done;
* block names are deterministic (``repro_shm_<pid>_<seq>``);
* every attach registers the block with the
  ``multiprocessing.resource_tracker``, so if the whole process tree dies
  by SIGKILL the tracker unlinks the segments: no leaked ``/dev/shm``
  entries even on a crash.

This is the ONLY module allowed to construct ``SharedMemory`` objects
(repro-lint HYG004), mirroring the single-pool-construction-site rule
DET005.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..timeseries.series import TimeSeries

__all__ = ["ArrayRef", "SeriesRef", "ShmPayload", "ShmArena", "resolve_payload"]

#: Array offsets are aligned so every decoded array starts on a cache line.
_ALIGN = 64

#: Monotonic arena sequence for deterministic block naming (main-process
#: only: arenas are created by the pipeline before any worker runs).
_ARENA_SEQ = itertools.count()


@dataclass(frozen=True)
class ArrayRef:
    """Descriptor of one ndarray stored inside an arena block."""

    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int


@dataclass(frozen=True)
class SeriesRef:
    """A :class:`TimeSeries` whose sample array lives in the arena."""

    values: ArrayRef
    start: float
    step: float
    name: str
    unit: str


@dataclass(frozen=True)
class ShmPayload:
    """A task payload whose array leaves were swapped for descriptors.

    ``shared_bytes`` is what the task reads from the block — the bytes
    that did *not* cross the pickle boundary.
    """

    block: str
    data: object
    shared_bytes: int


def _collect_arrays(obj: object, out: Dict[int, np.ndarray]) -> None:
    """First pass: gather every distinct array leaf (identity-deduped)."""
    if isinstance(obj, np.ndarray):
        out.setdefault(id(obj), obj)
    elif isinstance(obj, TimeSeries):
        out.setdefault(id(obj.values), obj.values)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _collect_arrays(item, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _collect_arrays(item, out)


def _encode(obj: object, refs: Dict[int, ArrayRef], seen: List[ArrayRef]) -> object:
    """Second pass: rebuild the payload tree with descriptor leaves."""
    if isinstance(obj, np.ndarray):
        ref = refs[id(obj)]
        seen.append(ref)
        return ref
    if isinstance(obj, TimeSeries):
        ref = refs[id(obj.values)]
        seen.append(ref)
        return SeriesRef(
            values=ref, start=obj.start, step=obj.step, name=obj.name, unit=obj.unit
        )
    if isinstance(obj, tuple):
        return tuple(_encode(item, refs, seen) for item in obj)
    if isinstance(obj, list):
        return [_encode(item, refs, seen) for item in obj]
    if isinstance(obj, dict):
        return {key: _encode(item, refs, seen) for key, item in obj.items()}
    return obj


def _read_array(ref: ArrayRef, buf: memoryview) -> np.ndarray:
    count = int(np.prod(ref.shape, dtype=np.int64)) if ref.shape else 1
    if count == 0:
        return np.empty(ref.shape, dtype=np.dtype(ref.dtype))
    flat = np.frombuffer(buf, dtype=np.dtype(ref.dtype), count=count, offset=ref.offset)
    # copy out: the result must stay valid after the mapping is closed
    return flat.reshape(ref.shape).copy()


def _decode(obj: object, buf: memoryview) -> object:
    if isinstance(obj, ArrayRef):
        return _read_array(obj, buf)
    if isinstance(obj, SeriesRef):
        return TimeSeries(
            values=_read_array(obj.values, buf),
            start=obj.start,
            step=obj.step,
            name=obj.name,
            unit=obj.unit,
        )
    if isinstance(obj, tuple):
        return tuple(_decode(item, buf) for item in obj)
    if isinstance(obj, list):
        return [_decode(item, buf) for item in obj]
    if isinstance(obj, dict):
        return {key: _decode(item, buf) for key, item in obj.items()}
    return obj


class ShmArena:
    """One published shared-memory block holding a task graph's arrays.

    Built by :meth:`publish`; freed by :meth:`dispose`.  The creator owns
    unlinking; workers only ever attach read-mostly and close.
    """

    def __init__(
        self,
        block: Optional[shared_memory.SharedMemory],
        total_bytes: int,
        encode_seconds: float,
    ) -> None:
        self._block = block
        self.total_bytes = total_bytes
        self.encode_seconds = encode_seconds

    @property
    def block_name(self) -> str:
        return self._block.name if self._block is not None else ""

    @classmethod
    def publish(
        cls, payloads: Dict[str, object]
    ) -> Tuple["ShmArena", Dict[str, object]]:
        """Pack every array leaf of ``payloads`` into one shared block.

        Returns ``(arena, encoded)`` where ``encoded`` maps the same keys
        to :class:`ShmPayload` trees (payloads without array leaves pass
        through untouched, so decoding stays a no-op for them).
        """
        started = time.perf_counter()
        arrays: Dict[int, np.ndarray] = {}
        for payload in payloads.values():
            _collect_arrays(payload, arrays)
        if not arrays:
            return cls(None, 0, time.perf_counter() - started), dict(payloads)

        offsets: Dict[int, int] = {}
        cursor = 0
        contiguous: Dict[int, np.ndarray] = {}
        for key, arr in arrays.items():
            contiguous[key] = np.ascontiguousarray(arr)
            offsets[key] = cursor
            cursor += contiguous[key].nbytes
            cursor += (-cursor) % _ALIGN
        block = shared_memory.SharedMemory(
            create=True,
            size=max(1, cursor),
            name=f"repro_shm_{os.getpid()}_{next(_ARENA_SEQ)}",
        )
        refs: Dict[int, ArrayRef] = {}
        for key, arr in contiguous.items():
            ref = ArrayRef(
                dtype=arr.dtype.str,
                shape=tuple(arr.shape),
                offset=offsets[key],
                nbytes=int(arr.nbytes),
            )
            refs[key] = ref
            if arr.nbytes:
                dest = np.frombuffer(
                    block.buf, dtype=arr.dtype, count=arr.size, offset=ref.offset
                )
                dest[:] = arr.ravel()
        encoded: Dict[str, object] = {}
        for key, payload in payloads.items():
            seen: List[ArrayRef] = []
            data = _encode(payload, refs, seen)
            if seen:
                encoded[key] = ShmPayload(
                    block=block.name,
                    data=data,
                    shared_bytes=int(sum(ref.nbytes for ref in seen)),
                )
            else:
                encoded[key] = payload
        return cls(block, cursor, time.perf_counter() - started), encoded

    def dispose(self) -> None:
        """Close and unlink the block (idempotent).

        Runs in the same ``finally`` as the engine's pool shutdown; the
        resource tracker keeps the SIGKILL path covered.
        """
        if self._block is None:
            return
        block, self._block = self._block, None
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:  # already reaped (tracker or chaos kill)
            pass


def resolve_payload(payload: object) -> Tuple[object, float, int]:
    """Worker-side decode: rebuild a :class:`ShmPayload` into live arrays.

    Returns ``(payload, decode_seconds, shared_bytes)``.  Plain payloads
    (serial executor, or shm transport off) pass through with
    zero cost.  The attachment is per-task — opened, read, closed — so no
    worker-global state survives between tasks (DET101 stays happy).
    """
    if not isinstance(payload, ShmPayload):
        return payload, 0.0, 0
    started = time.perf_counter()
    block = shared_memory.SharedMemory(name=payload.block)
    try:
        data = _decode(payload.data, block.buf)
    finally:
        block.close()
    return data, time.perf_counter() - started, payload.shared_bytes
