"""Crash-consistent checkpoint / warm-restart subsystem (DESIGN §11).

An industrial monitor gets OOM-killed and rebooted mid-shift; restarting
must not cost a full re-scan of plant history.  This module snapshots
everything a :class:`~repro.core.context.PlantHierarchyContext` cannot
cheaply re-derive — the per-task persisted outputs and replayable event
lists, the confirmation/support/candidate memo caches, the incremental
counters, and the plant ingest *watermark* — so a restarted worker
rebuilds in milliseconds and replays only the jobs past the watermark
through ``ingest_job``.

Snapshot files (``repro.snapshot/1``, the sibling of ``repro.manifest/1``
in :mod:`repro.obs.export`) are written crash-consistently via
:func:`repro.atomic.write_atomic` (temp file + fsync + atomic rename):

* an 8-byte magic, a big-endian 8-byte header length, then a JSON
  header carrying the schema tag, format version, JSON-safe metadata,
  and a section index (name, offset, length, CRC32 per section);
* concatenated pickled section payloads, each integrity-checked on load;
* bounded retention (newest ``retain`` files survive a save);
* a format version: a file whose version is not this build's
  :data:`SNAPSHOT_VERSION` is a :class:`SnapshotError`, never misread;
* corrupt snapshots (bad magic, CRC mismatch, truncated payload, foreign
  schema) emit a structured WARNING and a
  ``repro_checkpoint_corrupt_total`` increment, and
  :meth:`SnapshotStore.load_latest` falls back to the newest *valid*
  snapshot — a torn file never crashes a resume.

What is **not** checkpointed: the metrics registry and tracer spans
(observability state is per-process and explicitly outside the
byte-identity contract), the correspondence graph and navigation indexes
(pure functions of the dataset, rebuilt on restore), and the raw plant
signals (the caller re-supplies the dataset; snapshots store only the
watermark that partitions it).
"""

from __future__ import annotations

import json
import pathlib
import pickle
import re
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union, cast

from ..atomic import write_atomic
from ..obs import Telemetry

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "Snapshot",
    "SnapshotStore",
    "CheckpointManager",
    "resume_pipeline",
]

#: Schema tag of the on-disk snapshot format (sibling of
#: ``repro.manifest/1``); bump :data:`SNAPSHOT_VERSION` when the section
#: layout changes.
SNAPSHOT_SCHEMA = "repro.snapshot/1"
SNAPSHOT_VERSION = 1

_MAGIC = b"REPROSNP"
_FILE_PATTERN = re.compile(r"^snapshot-(\d{8})\.snap$")

PathLike = Union[str, pathlib.Path]

class SnapshotError(RuntimeError):
    """A snapshot could not be written, parsed, or validated."""


@dataclass(frozen=True)
class Snapshot:
    """One loaded snapshot: its path, format version, and sections."""

    path: pathlib.Path
    version: int
    meta: Dict[str, object]
    sections: Dict[str, object]


class SnapshotStore:
    """Versioned on-disk snapshot store with bounded retention.

    One directory holds a monotonically numbered sequence of
    ``snapshot-<seq>.snap`` files; :meth:`save` writes a new one
    crash-consistently and prunes everything older than the newest
    ``retain``, :meth:`load_latest` walks the sequence newest-first past
    any corrupt file.
    """

    def __init__(
        self,
        directory: PathLike,
        retain: int = 3,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.directory = pathlib.Path(directory)
        self.retain = retain
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(logger_name="checkpoint")
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        m = self.telemetry.metrics
        self._m_snapshots = m.counter(
            "repro_checkpoint_snapshots_total",
            "Snapshots written, by trigger (build / refresh / manual).",
            labelnames=("trigger",),
        )
        self._m_bytes = m.gauge(
            "repro_checkpoint_bytes",
            "Size of the most recently written snapshot file.",
        )
        self._m_duration = m.histogram(
            "repro_checkpoint_duration_seconds",
            "Wall-clock duration of one snapshot write.",
        )
        self._m_corrupt = m.counter(
            "repro_checkpoint_corrupt_total",
            "Snapshots rejected at load time (CRC / schema / truncation).",
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def save(
        self,
        sections: Dict[str, object],
        meta: Optional[Dict[str, object]] = None,
        trigger: str = "manual",
    ) -> pathlib.Path:
        """Serialize ``sections`` into the next snapshot file.

        ``meta`` must be JSON-safe (it lands in the plain-text header so
        a snapshot can be identified without unpickling anything);
        ``sections`` values are pickled.  Returns the written path.
        """
        started = self.telemetry.clock()
        index: List[Dict[str, object]] = []
        payloads: List[bytes] = []
        offset = 0
        for name in sections:
            blob = pickle.dumps(sections[name], protocol=4)
            index.append(
                {
                    "name": name,
                    "offset": offset,
                    "length": len(blob),
                    "crc32": zlib.crc32(blob) & 0xFFFFFFFF,
                }
            )
            payloads.append(blob)
            offset += len(blob)
        header = json.dumps(
            {
                "schema": SNAPSHOT_SCHEMA,
                "version": SNAPSHOT_VERSION,
                "meta": dict(meta or {}),
                "sections": index,
            },
            sort_keys=True,
        ).encode("utf-8")
        blob = b"".join(
            [_MAGIC, struct.pack(">Q", len(header)), header, *payloads]
        )
        seq = self._next_seq()
        path = self.directory / f"snapshot-{seq:08d}.snap"
        write_atomic(path, blob)
        self._prune()
        self._m_snapshots.inc(trigger=trigger)
        self._m_bytes.set(float(len(blob)))
        self._m_duration.observe(max(0.0, self.telemetry.clock() - started))
        return path

    def _next_seq(self) -> int:
        existing = [seq for seq, __ in self._listed()]
        return (max(existing) + 1) if existing else 1

    def _listed(self) -> List[Tuple[int, pathlib.Path]]:
        """``(seq, path)`` pairs of every snapshot file, oldest first."""
        out: List[Tuple[int, pathlib.Path]] = []
        for path in self.directory.iterdir():
            match = _FILE_PATTERN.match(path.name)
            if match:
                out.append((int(match.group(1)), path))
        out.sort()
        return out

    def snapshots(self) -> List[pathlib.Path]:
        """Snapshot paths on disk, oldest first."""
        return [path for __, path in self._listed()]

    def _prune(self) -> None:
        listed = self._listed()
        for __, path in listed[: max(0, len(listed) - self.retain)]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleaner
                pass

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def load(self, path: PathLike) -> Snapshot:
        """Parse and validate one snapshot file (raises :class:`SnapshotError`)."""
        path = pathlib.Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        if len(raw) < len(_MAGIC) + 8 or not raw.startswith(_MAGIC):
            raise SnapshotError(f"{path.name}: bad magic (not a repro snapshot)")
        (header_len,) = struct.unpack(
            ">Q", raw[len(_MAGIC) : len(_MAGIC) + 8]
        )
        body_start = len(_MAGIC) + 8 + header_len
        if body_start > len(raw):
            raise SnapshotError(f"{path.name}: truncated header")
        try:
            header = json.loads(raw[len(_MAGIC) + 8 : body_start].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"{path.name}: unparseable header: {exc}") from exc
        if header.get("schema") != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"{path.name}: foreign schema {header.get('schema')!r} "
                f"(expected {SNAPSHOT_SCHEMA!r})"
            )
        version = int(header.get("version", 0))
        if version != SNAPSHOT_VERSION:
            age = "newer" if version > SNAPSHOT_VERSION else "older"
            raise SnapshotError(
                f"{path.name}: snapshot version {version} is {age} than the "
                f"one this build reads ({SNAPSHOT_VERSION})"
            )
        sections: Dict[str, object] = {}
        for entry in header.get("sections", []):
            start = body_start + int(entry["offset"])
            end = start + int(entry["length"])
            if end > len(raw):
                raise SnapshotError(
                    f"{path.name}: truncated section {entry['name']!r}"
                )
            blob = raw[start:end]
            if (zlib.crc32(blob) & 0xFFFFFFFF) != int(entry["crc32"]):
                raise SnapshotError(
                    f"{path.name}: CRC mismatch in section {entry['name']!r}"
                )
            try:
                sections[str(entry["name"])] = pickle.loads(blob)
            except (
                pickle.UnpicklingError,
                AttributeError,
                ImportError,
                IndexError,
                EOFError,
                TypeError,
                ValueError,
            ) as exc:
                raise SnapshotError(
                    f"{path.name}: unpicklable section {entry['name']!r}: {exc}"
                ) from exc
        return Snapshot(
            path=path,
            version=version,
            meta=dict(header.get("meta", {})),
            sections=sections,
        )

    def load_latest(self) -> Optional[Snapshot]:
        """Newest valid snapshot, or ``None`` when no snapshot survives.

        Corrupt files (torn writes, CRC mismatches, foreign schemas)
        never raise: each one logs a structured WARNING, bumps
        ``repro_checkpoint_corrupt_total``, and the walk falls back to
        the next-newest file.
        """
        for __, path in reversed(self._listed()):
            try:
                return self.load(path)
            except SnapshotError as exc:
                self._m_corrupt.inc()
                self.telemetry.warning(
                    f"corrupt snapshot skipped: {exc}",
                    snapshot=path.name,
                    error=str(exc),
                )
        return None

    def latest_age_seconds(self) -> Optional[float]:
        """Age of the newest snapshot file (wall clock vs. mtime)."""
        listed = self._listed()
        if not listed:
            return None
        __, path = listed[-1]
        try:
            return max(0.0, time.time() - path.stat().st_mtime)
        except OSError:  # pragma: no cover - racing cleaner
            return None


# ----------------------------------------------------------------------
# pipeline wiring
# ----------------------------------------------------------------------
@dataclass
class CheckpointManager:
    """Periodic snapshotting policy bound to one pipeline.

    Built by :class:`~repro.core.pipeline.HierarchicalDetectionPipeline`
    when ``PipelineConfig.checkpoint_dir`` is set: one snapshot after the
    cold build, then one after every ``every``-th ``refresh()``.
    ``post_snapshot_hooks`` run after each completed snapshot write — the
    chaos harness uses them to SIGKILL the process at seeded snapshot
    boundaries (see :func:`repro.plant.chaos.kill_after_snapshots`).
    """

    pipeline: object
    store: SnapshotStore
    every: int = 1
    extra_meta: Dict[str, object] = field(default_factory=dict)
    stream_monitor: Optional[object] = None
    post_snapshot_hooks: List[Callable[[pathlib.Path], None]] = field(
        default_factory=list
    )
    _refreshes_since: int = field(default=0, init=False)

    def add_post_snapshot_hook(
        self, hook: Callable[[pathlib.Path], None]
    ) -> None:
        self.post_snapshot_hooks.append(hook)

    def snapshot(self, trigger: str = "manual") -> pathlib.Path:
        """Write one snapshot of the pipeline's current state now."""
        from .pipeline import HierarchicalDetectionPipeline

        pipeline = cast(HierarchicalDetectionPipeline, self.pipeline)
        context = pipeline.context
        watermark = context._snapshot_watermark()
        sections: Dict[str, object] = {
            "meta": {
                "config": pipeline.config,
                "watermark": watermark,
                "extra": dict(self.extra_meta),
            },
            **context._snapshot_sections(),
            "health": context.health.as_dict(),
        }
        if self.stream_monitor is not None:
            stream_state = cast(
                Callable[[], Dict[str, object]],
                getattr(self.stream_monitor, "state_dict"),
            )
            sections["stream"] = stream_state()
        path = self.store.save(
            sections,
            meta={
                "trigger": trigger,
                "n_jobs": len(watermark),
                "executor": pipeline.config.executor,
            },
            trigger=trigger,
        )
        for hook in list(self.post_snapshot_hooks):
            hook(path)
        return path

    def after_refresh(self) -> Optional[pathlib.Path]:
        """Count one refresh; snapshot when the period elapses."""
        self._refreshes_since += 1
        if self._refreshes_since < self.every:
            return None
        self._refreshes_since = 0
        return self.snapshot(trigger="refresh")


def resume_pipeline(
    dataset: object,
    checkpoint_dir: PathLike,
    selector: Optional[object] = None,
    telemetry: Optional[Telemetry] = None,
    stream_monitor: Optional[object] = None,
    replay: bool = True,
) -> Tuple[object, List[Dict[str, object]], Snapshot]:
    """Warm-restart a pipeline from the newest valid snapshot.

    ``dataset`` is the *full* plant (the caller reloads or re-simulates
    it); the snapshot's watermark partitions it into the already-scored
    base and the tail of jobs the kill interrupted.  The context is
    rebuilt from the snapshot's task outputs — no detector re-runs — and
    with ``replay=True`` the tail is re-ingested job by job through
    ``ingest_job`` in global start order.  Returns ``(pipeline,
    replay_summaries, snapshot)``.

    The restored run continues under the snapshot's own
    :class:`~repro.core.pipeline.PipelineConfig` (including its
    ``checkpoint_dir``, so periodic snapshotting resumes seamlessly);
    reports, health, and stats after the replay are byte-identical to an
    uninterrupted run of the same workload.
    """
    from ..plant import PlantDataset
    from .pipeline import HierarchicalDetectionPipeline

    telemetry_bundle = telemetry
    store = SnapshotStore(checkpoint_dir, telemetry=telemetry_bundle)
    snapshot = store.load_latest()
    if snapshot is None:
        raise SnapshotError(
            f"no usable snapshot under {pathlib.Path(checkpoint_dir)}"
        )
    meta = cast(Dict[str, object], snapshot.sections["meta"])
    config = meta["config"]
    watermark = cast(List[Tuple[str, int]], meta["watermark"])
    plant = cast(PlantDataset, dataset)
    base, arrivals = plant.split_at_watermark(
        [(machine_id, job_index) for machine_id, job_index in watermark]
    )
    pipeline = HierarchicalDetectionPipeline._resumed(
        base,
        snapshot.sections,
        selector=selector,
        config=config,
        telemetry=telemetry_bundle,
    )
    manager = pipeline.checkpoint
    if manager is not None:
        manager.extra_meta = dict(
            cast(Dict[str, object], meta.get("extra", {}))
        )
    if stream_monitor is not None and "stream" in snapshot.sections:
        load_stream = cast(
            Callable[[Dict[str, object]], object],
            getattr(stream_monitor, "load_state_dict"),
        )
        load_stream(cast(Dict[str, object], snapshot.sections["stream"]))
        if manager is not None:
            manager.stream_monitor = stream_monitor
    registry = pipeline.telemetry.metrics
    registry.gauge(
        "repro_checkpoint_resume_tail_jobs",
        "Jobs past the watermark replayed by the last resume.",
    ).set(float(len(arrivals)))
    age = store.latest_age_seconds()
    if age is not None:
        registry.gauge(
            "repro_checkpoint_age_seconds",
            "Age of the snapshot the last resume restored from.",
        ).set(age)
    summaries: List[Dict[str, object]] = []
    if replay:
        for machine_id, job in arrivals:
            summaries.append(pipeline.ingest_job(machine_id, job))
    return pipeline, summaries, snapshot
