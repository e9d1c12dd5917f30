"""Data model of one simulated plant run.

The containers here mirror Fig. 2 exactly: phases nest in jobs, jobs run on
machines, machines sit on production lines, lines form the production, and
every line carries environment channels measured over the same period.
All signal payloads are :class:`~repro.timeseries.TimeSeries` /
:class:`~repro.timeseries.DiscreteSequence` values from the substrate.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..timeseries import DiscreteSequence, TimeSeries
from .config import SensorSpec
from .faults import FaultEvent, FaultKind

__all__ = [
    "SensorChannel",
    "PhaseRecord",
    "CAQResult",
    "JobRecord",
    "MachineRecord",
    "LineRecord",
    "PlantDataset",
]


@dataclass(frozen=True)
class SensorChannel:
    """One physical sensor: identity plus its spec."""

    sensor_id: str
    machine_id: str
    spec: SensorSpec

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def redundancy_group(self) -> str:
        return f"{self.machine_id}/{self.spec.redundancy_group}"


@dataclass
class PhaseRecord:
    """Phase level (Fig. 2, level 1): high-resolution multi-channel data."""

    name: str
    job_index: int
    machine_id: str
    start: float
    series: Dict[str, TimeSeries]  # sensor_id -> signal during this phase
    events: DiscreteSequence  # discrete value sequence (step codes)

    @property
    def duration(self) -> float:
        any_series = next(iter(self.series.values()))
        return any_series.duration


@dataclass(frozen=True)
class CAQResult:
    """Computer-aided quality check of one finished job (Fig. 2: =CAQ)."""

    measurements: Dict[str, float]
    passed: bool

    def vector(self, keys: Optional[Tuple[str, ...]] = None) -> np.ndarray:
        names = keys if keys is not None else tuple(sorted(self.measurements))
        return np.array([self.measurements[k] for k in names])

    @staticmethod
    def measurement_names() -> Tuple[str, ...]:
        return ("dimension_error_um", "porosity_pct", "surface_roughness_um",
                "tensile_mpa")


@dataclass
class JobRecord:
    """Job level (Fig. 2, level 2): setup → phases → CAQ."""

    job_index: int
    machine_id: str
    start: float
    setup: Dict[str, float]
    phases: List[PhaseRecord]
    caq: CAQResult

    @property
    def end(self) -> float:
        last = self.phases[-1]
        return last.start + last.duration

    def phase(self, name: str) -> PhaseRecord:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(f"job {self.job_index} on {self.machine_id} has no phase {name!r}")

    def setup_vector(self, keys: Optional[Tuple[str, ...]] = None) -> np.ndarray:
        names = keys if keys is not None else tuple(sorted(self.setup))
        return np.array([self.setup[k] for k in names])


@dataclass
class MachineRecord:
    """One machine with its sensor complement and job history."""

    machine_id: str
    line_id: str
    channels: List[SensorChannel]
    jobs: List[JobRecord] = field(default_factory=list)

    def redundancy_groups(self) -> Dict[str, List[SensorChannel]]:
        groups: Dict[str, List[SensorChannel]] = {}
        for ch in self.channels:
            groups.setdefault(ch.redundancy_group, []).append(ch)
        return groups

    def channel(self, sensor_id: str) -> SensorChannel:
        for ch in self.channels:
            if ch.sensor_id == sensor_id:
                return ch
        raise KeyError(f"machine {self.machine_id} has no sensor {sensor_id!r}")


@dataclass
class LineRecord:
    """Production-line level: machines plus room-environment channels."""

    line_id: str
    machines: List[MachineRecord]
    environment: Dict[str, TimeSeries]  # kind -> full-horizon series

    def machine(self, machine_id: str) -> MachineRecord:
        for m in self.machines:
            if m.machine_id == machine_id:
                return m
        raise KeyError(f"line {self.line_id} has no machine {machine_id!r}")


@dataclass
class PlantDataset:
    """One complete simulated production run, with ground truth.

    Accessors return exactly the per-level data views of Fig. 2:

    * :meth:`phase_series` — level 1, high-resolution signals;
    * :meth:`job_table` / setup+CAQ vectors — level 2;
    * :meth:`environment_series` — level 3;
    * :meth:`jobs_over_time` — level 4 (production line);
    * :meth:`production_panel` — level 5 (cross-machine).
    """

    lines: List[LineRecord]
    faults: List[FaultEvent]
    setup_keys: Tuple[str, ...]
    caq_keys: Tuple[str, ...]
    #: Jobs appended through :meth:`ingest_job` and not yet consumed by an
    #: incremental pipeline refresh, as ``(machine_id, job_index)`` pairs in
    #: arrival order.
    _dirty_jobs: List[Tuple[str, int]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Per job, its setup vector, CAQ vector and their concatenated row;
    #: per machine, its production-panel row.  Built on first use: no code
    #: writes to a job's ``setup`` or ``measurements`` after construction
    #: (repro-lint DET006), so a job's vectors never change.
    _job_vectors: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _panel_rows: Dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # ingest (the one sanctioned mutation path — repro-lint DET006)
    # ------------------------------------------------------------------
    def ingest_job(self, machine_id: str, job: JobRecord) -> JobRecord:
        """Append a newly arrived job and mark it dirty.

        This is the **only** sanctioned way to mutate a dataset's job
        history after construction (repro-lint rule DET006 rejects direct
        ``.jobs`` mutation outside the plant-construction modules): it
        files the job into the navigation index in place, drops its
        machine's production-panel row, and records the arrival in the
        dirty set that :meth:`consume_dirty` hands to the pipeline's
        incremental refresh, which re-scores only the touched subgraph.
        """
        machine = self.machine(machine_id)
        if job.machine_id != machine_id:
            raise ValueError(
                f"job is stamped machine_id={job.machine_id!r}, "
                f"cannot ingest into {machine_id!r}"
            )
        if any(existing.job_index == job.job_index for existing in machine.jobs):
            raise ValueError(
                f"machine {machine_id} already has job {job.job_index}"
            )
        machine.jobs.append(job)
        nav = self._nav()
        nav["job_by_key"][(machine_id, job.job_index)] = job
        # where a full rebuild's sort would put the span (spans are unique)
        insort(
            nav["intervals"][nav["line_of_machine"][machine_id].line_id],
            (job.start, job.end, machine_id, job.job_index),
        )
        self._panel_rows.pop(machine_id, None)
        self._dirty_jobs.append((machine_id, job.job_index))
        return job

    def dirty_jobs(self) -> List[Tuple[str, int]]:
        """Unconsumed ingested jobs as ``(machine_id, job_index)`` pairs."""
        return list(self._dirty_jobs)

    def consume_dirty(self) -> List[Tuple[str, int]]:
        """Return the pending dirty set and clear it (refresh handshake)."""
        out = list(self._dirty_jobs)
        self._dirty_jobs.clear()
        return out

    def split_tail(self, n: int = 1) -> Tuple["PlantDataset", List[Tuple[str, JobRecord]]]:
        """Split off each machine's last ``n`` jobs as a held-out arrival feed.

        Returns ``(base, arrivals)`` like :meth:`split_at_watermark`: ``base``
        is a new dataset whose machines carry everything but their final
        ``n`` jobs (all of them, on a machine with ``n`` or fewer), and
        ``arrivals`` lists the held-out ``(machine_id, job)`` pairs in
        global start order — the replay order a service would see them in.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        return self.split_at_watermark(
            (m.machine_id, j.job_index)
            for m in self.iter_machines()
            for j in m.jobs[: len(m.jobs) - min(n, len(m.jobs))]
        )

    def split_at_watermark(
        self, watermark: Iterable[Tuple[str, int]]
    ) -> Tuple["PlantDataset", List[Tuple[str, JobRecord]]]:
        """Partition at an explicit ingest watermark (checkpoint resume).

        ``watermark`` is the set of ``(machine_id, job_index)`` pairs a
        snapshot recorded as already scored.  Returns ``(base, arrivals)``:
        ``base`` is a new dataset whose machines carry the watermarked jobs
        (channel and environment payloads are shared, job lists are fresh),
        and ``arrivals`` lists every other ``(machine_id, job)`` pair in
        global start order — the tail a resumed pipeline must replay
        through ``ingest_job``.  Ground-truth ``faults`` are carried over
        verbatim (they may reference held-out jobs until those are
        re-ingested).  Raises ``ValueError`` when the watermark references
        jobs this dataset does not contain (the snapshot belongs to a
        different plant).
        """
        marked = {(machine_id, int(job_index)) for machine_id, job_index in watermark}
        present = {
            (m.machine_id, j.job_index) for m in self.iter_machines() for j in m.jobs
        }
        missing = marked - present
        if missing:
            raise ValueError(
                "watermark references jobs absent from this dataset: "
                f"{sorted(missing)[:5]}"
            )
        arrivals: List[Tuple[float, str, JobRecord]] = []
        base_lines: List[LineRecord] = []
        for line in self.lines:
            machines: List[MachineRecord] = []
            for m in line.machines:
                keep = [j for j in m.jobs if (m.machine_id, j.job_index) in marked]
                held = [j for j in m.jobs if (m.machine_id, j.job_index) not in marked]
                arrivals.extend((j.start, m.machine_id, j) for j in held)
                machines.append(
                    MachineRecord(
                        machine_id=m.machine_id,
                        line_id=m.line_id,
                        channels=m.channels,
                        jobs=keep,
                    )
                )
            base_lines.append(
                LineRecord(
                    line_id=line.line_id,
                    machines=machines,
                    environment=line.environment,
                )
            )
        base = PlantDataset(
            lines=base_lines,
            faults=list(self.faults),
            setup_keys=self.setup_keys,
            caq_keys=self.caq_keys,
        )
        arrivals.sort(key=lambda item: (item[0], item[1]))
        return base, [(machine_id, job) for __, machine_id, job in arrivals]

    # ------------------------------------------------------------------
    # navigation (O(1) via a lazily built index)
    # ------------------------------------------------------------------
    def _nav(self) -> Dict[str, Dict]:
        """Lazily built lookup tables: line/machine/job by id plus the
        per-line job interval index (sorted by start)."""
        cache = self.__dict__.get("_nav_cache")
        if cache is None:
            line_by_id: Dict[str, LineRecord] = {}
            line_of_machine: Dict[str, LineRecord] = {}
            machine_by_id: Dict[str, MachineRecord] = {}
            job_by_key: Dict[Tuple[str, int], JobRecord] = {}
            intervals: Dict[str, List[Tuple[float, float, str, int]]] = {}
            for line in self.lines:
                line_by_id[line.line_id] = line
                spans: List[Tuple[float, float, str, int]] = []
                for m in line.machines:
                    line_of_machine[m.machine_id] = line
                    machine_by_id[m.machine_id] = m
                    for j in m.jobs:
                        job_by_key[(m.machine_id, j.job_index)] = j
                        spans.append((j.start, j.end, m.machine_id, j.job_index))
                spans.sort()
                intervals[line.line_id] = spans
            cache = {
                "line_by_id": line_by_id,
                "line_of_machine": line_of_machine,
                "machine_by_id": machine_by_id,
                "job_by_key": job_by_key,
                "intervals": intervals,
            }
            self.__dict__["_nav_cache"] = cache
        return cache

    def iter_machines(self) -> Iterator[MachineRecord]:
        for line in self.lines:
            yield from line.machines

    def iter_jobs(self) -> Iterator[JobRecord]:
        for machine in self.iter_machines():
            yield from machine.jobs

    def line_of(self, machine_id: str) -> LineRecord:
        line = self._nav()["line_of_machine"].get(machine_id)
        if line is None:
            raise KeyError(f"no line contains machine {machine_id!r}")
        return line

    def machine(self, machine_id: str) -> MachineRecord:
        machine = self._nav()["machine_by_id"].get(machine_id)
        if machine is None:
            raise KeyError(f"no line contains machine {machine_id!r}")
        return machine

    def job(self, machine_id: str, job_index: int) -> JobRecord:
        self.machine(machine_id)  # raise the machine-level KeyError first
        job = self._nav()["job_by_key"].get((machine_id, job_index))
        if job is None:
            raise KeyError(f"machine {machine_id} has no job {job_index}")
        return job

    def find_job(self, machine_id: str, job_index: int) -> Optional[JobRecord]:
        """Like :meth:`job` but returns ``None`` for unknown keys.

        The explicit-membership twin of :meth:`job` for callers that treat
        a missing job as data (e.g. the pipeline's candidate timestamping,
        which surfaces the miss as a RunHealth warning instead of
        swallowing a :class:`KeyError`)."""
        return self._nav()["job_by_key"].get((machine_id, job_index))

    def job_intervals(self, line_id: str) -> List[Tuple[float, float, str, int]]:
        """``(start, end, machine_id, job_index)`` of every job on the line,
        sorted by start — the interval index behind windowed job lookups."""
        intervals = self._nav()["intervals"].get(line_id)
        if intervals is None:
            raise KeyError(f"no line {line_id!r}")
        return list(intervals)

    # ------------------------------------------------------------------
    # level views (Fig. 2)
    # ------------------------------------------------------------------
    def phase_series(self, machine_id: str, job_index: int,
                     phase_name: str) -> PhaseRecord:
        """Level 1: the multi-channel high-resolution view of one phase."""
        return self.job(machine_id, job_index).phase(phase_name)

    def _vectors(self, job: JobRecord) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The job's setup vector, CAQ vector and row (setup ++ CAQ), cached."""
        key = (job.machine_id, job.job_index)
        vectors = self._job_vectors.get(key)
        if vectors is None:
            setup = job.setup_vector(self.setup_keys)
            caq = job.caq.vector(self.caq_keys)
            vectors = self._job_vectors[key] = (setup, caq, np.concatenate([setup, caq]))
        return vectors

    def _rows(self, jobs: Iterable[JobRecord]) -> np.ndarray:
        """A fresh matrix of the jobs' rows (callers may write into it)."""
        rows = [self._vectors(j)[2] for j in jobs]
        return np.vstack(rows) if rows else np.empty(
            (0, len(self.setup_keys) + len(self.caq_keys))
        )

    def job_table(self, machine_id: Optional[str] = None) -> np.ndarray:
        """Level 2: per-job high-dimensional rows (setup ++ CAQ) of one
        machine, or of every machine's jobs in dataset order."""
        if machine_id is None:
            return self._rows(self.iter_jobs())
        return self._rows(self.machine(machine_id).jobs)

    def line(self, line_id: str) -> LineRecord:
        line = self._nav()["line_by_id"].get(line_id)
        if line is None:
            raise KeyError(f"no line {line_id!r}")
        return line

    def environment_series(self, line_id: str) -> Dict[str, TimeSeries]:
        """Level 3: room-environment channels over the same period."""
        return dict(self.line(line_id).environment)

    def jobs_over_time(self, line_id: str) -> Tuple[np.ndarray, List[Tuple[str, int]]]:
        """Level 4: the line's jobs in start order as a multivariate series.

        Returns the (n_jobs, n_features) matrix and the (machine, job)
        identity of every row.
        """
        line = self.line(line_id)
        jobs: List[Tuple[float, JobRecord]] = []
        for m in line.machines:
            jobs.extend((j.start, j) for j in m.jobs)
        jobs.sort(key=lambda pair: pair[0])
        identity = [(j.machine_id, j.job_index) for __, j in jobs]
        return self._rows(j for __, j in jobs), identity

    def production_panel(self) -> Tuple[np.ndarray, List[str]]:
        """Level 5: one KPI row per machine across the whole production.

        KPIs: mean/worst CAQ measurements, CAQ pass rate, and mean absolute
        setup deviation — the aggregated, lowest-resolution view.
        """
        rows = []
        ids = []
        for machine in self.iter_machines():
            row = self._panel_rows.get(machine.machine_id)
            if row is None:
                vectors = [self._vectors(j) for j in machine.jobs]
                caq = np.vstack([c for __, c, __ in vectors])
                setups = np.vstack([s for s, __, __ in vectors])
                setup_dev = np.abs(
                    (setups - setups.mean(axis=0)) / (setups.std(axis=0) + 1e-9)
                ).mean()
                pass_rate = float(np.mean([j.caq.passed for j in machine.jobs]))
                row = self._panel_rows[machine.machine_id] = np.concatenate(
                    [caq.mean(axis=0), caq.max(axis=0), [pass_rate, setup_dev]]
                )
            rows.append(row)
            ids.append(machine.machine_id)
        return (np.vstack(rows) if rows else np.empty((0, 0))), ids

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------
    def faults_of_kind(self, kind: FaultKind) -> List[FaultEvent]:
        return [f for f in self.faults if f.kind is kind]
