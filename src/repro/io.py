"""Persistence: save and load plant datasets and report lists.

A downstream user wants to simulate once and analyze many times, or ship a
dataset to a colleague.  Plant datasets round-trip through a single
compressed ``.npz`` archive; reports export to JSON for dashboards.

Plant archive format 2 has exactly two members:

* ``__manifest__`` — UTF-8 JSON (uint8 bytes): structure, setup, CAQ,
  ground truth and, per series, its ``"span": [offset, length]``;
* ``__values__`` — every series and environment array, concatenated into
  one 1-D float64 array in manifest order.

:func:`load_plant` decompresses ``__values__`` once and hands each series
a view of its span; the writer never lets two spans overlap.  One member
instead of one per series is what makes loading cheap: each npz member
costs a zip open plus a parse of its npy header.  Format 1 (one member
per series) is rejected with a :class:`ValueError` — re-save such an
archive with ``repro simulate`` or :func:`save_plant`.
"""

from __future__ import annotations

import io
import json
import pathlib
from typing import Dict, List, Tuple

import numpy as np

from .atomic import write_atomic
from .core import HierarchicalOutlierReport, RunHealth
from .plant import (
    CAQResult,
    FaultEvent,
    FaultKind,
    JobRecord,
    LineRecord,
    MachineRecord,
    PhaseRecord,
    PlantDataset,
    SensorChannel,
    SensorSpec,
)
from .synthetic import OutlierType
from .timeseries import DiscreteSequence, TimeSeries

__all__ = [
    "save_plant",
    "load_plant",
    "reports_to_json",
    "reports_to_rows",
    "health_to_dict",
    "write_atomic",
]

_FORMAT_VERSION = 2


def _fault_to_dict(fault: FaultEvent) -> Dict:
    return {
        "kind": fault.kind.value,
        "machine_id": fault.machine_id,
        "job_index": fault.job_index,
        "phase_name": fault.phase_name,
        "redundancy_group": fault.redundancy_group,
        "sensor_id": fault.sensor_id,
        "onset": fault.onset,
        "outlier_type": fault.outlier_type.value if fault.outlier_type else None,
        "magnitude": fault.magnitude,
    }


def _fault_from_dict(d: Dict) -> FaultEvent:
    return FaultEvent(
        kind=FaultKind(d["kind"]),
        machine_id=d["machine_id"],
        job_index=d["job_index"],
        phase_name=d["phase_name"],
        redundancy_group=d["redundancy_group"],
        sensor_id=d["sensor_id"],
        onset=d["onset"],
        outlier_type=OutlierType(d["outlier_type"]) if d["outlier_type"] else None,
        magnitude=d["magnitude"],
    )


def save_plant(dataset: PlantDataset, path) -> pathlib.Path:
    """Serialize a plant dataset to one ``.npz`` archive (format 2).

    A ``path`` without the ``.npz`` suffix gets it appended; the path
    actually written is returned.
    """
    path = pathlib.Path(path)
    chunks: List[np.ndarray] = []
    n_values = 0

    def span(values: np.ndarray) -> List[int]:
        nonlocal n_values
        chunks.append(values)
        n_values += len(values)
        return [n_values - len(values), len(values)]

    manifest: Dict = {
        "format_version": _FORMAT_VERSION,
        "setup_keys": list(dataset.setup_keys),
        "caq_keys": list(dataset.caq_keys),
        "faults": [_fault_to_dict(f) for f in dataset.faults],
        "lines": [],
    }
    for line in dataset.lines:
        line_entry: Dict = {"line_id": line.line_id, "machines": [], "environment": []}
        for kind, series in sorted(line.environment.items()):
            line_entry["environment"].append(
                {"kind": kind, "span": span(series.values), "start": series.start,
                 "step": series.step, "name": series.name, "unit": series.unit}
            )
        for machine in line.machines:
            machine_entry: Dict = {
                "machine_id": machine.machine_id,
                "channels": [
                    {
                        "sensor_id": ch.sensor_id,
                        "kind": ch.spec.kind,
                        "unit": ch.spec.unit,
                        "redundancy_group": ch.spec.redundancy_group,
                        "noise_sigma": ch.spec.noise_sigma,
                        "step": ch.spec.step,
                    }
                    for ch in machine.channels
                ],
                "jobs": [],
            }
            for job in machine.jobs:
                job_entry: Dict = {
                    "job_index": job.job_index,
                    "start": job.start,
                    "setup": job.setup,
                    "caq": {
                        "measurements": job.caq.measurements,
                        "passed": job.caq.passed,
                    },
                    "phases": [],
                }
                for phase in job.phases:
                    phase_entry: Dict = {
                        "name": phase.name,
                        "start": phase.start,
                        "events": list(phase.events.symbols),
                        "event_alphabet": list(phase.events.alphabet),
                        "series": [],
                    }
                    for sensor_id, series in sorted(phase.series.items()):
                        phase_entry["series"].append(
                            {"sensor_id": sensor_id, "span": span(series.values),
                             "start": series.start, "step": series.step,
                             "unit": series.unit}
                        )
                    job_entry["phases"].append(phase_entry)
                machine_entry["jobs"].append(job_entry)
            line_entry["machines"].append(machine_entry)
        manifest["lines"].append(line_entry)
    if dataset.dirty_jobs():
        # ingested-but-unrefreshed jobs survive the round trip so a
        # restored pipeline can still refresh() exactly the right tail
        manifest["dirty_jobs"] = [
            [machine_id, job_index] for machine_id, job_index in dataset.dirty_jobs()
        ]
    target = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        __manifest__=np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8),
        __values__=np.concatenate(chunks) if chunks else np.empty(0),
    )
    write_atomic(target, buffer.getvalue())
    return target


def _read_members(path: pathlib.Path) -> Tuple[Dict, np.ndarray]:
    """The manifest and the value buffer of a format-2 archive, checked."""
    with np.load(path, allow_pickle=False) as archive:
        if "__manifest__" not in archive.files:
            raise ValueError("plant archive has no __manifest__ member")
        manifest = json.loads(bytes(archive["__manifest__"]).decode("utf-8"))
        version = manifest.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported plant archive format {version!r} (this version reads "
                f"format {_FORMAT_VERSION}); re-save it with `repro simulate` or save_plant"
            )
        if "__values__" not in archive.files:
            raise ValueError("plant archive has no __values__ member")
        values = archive["__values__"]
    if values.ndim != 1 or values.dtype != np.float64:
        raise ValueError(
            f"plant archive __values__ must be 1-D float64, got "
            f"{values.ndim}-D {values.dtype}"
        )
    return manifest, values


def load_plant(path) -> PlantDataset:
    """Load a plant dataset saved with :func:`save_plant`.

    Raises :class:`ValueError` for an archive that is not format 2, lacks
    a member, or whose manifest points outside ``__values__``.
    """
    manifest, values = _read_members(pathlib.Path(path))

    def take(entry: Dict) -> np.ndarray:
        # a slice past the end silently comes back short, so check here
        offset, length = entry["span"]
        if offset < 0 or length < 0 or offset + length > len(values):
            raise ValueError(
                f"plant archive span {entry['span']} is not within __values__ "
                f"of length {len(values)}"
            )
        return values[offset : offset + length]

    lines: List[LineRecord] = []
    for line_entry in manifest["lines"]:
        environment = {}
        for env in line_entry["environment"]:
            environment[env["kind"]] = TimeSeries(
                take(env), start=env["start"], step=env["step"],
                name=env["name"], unit=env["unit"],
            )
        machines: List[MachineRecord] = []
        for machine_entry in line_entry["machines"]:
            channels = [
                SensorChannel(
                    sensor_id=c["sensor_id"],
                    machine_id=machine_entry["machine_id"],
                    spec=SensorSpec(
                        kind=c["kind"], unit=c["unit"],
                        redundancy_group=c["redundancy_group"],
                        noise_sigma=c["noise_sigma"], step=c["step"],
                    ),
                )
                for c in machine_entry["channels"]
            ]
            machine = MachineRecord(
                machine_id=machine_entry["machine_id"],
                line_id=line_entry["line_id"],
                channels=channels,
            )
            for job_entry in machine_entry["jobs"]:
                phases: List[PhaseRecord] = []
                for phase_entry in job_entry["phases"]:
                    series = {
                        s["sensor_id"]: TimeSeries(
                            take(s), start=s["start"],
                            step=s["step"], name=s["sensor_id"],
                            unit=s["unit"],
                        )
                        for s in phase_entry["series"]
                    }
                    phases.append(
                        PhaseRecord(
                            name=phase_entry["name"],
                            job_index=job_entry["job_index"],
                            machine_id=machine.machine_id,
                            start=phase_entry["start"],
                            series=series,
                            events=DiscreteSequence(
                                tuple(phase_entry["events"]),
                                alphabet=tuple(phase_entry["event_alphabet"]),
                            ),
                        )
                    )
                machine.jobs.append(
                    JobRecord(
                        job_index=job_entry["job_index"],
                        machine_id=machine.machine_id,
                        start=job_entry["start"],
                        setup=dict(job_entry["setup"]),
                        phases=phases,
                        caq=CAQResult(
                            measurements=dict(job_entry["caq"]["measurements"]),
                            passed=job_entry["caq"]["passed"],
                        ),
                    )
                )
            machines.append(machine)
        lines.append(LineRecord(line_entry["line_id"], machines, environment))
    dataset = PlantDataset(
        lines=lines,
        faults=[_fault_from_dict(f) for f in manifest["faults"]],
        setup_keys=tuple(manifest["setup_keys"]),
        caq_keys=tuple(manifest["caq_keys"]),
    )
    for machine_id, job_index in manifest.get("dirty_jobs", []):
        dataset._dirty_jobs.append((machine_id, int(job_index)))
    return dataset


def reports_to_rows(reports: List[HierarchicalOutlierReport]) -> List[Dict]:
    """Flatten reports into dashboard-friendly, JSON-safe dicts."""
    rows = []
    for r in reports:
        c = r.candidate
        rows.append(
            {
                "location": c.location,
                "level": int(c.level),
                "machine_id": c.machine_id,
                "job_index": None if c.job_index is None else int(c.job_index),
                "phase_name": c.phase_name,
                "sensor_id": c.sensor_id,
                "index": None if c.index is None else int(c.index),
                "global_score": int(r.global_score),
                "outlierness": float(r.outlierness),
                "support": float(r.support),
                "n_corresponding": int(r.n_corresponding),
                "supporters": list(r.supporters),
                "fused_score": float(r.fused_score),
                "measurement_warning": bool(r.measurement_warning),
                "confirmations": [
                    {
                        "level": int(conf.level),
                        "detected": bool(conf.detected),
                        "outlierness": float(conf.outlierness),
                    }
                    for conf in r.confirmations
                ],
            }
        )
    return rows


def health_to_dict(health: RunHealth) -> Dict:
    """JSON-safe form of a pipeline :class:`~repro.core.RunHealth` record."""
    return health.as_dict()


def reports_to_json(
    reports: List[HierarchicalOutlierReport],
    path=None,
    health: RunHealth = None,
    stats: Dict = None,
) -> str:
    """Serialize reports to JSON (optionally writing to ``path``).

    Passing the run's :class:`~repro.core.RunHealth` and/or the
    pipeline's nested ``stats()`` dict embeds a ``telemetry`` section
    (``telemetry.run_health`` and ``telemetry.stats``), so a dashboard
    consuming the export can tell a pristine run from one that survived
    on fallbacks and quarantines — and see the confirmation/support
    cache counters that earlier exports silently dropped.
    """
    doc: Dict = {"reports": reports_to_rows(reports)}
    telemetry: Dict = {}
    if health is not None:
        telemetry["run_health"] = health_to_dict(health)
    if stats is not None:
        telemetry["stats"] = stats
    if telemetry:
        doc["telemetry"] = telemetry
    payload = json.dumps(doc, indent=2)
    if path is not None:
        write_atomic(pathlib.Path(path), payload)
    return payload
