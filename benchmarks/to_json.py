"""Collect benchmark text reports into machine-readable JSON.

The benchmarks under this directory each write one human-readable table
to ``benchmarks/out/<name>.txt`` (see ``conftest.py``); those tables
feed EXPERIMENTS.md but are opaque to tooling.  This collector re-emits
every text report — plus a parsed form of the parallel-speedup table —
as ``benchmarks/out/BENCH_parallel.json``, so the perf trajectory is
trackable across PRs (CI uploads the file as an artifact).  When the
incremental-ingest bench has run, its table is parsed the same way and
written separately as ``benchmarks/out/BENCH_incremental.json``.

Every emitted document is stamped with run metadata (git SHA, CPU
count, a hostname hash, a UTC timestamp, and the schema version) so two
``BENCH_*.json`` files from different PRs can be compared with
``repro perf diff``; an aggregating ``BENCH_index.json`` lists every
artifact written by the run together with its flattened headline
metrics.

Usage::

    python benchmarks/to_json.py [--out PATH] [--incremental-out PATH]
                                 [--checkpoint-out PATH] [--index-out PATH]

Exits non-zero when no benchmark output exists yet (run the benches
first: ``PYTHONPATH=src python -m pytest benchmarks/``).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import socket
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.atomic import write_atomic  # noqa: E402
from repro.obs import extract_perf_metrics  # noqa: E402

OUT_DIR = pathlib.Path(__file__).parent / "out"
DEFAULT_TARGET = OUT_DIR / "BENCH_parallel.json"
DEFAULT_INCREMENTAL_TARGET = OUT_DIR / "BENCH_incremental.json"
DEFAULT_CHECKPOINT_TARGET = OUT_DIR / "BENCH_checkpoint.json"
DEFAULT_INDEX_TARGET = OUT_DIR / "BENCH_index.json"

#: Schema tag of stamped per-bench documents.  /1 documents (no ``meta``
#: block) remain readable by ``repro perf diff``.
BENCH_SCHEMA = "repro.bench/2"

#: Schema tag of the aggregating index document.
INDEX_SCHEMA = "repro.bench-index/1"


def _git_sha() -> str:
    """The checkout's commit SHA, or ``"unknown"`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_metadata() -> dict:
    """The provenance block stamped into every emitted document.

    The hostname is hashed, not recorded: enough to tell two runners
    apart in a diff without leaking machine names into committed
    baselines.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux: no affinity API
        cpus = os.cpu_count() or 1
    return {
        "git_sha": _git_sha(),
        "cpu_count": cpus,
        "hostname_hash": hashlib.sha256(
            socket.gethostname().encode("utf-8")
        ).hexdigest()[:12],
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "schema_version": BENCH_SCHEMA,
    }

#: Columns of the parallel_speedup.txt table, in order.
_SPEEDUP_COLUMNS = (
    "executor", "workers", "tasks", "wall_s", "speedup", "vs_serial"
)


def parse_speedup_table(text: str) -> dict:
    """Parse ``parallel_speedup.txt`` into per-executor rows.

    Returns ``{"rows": [{executor, workers, tasks, wall_s, speedup,
    vs_serial}], "identical_reports": bool, "transport": dict | None}``;
    tolerant of the header and trailing prose lines.
    """
    rows = []
    identical = None
    transport = None
    for line in text.splitlines():
        parts = line.split()
        if line.startswith("process transport:"):
            fields = dict(
                pair.split("=", 1)
                for pair in line.split(":", 1)[1].split()
                if "=" in pair
            )
            transport = {
                "bytes_pickled": int(fields.get("bytes_pickled", 0)),
                "bytes_shared": int(fields.get("bytes_shared", 0)),
                "encode_s": float(fields.get("encode_s", 0.0)),
                "decode_s": float(fields.get("decode_s", 0.0)),
            }
        elif len(parts) == len(_SPEEDUP_COLUMNS) and parts[0] in ("serial", "process"):
            rows.append(
                {
                    "executor": parts[0],
                    "workers": int(parts[1]),
                    "tasks": int(parts[2]),
                    "wall_s": float(parts[3]),
                    "speedup": float(parts[4]),
                    "vs_serial": float(parts[5]),
                }
            )
        elif line.startswith("reports byte-identical"):
            identical = line.rsplit(":", 1)[1].strip() == "True"
    return {"rows": rows, "identical_reports": identical, "transport": transport}


#: Columns of the detector_batch.txt table, in order.
_DETECTOR_BATCH_COLUMNS = ("detector", "family", "scalar_ms", "batch_ms", "speedup")


def parse_detector_batch_table(text: str) -> dict:
    """Parse ``detector_batch.txt`` into per-detector rows.

    Returns ``{"rows": [{detector, family, scalar_ms, batch_ms,
    speedup}], "max_abs_delta": float | None}``; tolerant of the header
    and trailing prose lines.
    """
    rows = []
    max_delta = None
    for line in text.splitlines():
        parts = line.split()
        if (
            len(parts) == len(_DETECTOR_BATCH_COLUMNS)
            and not line.startswith("detector")
            and all(p.replace(".", "", 1).isdigit() for p in parts[2:])
        ):
            rows.append(
                {
                    "detector": parts[0],
                    "family": parts[1],
                    "scalar_ms": float(parts[2]),
                    "batch_ms": float(parts[3]),
                    "speedup": float(parts[4]),
                }
            )
        elif line.startswith("max |batched - scalar|"):
            max_delta = float(line.rsplit(":", 1)[1])
    return {"rows": rows, "max_abs_delta": max_delta}


#: Columns of the incremental.txt table, in order.
_INCREMENTAL_COLUMNS = ("lines", "machines", "ingests", "p50_ms", "p99_ms", "cold_s")


def parse_incremental_table(text: str) -> dict:
    """Parse ``incremental.txt`` into per-plant-size rows.

    Returns ``{"rows": [{lines, machines, ingests, p50_ms, p99_ms,
    cold_s}], "identical_reports": bool, "p50_ratio": float}``; tolerant
    of the header and trailing prose lines.
    """
    rows = []
    identical = None
    ratio = None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == len(_INCREMENTAL_COLUMNS) and all(
            p.replace(".", "", 1).isdigit() for p in parts
        ):
            rows.append(
                {
                    "lines": int(parts[0]),
                    "machines": int(parts[1]),
                    "ingests": int(parts[2]),
                    "p50_ms": float(parts[3]),
                    "p99_ms": float(parts[4]),
                    "cold_s": float(parts[5]),
                }
            )
        elif line.startswith("reports byte-identical"):
            identical = line.rsplit(":", 1)[1].strip() == "True"
        elif line.startswith("p50 ratio"):
            ratio = float(line.rsplit(":", 1)[1])
    return {"rows": rows, "identical_reports": identical, "p50_ratio": ratio}


#: Columns of the checkpoint.txt table, in order.
_CHECKPOINT_COLUMNS = (
    "lines", "machines", "jobs", "cold_s", "snapshot_ms", "resume_ms",
    "snapshot_kb", "tail",
)


def parse_checkpoint_table(text: str) -> dict:
    """Parse ``checkpoint.txt`` into per-plant-size rows.

    Returns ``{"rows": [{lines, machines, jobs, cold_s, snapshot_ms,
    resume_ms, snapshot_kb, tail}], "identical_reports": bool,
    "resume_ratio": float}``; tolerant of the header and trailing prose
    lines.
    """
    rows = []
    identical = None
    ratio = None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == len(_CHECKPOINT_COLUMNS) and all(
            p.replace(".", "", 1).isdigit() for p in parts
        ):
            rows.append(
                {
                    "lines": int(parts[0]),
                    "machines": int(parts[1]),
                    "jobs": int(parts[2]),
                    "cold_s": float(parts[3]),
                    "snapshot_ms": float(parts[4]),
                    "resume_ms": float(parts[5]),
                    "snapshot_kb": float(parts[6]),
                    "tail": int(parts[7]),
                }
            )
        elif line.startswith("reports byte-identical"):
            identical = line.rsplit(":", 1)[1].strip() == "True"
        elif line.startswith("resume ratio"):
            ratio = float(line.rsplit(":", 1)[1])
    return {"rows": rows, "identical_reports": identical, "resume_ratio": ratio}


def collect(out_dir: pathlib.Path = OUT_DIR, meta: dict | None = None) -> dict:
    """Bundle every ``*.txt`` bench report, parsing the known tables."""
    reports = sorted(out_dir.glob("*.txt"))
    doc: dict = {
        "schema": BENCH_SCHEMA,
        "meta": run_metadata() if meta is None else meta,
        "benches": {},
    }
    for path in reports:
        text = path.read_text().rstrip("\n")
        entry: dict = {"text": text}
        if path.stem == "parallel_speedup":
            entry["parsed"] = parse_speedup_table(text)
        elif path.stem == "incremental":
            entry["parsed"] = parse_incremental_table(text)
        elif path.stem == "checkpoint":
            entry["parsed"] = parse_checkpoint_table(text)
        elif path.stem == "detector_batch":
            entry["parsed"] = parse_detector_batch_table(text)
        doc["benches"][path.stem] = entry
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_TARGET,
        help=f"target JSON path (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--incremental-out", type=pathlib.Path,
        default=DEFAULT_INCREMENTAL_TARGET,
        help="target JSON path for the incremental-ingest bench "
        f"(default: {DEFAULT_INCREMENTAL_TARGET}; written only when "
        "the bench has run)",
    )
    parser.add_argument(
        "--checkpoint-out", type=pathlib.Path,
        default=DEFAULT_CHECKPOINT_TARGET,
        help="target JSON path for the checkpoint/resume bench "
        f"(default: {DEFAULT_CHECKPOINT_TARGET}; written only when "
        "the bench has run)",
    )
    parser.add_argument(
        "--index-out", type=pathlib.Path, default=DEFAULT_INDEX_TARGET,
        help="target JSON path for the aggregating artifact index "
        f"(default: {DEFAULT_INDEX_TARGET})",
    )
    args = parser.parse_args(argv)
    meta = run_metadata()
    doc = collect(meta=meta)
    if not doc["benches"]:
        print(
            "no benchmark output under benchmarks/out/ — run "
            "`PYTHONPATH=src python -m pytest benchmarks/` first",
            file=sys.stderr,
        )
        return 1
    written: dict = {}

    def emit(path: pathlib.Path, bench_doc: dict, note: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(bench_doc, indent=2) + "\n")
        written[path.name] = {
            "path": str(path),
            "benches": sorted(bench_doc["benches"]),
            "headline": extract_perf_metrics(bench_doc),
        }
        print(f"wrote {path} ({note})")

    emit(
        args.out,
        doc,
        f"{len(doc['benches'])} bench report(s)"
        + (
            ", parallel_speedup parsed"
            if "parallel_speedup" in doc["benches"]
            else ""
        ),
    )
    if "incremental" in doc["benches"]:
        emit(
            args.incremental_out,
            {
                "schema": BENCH_SCHEMA,
                "meta": meta,
                "benches": {"incremental": doc["benches"]["incremental"]},
            },
            "incremental parsed",
        )
    if "checkpoint" in doc["benches"]:
        emit(
            args.checkpoint_out,
            {
                "schema": BENCH_SCHEMA,
                "meta": meta,
                "benches": {"checkpoint": doc["benches"]["checkpoint"]},
            },
            "checkpoint parsed",
        )
    index = {"schema": INDEX_SCHEMA, "meta": meta, "artifacts": written}
    args.index_out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(args.index_out, json.dumps(index, indent=2) + "\n")
    print(f"wrote {args.index_out} ({len(written)} artifact(s) indexed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
