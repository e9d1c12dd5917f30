"""Pure-stdlib helpers of the benchmark: output comparison, ranking
quality, percentiles, span self time and ``-X importtime`` parsing.

Nothing here imports the program, so the orchestrator and the self-tests
can use it without paying for numpy or scipy.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tolerance for float outputs: ``|got - ref| <= ATOL + RTOL * |ref|``.
#: A last-bit substitution (e.g. a closed-form ``chi2.sf``, within 7e-16
#: absolute of scipy) passes; any real change in a score does not.
ATOL = 1e-9
RTOL = 1e-9

#: Report fields compared exactly, then fields compared within tolerance.
EXACT_REPORT_FIELDS = (
    "location",
    "level",
    "global_score",
    "n_corresponding",
    "supporters",
    "measurement_warning",
)
CLOSE_REPORT_FIELDS = ("outlierness", "support", "fused_score")


def report_fields(row: Dict) -> Dict:
    """The compared part of one ``reports_to_json`` row."""
    out = {name: row[name] for name in EXACT_REPORT_FIELDS + CLOSE_REPORT_FIELDS}
    out["confirmations"] = [
        [c["level"], c["detected"], c["outlierness"]] for c in row["confirmations"]
    ]
    return out


def event_fields(event) -> List:
    """The compared part of one ``StreamEvent``: channel, time, n_corresponding,
    score, support."""
    return [event.channel_id, event.time, event.n_corresponding, event.score,
            event.support]


def close(got: float, ref: float) -> bool:
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def compare_reports(got: Sequence[Dict], ref: Sequence[Dict]) -> Optional[str]:
    """First difference between two ranked report lists, or ``None``.

    Rank matters: a missing, extra or re-ranked report fails.
    """
    if len(got) != len(ref):
        return f"{len(got)} reports, expected {len(ref)}"
    for rank, (g, r) in enumerate(zip(got, ref)):
        for name in EXACT_REPORT_FIELDS:
            if g[name] != r[name]:
                return f"rank {rank}: {name} {g[name]!r} != {r[name]!r}"
        for name in CLOSE_REPORT_FIELDS:
            if not close(g[name], r[name]):
                return f"rank {rank}: {name} {g[name]!r} !~ {r[name]!r}"
        gc, rc = g["confirmations"], r["confirmations"]
        if [c[:2] for c in gc] != [c[:2] for c in rc]:
            return f"rank {rank}: confirmations {gc!r} != {rc!r}"
        for (__, __, go), (__, __, ro) in zip(gc, rc):
            if not close(go, ro):
                return f"rank {rank}: confirmation outlierness {go!r} !~ {ro!r}"
    return None


def compare_events(got: Sequence[Sequence], ref: Sequence[Sequence]) -> Optional[str]:
    """First difference between two stream-event lists, or ``None``."""
    if len(got) != len(ref):
        return f"{len(got)} events, expected {len(ref)}"
    for i, (g, r) in enumerate(zip(got, ref)):
        if list(g[:3]) != list(r[:3]):
            return f"event {i}: {g[:3]!r} != {r[:3]!r}"
        if not (close(g[3], r[3]) and close(g[4], r[4])):
            return f"event {i}: score/support {g[3:]!r} !~ {r[3:]!r}"
    return None


def average_precision(labels: Sequence[bool]) -> float:
    """AP of a ranked list: mean precision at each relevant rank."""
    hits = 0
    total = 0.0
    for rank, relevant in enumerate(labels, start=1):
        if relevant:
            hits += 1
            total += hits / rank
    return total / hits if hits else 0.0


def fault_ap(rows: Sequence[Dict], truth: Iterable[Sequence]) -> float:
    """AP of ranked reports against injected (machine, job, phase) faults."""
    keys = {tuple(t) for t in truth}
    return average_precision(
        [(r["machine_id"], r["job_index"], r["phase_name"]) in keys for r in rows]
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: ``q``% of the samples are at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = 10,
                    candidates: Sequence[int] = (99, 95, 90, 75)) -> Optional[int]:
    """Highest candidate percentile that leaves ``beyond`` samples above it."""
    for q in candidates:
        if n - max(1, math.ceil(q / 100.0 * n)) >= beyond:
            return q
    return None


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def covered(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover."""
    return (end - start) - covered(start, end, children)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")

#: Marker lines the traced processes write to stderr around the program's
#: import, so only that import is attributed.
IMPORT_BEGIN = "perfbench: import begin"
IMPORT_END = "perfbench: import end"


def parse_importtime(text: str) -> Dict[str, float]:
    """Self import time in ms per top-level package, between the markers."""
    inside = False
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith(IMPORT_BEGIN):
            inside = True
        elif line.startswith(IMPORT_END):
            break
        elif inside:
            m = _IMPORTTIME.match(line)
            if m:
                top = m.group(3).split(".")[0]
                out[top] = out.get(top, 0.0) + int(m.group(1)) / 1e3
    return out


def read_json(path):
    """Load JSON, gzip-compressed when the name ends in ``.gz``."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path, doc) -> None:
    """Write compact JSON; ``.gz`` names get a reproducible gzip stream."""
    data = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as raw:
        if str(path).endswith(".gz"):
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                gz.write(data)
        else:
            raw.write(data)
