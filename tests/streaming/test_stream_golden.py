"""Block-split golden for the streaming monitor.

``stream_reference.json`` holds what per-sample ``observe`` produced on a
seeded degraded stream: ten channels with a redundant group, NaN/inf
bursts, a channel born of garbage, a channel that only ever sends garbage,
a channel born mid-stream, a heartbeat stall that falls due during an
all-NaN outage and its recovery, a lagging channel, a channel whose clock
steps back, and jittered, out-of-order timestamps.  It is replayed by three
monitors: the default ``OnlineARDetector`` with a heartbeat and without one
(there a channel that is born later than a flag would count in that flag's
support divisor), and ``OnlineZScore`` with a heartbeat.  Every way of
cutting the stream into ``observe_block`` calls must reproduce the
reference exactly, and leave the same pickled ``state_dict()``.

The AR scores depend on which OpenBLAS kernel numpy's ``@`` dispatches to:
``ddot``/``dgemv`` round differently per CPU kernel, and the RLS recursion
amplifies the last bit until flags flip.  The reference therefore stores a
fingerprint of the kernel it was recorded on.  On another kernel only the
score-free outputs of the AR monitors (sample, skip and stall counts, stall
warnings, stalled channels, skip counts) are compared with it.  The
``OnlineZScore`` monitor makes no BLAS call, so its replays are compared
with the whole reference on every kernel: that pins the block bookkeeping
(flags, trims, stalls, support) to the recording everywhere.

Re-record (only when the monitor's output is meant to change)::

    PYTHONPATH=src python tests/streaming/test_stream_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import logging
import pathlib
import pickle
import sys

import numpy as np
import pytest

from repro.core import CorrespondenceGraph
from repro.streaming import OnlineZScore, StreamingSensorMonitor

REFERENCE = pathlib.Path(__file__).with_name("stream_reference.json")
SEED = 17
STEPS = 700
PATIENCE = 50.0
THRESHOLD = 4.5
REDUNDANT = ("r0", "r1", "r2")
STALL = (300, 380)  # channel "s" sends nothing in [300, 380)
GARBAGE_UNTIL = 120  # channel "g" sends only NaN before this step
LAG = 4.0  # channel "late" stamps its samples this far in the past
BORN_AT = 450  # channel "n", redundant with r1, sends nothing before this step
OUTAGE = (348, 352)  # every channel sends NaN: the stall of "s" falls due here
BACKWARD = 50  # channel "v" stamps steps 49, 99, ..., 699 before its last
#: kind -> (heartbeat_patience, detector_factory; None: OnlineARDetector)
MONITORS = {
    "heartbeat": (PATIENCE, None),
    "no_heartbeat": (None, None),
    "zscore": (PATIENCE, OnlineZScore),
}
#: kinds whose detectors make no BLAS call: exact on every kernel
KERNEL_FREE = ("zscore",)

METRICS = (
    "repro_stream_samples_total",
    "repro_stream_skipped_total",
    "repro_stream_events_total",
    "repro_stream_stalls_total",
)
#: outputs that no score feeds: equal on every BLAS kernel
SCORE_FREE = ("warnings", "stalled_channels", "skipped_counts")
SCORE_FREE_METRICS = (
    "repro_stream_samples_total",
    "repro_stream_skipped_total",
    "repro_stream_stalls_total",
)


def build_graph() -> CorrespondenceGraph:
    graph = CorrespondenceGraph()
    graph.add_correspondence("r0", "r1", relation="redundant")
    graph.add_correspondence("r0", "r2", relation="redundant")
    graph.add_correspondence("r1", "r2", relation="redundant")
    graph.add_correspondence("s", "v", relation="redundant")
    graph.add_correspondence("g", "p", relation="redundant")
    graph.add_correspondence("dead", "p", relation="redundant")
    graph.add_correspondence("late", "r0", relation="cross-level")
    graph.add_correspondence("n", "r1", relation="redundant")
    return graph


def build_stream(seed: int = SEED) -> list:
    """(channel, time, value) triples in arrival order."""
    rng = np.random.default_rng(seed)
    process = np.zeros(STEPS)
    for t in range(1, STEPS):
        process[t] = 0.7 * process[t - 1] + rng.normal(0, 0.5)
    process[[260, 450, 610]] += (6.0, -7.0, 6.5)  # process faults: r* agree
    series = {cid: process + rng.normal(0, 0.1, STEPS) for cid in REDUNDANT}
    for cid in ("p", "v", "s", "g", "late", "n"):
        x = np.zeros(STEPS)
        for t in range(1, STEPS):
            x[t] = 0.5 * x[t - 1] + rng.normal(0, 1.0)
        series[cid] = x
    series["r1"][520] += 9.0  # a sensor fault only r1 sees
    series["p"][330] -= 12.0
    series["g"][:GARBAGE_UNTIL] = np.nan
    for cid in ("r2", "p", "v"):  # NaN / inf bursts
        for start in rng.choice(STEPS - 20, 3, replace=False):
            burst = rng.choice([np.nan, np.inf, -np.inf], int(rng.integers(3, 12)))
            series[cid][start:start + len(burst)] = burst
    samples = []
    for t in range(STEPS):
        step = []
        for cid, x in series.items():
            if cid == "s" and STALL[0] <= t < STALL[1]:
                continue
            if cid == "n" and t < BORN_AT:
                continue
            time = float(t) + round(float(rng.uniform(0, 0.9)), 3)
            if cid == "late":
                time -= LAG
            if cid == "v" and t % BACKWARD == BACKWARD - 1:
                time -= 3.0
            value = float("nan") if OUTAGE[0] <= t < OUTAGE[1] else float(x[t])
            step.append((cid, time, value))
        if t % 3 == 0:
            step.append(("dead", float(t), float("nan")))
        order = rng.permutation(len(step))
        samples.extend(step[i] for i in order)
    return samples


def blas_fingerprint() -> str:
    """Digest of per-item ``ddot``/``dgemv`` results on fixed inputs: it
    tells which OpenBLAS kernel numpy dispatches to on this host."""
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(64, 4))
    matrices = rng.normal(size=(16, 4, 4))
    dots = [x @ y for x, y in zip(vectors[:32], vectors[32:])]
    gemvs = [m @ v for m, v in zip(matrices, vectors)]
    raw = b"".join(np.asarray(r).tobytes() for r in dots + gemvs)
    return hashlib.sha256(raw).hexdigest()[:16]


class _Warnings(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.records: list = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append([record.channel_id, repr(record.timestamp)])


def _event_rows(events) -> list:
    return [
        [e.channel_id, repr(e.time), repr(e.value), repr(e.score),
         repr(e.support), e.n_corresponding]
        for e in events
    ]


def _monitor_state(monitor) -> dict:
    """The monitor's own ``state_dict()`` entries (not its detectors')."""
    state = monitor.state_dict()
    return {
        "channels": {
            cid: [[repr(t) for t in entry["recent_flags"]],
                  repr(entry["last_seen"]), entry["n_skipped"]]
            for cid, entry in state["channels"].items()
        },
        "now": repr(state["now"]),
        "stall_due": repr(state["stall_due"]),
        "reported_stalled": state["reported_stalled"],
    }


def replay(samples, split, kind):
    """Feed ``samples`` per sample (``split=None``) or in blocks of ``split``
    to a ``kind`` monitor; returns it and its outputs as JSON-ready rows."""
    patience, factory = MONITORS[kind]
    monitor = StreamingSensorMonitor(
        build_graph(),
        detector_factory=factory,
        threshold=THRESHOLD,
        heartbeat_patience=patience,
    )
    handler = _Warnings()
    monitor.telemetry.logger.addHandler(handler)
    try:
        if split is None:
            returned = [
                e for e in (monitor.observe(*s) for s in samples) if e is not None
            ]
        else:
            returned = []
            for i in range(0, len(samples), split):
                returned.extend(monitor.observe_block(samples[i:i + split]))
    finally:
        monitor.telemetry.logger.removeHandler(handler)
    metrics = monitor.telemetry.metrics
    outputs = {
        "events": _event_rows(monitor.events),
        "returned": _event_rows(returned),
        "counters": {
            name: [[list(key), value] for key, value in metrics.get(name).samples()]
            for name in METRICS
        },
        "warnings": handler.records,
        "stalled_channels": monitor.stalled_channels(),
        "skipped_counts": monitor.skipped_counts(),
        "reconsider_support": _event_rows(monitor.reconsider_support()),
        "monitor_state": _monitor_state(monitor),
    }
    return monitor, outputs


@pytest.fixture(scope="module")
def samples():
    return build_stream()


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.fixture(scope="module", params=sorted(MONITORS))
def monitor_kind(request):
    return request.param


@pytest.fixture(scope="module")
def per_sample(samples, monitor_kind):
    _, outputs = replay(samples, None, monitor_kind)
    assert outputs["returned"] == outputs["events"]
    del outputs["returned"]
    return outputs


def test_reference_covers_the_degraded_cases(reference):
    recorded = reference["heartbeat"]
    channels = {row[0] for row in recorded["events"]}
    assert {"r0", "r1", "r2"} <= channels
    stalled = {row[0] for row in recorded["warnings"]}
    assert {"s", "g", "dead"} <= stalled  # stall, garbage birth, garbage only
    # the stall of "s" is raised by a NaN sample of the outage
    (stall_at,) = [float(ts) for cid, ts in recorded["warnings"] if cid == "s"]
    assert OUTAGE[0] <= stall_at < OUTAGE[1]
    assert recorded["stalled_channels"] == ["dead"]
    assert {"dead", "g", "p", "r2", "v"} <= set(recorded["skipped_counts"])
    assert any(row[5] and row[4] == repr(1.0) for row in recorded["events"])
    # without a heartbeat, r1's flags after "n" is born count it as a voter
    no_heartbeat = reference["no_heartbeat"]
    assert no_heartbeat["warnings"] == [] and no_heartbeat["stalled_channels"] == []
    r1 = [row for row in no_heartbeat["events"] if row[0] == "r1"]
    assert {row[5] for row in r1} == {2, 3}
    # the kernel-free monitor flags, supports and stalls too
    zscore = reference["zscore"]
    assert {"r0", "r1", "r2"} <= {row[0] for row in zscore["events"]}
    assert {"s", "g", "dead"} <= {row[0] for row in zscore["warnings"]}
    assert any(row[5] and row[4] == repr(1.0) for row in zscore["events"])


def test_stream_has_out_of_order_timestamps(samples):
    times = [t for _, t, _ in samples]
    assert sum(b < a for a, b in zip(times, times[1:])) > STEPS


def test_per_sample_observe_matches_the_reference(per_sample, reference, monitor_kind):
    recorded = reference[monitor_kind]
    if monitor_kind in KERNEL_FREE or reference["blas_fingerprint"] == blas_fingerprint():
        assert per_sample == recorded
    else:  # another BLAS kernel: AR scores differ in the last bits
        for key in SCORE_FREE:
            assert per_sample[key] == recorded[key]
        for name in SCORE_FREE_METRICS:
            assert per_sample["counters"][name] == recorded["counters"][name]


@pytest.mark.parametrize("split", [1, 7, 64, 1000, "whole"])
def test_every_split_matches_per_sample_observe(samples, per_sample, monitor_kind, split):
    size = len(samples) if split == "whole" else split
    _, outputs = replay(samples, size, monitor_kind)
    assert outputs["returned"] == outputs["events"]
    del outputs["returned"]
    assert outputs == per_sample


@pytest.mark.parametrize("kind", sorted(MONITORS))
def test_state_dict_pickles_equal_across_splits(samples, kind):
    pickles = {
        split: pickle.dumps(replay(samples, split, kind)[0].state_dict())
        for split in (None, 1, 7, 64, 1000, len(samples))
    }
    assert len(set(pickles.values())) == 1


def record() -> None:
    reference: dict = {}
    for kind in MONITORS:
        _, outputs = replay(build_stream(), None, kind)
        del outputs["returned"]
        reference[kind] = outputs
        print(f"{kind}: {len(outputs['events'])} events")
    reference["blas_fingerprint"] = blas_fingerprint()
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
