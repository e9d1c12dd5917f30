"""Extension bench — streaming detection throughput and latency.

Section 5: "another challenge for outlier detection is related to the
calculation speed" ([4] resorts to MapReduce for distance-based outliers).
The streaming subsystem answers with constant-memory per-sample detectors;
this bench measures (a) raw throughput of the streaming monitor over a
redundant sensor pair and (b) detection latency (samples from fault onset
to first flagged sample) against the batch pipeline's whole-phase pass.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import CorrespondenceGraph
from repro.streaming import OnlineARDetector, StreamingSensorMonitor
from repro.streaming.detectors import LOCKSTEP_MIN_CHANNELS, _update_many
from repro.synthetic import ar_process

N_SAMPLES = 4000
FAULT_AT = 3000
CROSSOVER_CHANNELS = (2, 3, 4, 6, 8, 16, 34)


def _build_streams(seed=11):
    rng = np.random.default_rng(seed)
    process = ar_process(N_SAMPLES, rng, (0.5,), 0.5).values.copy()
    process[FAULT_AT] += 8.0
    a = process + rng.normal(0, 0.1, N_SAMPLES)
    b = process + rng.normal(0, 0.1, N_SAMPLES)
    samples = []
    for t in range(N_SAMPLES):
        samples.append(("a", float(t), float(a[t])))
        samples.append(("b", float(t), float(b[t])))
    return samples


def _run_monitor(samples):
    graph = CorrespondenceGraph()
    graph.add_correspondence("a", "b", relation="redundant")
    monitor = StreamingSensorMonitor(graph, threshold=6.0)
    monitor.observe_block(samples)
    return monitor


def test_bench_streaming_throughput(benchmark, emit):
    samples = _build_streams()
    monitor = benchmark(lambda: _run_monitor(samples))

    events = monitor.reconsider_support()
    fault_events = [e for e in events if abs(e.time - FAULT_AT) <= 3]
    latency = (
        min(e.time for e in fault_events) - FAULT_AT if fault_events else None
    )
    per_sample_us = (
        benchmark.stats.stats.mean / len(samples) * 1e6
        if benchmark.stats is not None
        else float("nan")
    )
    lines = [
        "Streaming extension — throughput and detection latency",
        "",
        f"samples per run: {len(samples)} (2 channels x {N_SAMPLES})",
        f"mean time per sample: {per_sample_us:.1f} us "
        f"(~{1e6 / per_sample_us:,.0f} samples/s)" if per_sample_us == per_sample_us else "",
        f"events flagged: {len(events)}",
        f"detection latency at the injected fault: {latency} sample(s)",
        f"fault support online: "
        f"{fault_events[0].support:.2f}" if fault_events else "fault missed",
    ]
    emit("streaming", "\n".join(str(l) for l in lines))

    assert fault_events, "injected fault not flagged by the stream monitor"
    assert latency is not None and latency <= 1
    assert all(e.support == 1.0 for e in fault_events)


def _us_per_sample(channels, per_channel, stacked, rng, total=2000):
    """µs per sample of ``_update_many`` (``stacked``) or of per-sample
    ``update`` over warmed AR detectors, in calls that bring
    ``per_channel`` samples for each of ``channels`` channels."""
    detectors = [OnlineARDetector() for _ in range(channels)]
    for det in detectors:
        for x in rng.normal(size=60).tolist():
            det.update(x)
    n_calls = max(2, total // (channels * per_channel))
    calls = [rng.normal(size=(channels, per_channel)).tolist() for _ in range(n_calls)]
    start = time.perf_counter()
    if stacked:
        for values in calls:
            _update_many(detectors, values)
    else:
        for values in calls:
            for det, vals in zip(detectors, values):
                for x in vals:
                    det.update(x)
    elapsed = time.perf_counter() - start
    return elapsed / (n_calls * channels * per_channel) * 1e6


def test_bench_lockstep_crossover(emit):
    """Stacked RLS kernel vs per-sample ``update``, by channel count.

    Two call shapes: one sample per channel per call (the kernel's fixed
    set-up is paid for one step) and 1,000-sample calls split evenly over
    the channels (the monitor's block).  Best of 5 alternating repeats.
    The monitor's calls are blocks, and one-sample ``observe`` passes a
    single detector, which never stacks; so ``LOCKSTEP_MIN_CHANNELS`` is
    the smallest count at which the block shape wins.
    """
    rng = np.random.default_rng(2019)
    rows = []
    ratios = {}
    for channels in CROSSOVER_CHANNELS:
        row = [channels]
        for per_channel in (1, max(1, 1000 // channels)):
            best = {True: float("inf"), False: float("inf")}
            for _ in range(5):
                for stacked in (True, False):
                    best[stacked] = min(
                        best[stacked],
                        _us_per_sample(channels, per_channel, stacked, rng),
                    )
            ratios[channels, per_channel] = best[True] / best[False]
            row += [best[True], best[False], best[True] / best[False]]
        rows.append(row)
    lines = [
        "Stacked RLS kernel vs per-sample update (us per sample, best of 5)",
        f"crossover LOCKSTEP_MIN_CHANNELS = {LOCKSTEP_MIN_CHANNELS}",
        "",
        "channels | 1 sample/channel: stacked  update  ratio"
        " | 1,000-sample call: stacked  update  ratio",
    ]
    for c, s1, u1, r1, s2, u2, r2 in rows:
        lines.append(
            f"{c:8d} | {s1:26.1f} {u1:7.1f} {r1:6.2f}"
            f" | {s2:27.1f} {u2:7.1f} {r2:6.2f}"
        )
    emit("streaming_crossover", "\n".join(lines))
    # the mechanism: stacking wins on blocks from the crossover on, and
    # outright with many channels
    k = LOCKSTEP_MIN_CHANNELS
    assert ratios[k, 1000 // k] < 1.0
    assert ratios[34, 1000 // 34] < 0.5
