"""Unit tests for the streaming multi-sensor monitor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CorrespondenceGraph
from repro.streaming import OnlineZScore, StreamingSensorMonitor
from repro.synthetic import ar_process


def pair_graph():
    graph = CorrespondenceGraph()
    graph.add_correspondence("a", "b", relation="redundant")
    return graph


def interleave(**channels):
    n = len(next(iter(channels.values())))
    samples = []
    for t in range(n):
        for cid, values in channels.items():
            samples.append((cid, float(t), float(values[t])))
    return samples


def process_fault_pair(rng, n, fault_at):
    process = ar_process(n, rng, (0.5,), 0.5).values.copy()
    process[fault_at] += 8.0  # real fault: both sensors see it
    a = process + rng.normal(0, 0.1, n)
    b = process + rng.normal(0, 0.1, n)
    return a, b


@pytest.fixture
def process_fault_streams(rng):
    return process_fault_pair(rng, 400, 300)


@pytest.fixture
def sensor_fault_streams(rng):
    process = ar_process(400, rng, (0.5,), 0.5).values
    a = process + rng.normal(0, 0.1, 400)
    b = process + rng.normal(0, 0.1, 400)
    a[300] += 8.0  # broken gauge: only sensor a sees it
    return a, b


class TestEvents:
    def test_process_fault_supported(self, process_fault_streams):
        # (a, b, fault index, samples after it by which the fault must be
        # flagged): the fixture's pair, and 4,000 samples of seed 11
        cases = [
            (*process_fault_streams, 300, 2),
            (*process_fault_pair(np.random.default_rng(11), 4000, 3000), 3000, 1),
        ]
        for a, b, fault_at, latency in cases:
            monitor = StreamingSensorMonitor(pair_graph(), threshold=6.0)
            monitor.observe_block(interleave(a=a, b=b))
            events = monitor.reconsider_support()
            at_fault = [e for e in events if abs(e.time - fault_at) <= 2]
            assert at_fault, "fault not flagged"
            assert min(e.time for e in at_fault) <= fault_at + latency
            assert all(e.support == 1.0 for e in at_fault)
            assert not any(e.is_measurement_suspect for e in at_fault)

    def test_sensor_fault_unsupported(self, sensor_fault_streams):
        a, b = sensor_fault_streams
        monitor = StreamingSensorMonitor(pair_graph(), threshold=6.0)
        monitor.observe_block(interleave(a=a, b=b))
        events = monitor.reconsider_support()
        at_fault = [e for e in events if abs(e.time - 300) <= 2]
        assert at_fault, "fault not flagged"
        assert all(e.channel_id == "a" for e in at_fault)
        assert all(e.support == 0.0 for e in at_fault)
        assert all(e.is_measurement_suspect for e in at_fault)

    def test_quiet_streams_no_events(self, rng):
        a = rng.normal(0, 1, 300)
        b = rng.normal(0, 1, 300)
        monitor = StreamingSensorMonitor(pair_graph(), threshold=8.0)
        events = monitor.observe_block(interleave(a=a, b=b))
        assert len(events) <= 1

    def test_isolated_channel_zero_corresponding(self, rng):
        graph = CorrespondenceGraph()
        monitor = StreamingSensorMonitor(graph, threshold=5.0)
        x = rng.normal(0, 1, 200)
        x[150] = 20.0
        events = monitor.observe_block(
            [("solo", float(t), float(v)) for t, v in enumerate(x)]
        )
        assert any(e.time == 150 for e in events)
        event = next(e for e in events if e.time == 150)
        assert event.n_corresponding == 0
        assert not event.is_measurement_suspect  # no redundancy, no verdict


class TestConfig:
    def test_custom_detector_factory(self, rng):
        monitor = StreamingSensorMonitor(
            pair_graph(), detector_factory=lambda: OnlineZScore(warmup=5),
            threshold=5.0,
        )
        x = rng.normal(0, 1, 100)
        x[60] = 15.0
        monitor.observe_block([("a", float(t), float(v)) for t, v in enumerate(x)])
        assert any(e.time == 60 for e in monitor.events)

    def test_tolerance_limits_support_window(self, rng):
        graph = pair_graph()
        monitor = StreamingSensorMonitor(graph, threshold=5.0, tolerance=2.0)
        a = rng.normal(0, 1, 200)
        b = rng.normal(0, 1, 200)
        a[100] = 20.0
        b[150] = 20.0  # far outside the tolerance window of a's event
        monitor.observe_block(interleave(a=a, b=b))
        events = monitor.reconsider_support()
        a_event = next(e for e in events if e.channel_id == "a")
        assert a_event.support == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StreamingSensorMonitor(pair_graph(), threshold=0.0)
        with pytest.raises(ValueError):
            StreamingSensorMonitor(pair_graph(), tolerance=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("param", ["threshold", "tolerance", "heartbeat_patience"])
    def test_rejects_non_finite_params(self, param, value):
        # NaN never flags, never trims or never stalls; an infinite
        # tolerance never trims the flag deques
        with pytest.raises(ValueError, match=param):
            StreamingSensorMonitor(pair_graph(), **{param: value})
