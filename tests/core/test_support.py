"""Unit tests for the correspondence graph and support computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CorrespondenceGraph,
    SupportCalculator,
    SupportResult,
    window_bounds,
)


class TestGraphFromPlant:
    def test_redundant_pair_connected(self, small_plant):
        graph = CorrespondenceGraph.from_plant(small_plant)
        machine = next(small_plant.iter_machines())
        pair = sorted(
            ch.sensor_id for ch in machine.channels if ch.kind == "chamber_temp"
        )
        assert pair[1] in graph.corresponding(pair[0])
        assert pair[0] in graph.corresponding(pair[1])

    def test_cross_level_environment_edge(self, small_plant):
        graph = CorrespondenceGraph.from_plant(small_plant)
        machine = next(small_plant.iter_machines())
        chamber = next(
            ch.sensor_id for ch in machine.channels if ch.kind == "chamber_temp"
        )
        env_node = f"{machine.line_id}/env/room_temp"
        assert env_node in graph.corresponding(chamber)

    def test_singleton_groups_have_no_sensor_peers(self, small_plant):
        graph = CorrespondenceGraph.from_plant(small_plant)
        machine = next(small_plant.iter_machines())
        bed = next(ch.sensor_id for ch in machine.channels if ch.kind == "bed_temp")
        # bed_temp has no redundant twin and no cross-level mapping
        assert graph.corresponding(bed) == []
        assert bed in graph  # an isolated node still belongs to the graph

    def test_no_cross_machine_edges(self, small_plant):
        graph = CorrespondenceGraph.from_plant(small_plant)
        machines = list(small_plant.iter_machines())
        a = next(ch.sensor_id for ch in machines[0].channels if ch.kind == "chamber_temp")
        for peer in graph.corresponding(a):
            if "/env/" not in peer:
                assert peer.startswith(machines[0].machine_id)

    def test_unknown_node_empty(self, small_plant):
        graph = CorrespondenceGraph.from_plant(small_plant)
        assert graph.corresponding("nope") == []

    def test_manual_edge(self):
        graph = CorrespondenceGraph()
        graph.add_correspondence("a", "b")
        assert graph.corresponding("a") == ["b"]

    def test_self_loop_and_repeated_edge(self):
        # the semantics of the networkx graph this adjacency dict replaced
        graph = CorrespondenceGraph()
        graph.add_correspondence("a", "a")
        graph.add_correspondence("a", "b", relation="redundant")
        graph.add_correspondence("b", "a")
        assert graph.corresponding("a") == ["a", "b"]
        assert graph.corresponding("b") == ["a"]
        assert "a" in graph and "c" not in graph


def _make_calculator(traces, tolerance=5.0):
    graph = CorrespondenceGraph()
    for a in traces:
        for b in traces:
            if a < b:
                graph.add_correspondence(a, b)

    def lookup(channel_id, time):
        entry = traces.get(channel_id)
        if entry is None:
            return None
        scores, threshold = entry
        return np.asarray(scores, dtype=float), threshold, 0.0, 1.0

    return SupportCalculator(graph, lookup, tolerance=tolerance)


class TestSupportCalculator:
    def test_full_agreement(self):
        calc = _make_calculator(
            {
                "s1": ([0, 0, 9, 0], 5.0),
                "s2": ([0, 0, 9, 0], 5.0),
                "s3": ([0, 9, 0, 0], 5.0),
            },
            tolerance=1.0,
        )
        result = calc.support_for("s1", time=2.0)
        assert result.support == 1.0
        assert result.n_corresponding == 2
        assert set(result.supporters) == {"s2", "s3"}

    def test_no_agreement(self):
        calc = _make_calculator(
            {"s1": ([0, 0, 9, 0], 5.0), "s2": ([0, 0, 0, 0], 5.0)},
            tolerance=1.0,
        )
        result = calc.support_for("s1", time=2.0)
        assert result.support == 0.0
        assert result.n_corresponding == 1

    def test_partial_agreement_is_fraction(self):
        calc = _make_calculator(
            {
                "s1": ([9, 0], 5.0),
                "s2": ([9, 0], 5.0),
                "s3": ([0, 0], 5.0),
            },
            tolerance=0.5,
        )
        result = calc.support_for("s1", time=0.0)
        assert result.support == 0.5

    def test_tolerance_window_applies(self):
        calc = _make_calculator(
            {"s1": ([9] + [0] * 9, 5.0), "s2": ([0] * 9 + [9], 5.0)},
            tolerance=2.0,
        )
        # peak in s2 is 9 samples away: outside the window
        assert calc.support_for("s1", time=0.0).support == 0.0
        wide = _make_calculator(
            {"s1": ([9] + [0] * 9, 5.0), "s2": ([0] * 9 + [9], 5.0)},
            tolerance=20.0,
        )
        assert wide.support_for("s1", time=0.0).support == 1.0

    def test_channels_without_scores_do_not_vote(self):
        calc = _make_calculator({"s1": ([9, 0], 5.0)})
        # add an edge to a channel that has no trace
        calc._graph.add_correspondence("s1", "ghost")
        result = calc.support_for("s1", time=0.0)
        assert result.n_corresponding == 0
        assert result.support == 0.0

    def test_isolated_sensor(self):
        calc = _make_calculator({"s1": ([9, 0], 5.0)})
        result = calc.support_for("s1", time=0.0)
        assert result == SupportResult(0.0, 0, ())

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            _make_calculator({}, tolerance=-1.0)

    def test_support_result_validates_range(self):
        with pytest.raises(ValueError):
            SupportResult(1.5, 2, ())

    def test_zero_step_trace_does_not_crash(self):
        # regression: a degenerate (zero-step) trace used to raise
        # ZeroDivisionError inside the support window math
        graph = CorrespondenceGraph()
        graph.add_correspondence("s1", "degenerate")

        def lookup(channel_id, time):
            if channel_id == "degenerate":
                return np.array([9.0]), 5.0, 0.0, 0.0  # single sample, step 0
            return np.array([9.0, 0.0]), 5.0, 0.0, 1.0

        calc = SupportCalculator(graph, lookup, tolerance=1.0)
        result = calc.support_for("s1", time=0.0)
        assert result.n_corresponding == 1
        assert result.support == 1.0


class TestWindowBounds:
    def test_plain_window(self):
        assert window_bounds(5.0, 2.0, 0.0, 1.0, 100) == (3, 8)

    def test_clamped_to_trace(self):
        lo, hi = window_bounds(0.0, 50.0, 0.0, 1.0, 10)
        assert (lo, hi) == (0, 10)

    def test_lower_bound_floors_before_trace_start(self):
        # time before the trace start: floor must widen toward -inf (then
        # clamp), never truncate toward zero
        lo, hi = window_bounds(-1.5, 1.0, 0.0, 1.0, 10)
        assert lo == 0
        assert hi >= 1  # the first samples are still within tolerance reach

    def test_zero_and_negative_step_select_whole_trace(self):
        assert window_bounds(3.0, 1.0, 0.0, 0.0, 5) == (0, 5)
        assert window_bounds(3.0, 1.0, 0.0, -2.0, 5) == (0, 5)

    def test_nonfinite_step_selects_whole_trace(self):
        assert window_bounds(3.0, 1.0, 0.0, float("nan"), 5) == (0, 5)

    def test_empty_trace(self):
        assert window_bounds(3.0, 1.0, 0.0, 1.0, 0) == (0, 0)
