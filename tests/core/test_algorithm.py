"""Unit tests for Algorithm 1 against a scripted hierarchy context."""

from __future__ import annotations

from typing import Dict, List

from repro.core import (
    HierarchyContext,
    LevelConfirmation,
    OutlierCandidate,
    ProductionLevel,
    SupportResult,
    calc_global_score,
    find_hierarchical_outliers,
)

L = ProductionLevel


class ScriptedContext(HierarchyContext):
    """A context whose per-level verdicts are fixed by the test."""

    def __init__(self, detections: Dict[ProductionLevel, bool],
                 candidates: List[OutlierCandidate] | None = None,
                 support: SupportResult = SupportResult(0.5, 2, ("x",))):
        self.detections = detections
        if candidates is None:
            candidates = [
                OutlierCandidate(level=L.PHASE, outlierness=3.0, machine_id="m")
            ]
        self._candidates = candidates
        self._support = support
        self.confirm_calls: List[ProductionLevel] = []

    def find_candidates(self, level):
        return [c for c in self._candidates if c.level == level]

    def confirm(self, candidate, level):
        self.confirm_calls.append(level)
        detected = self.detections.get(level, False)
        return LevelConfirmation(level, detected, 0.8 if detected else 0.1)

    def support(self, candidate):
        return self._support


class TestUpwardWalk:
    def test_all_levels_confirm(self):
        ctx = ScriptedContext({lvl: True for lvl in L})
        score, confs, warning, __ = calc_global_score(
            ctx, ctx._candidates[0], L.PHASE
        )
        assert score == 5
        assert not warning

    def test_stops_at_first_non_confirming_level(self):
        ctx = ScriptedContext({L.JOB: True, L.ENVIRONMENT: False, L.PRODUCTION_LINE: True})
        score, confs, warning, __ = calc_global_score(
            ctx, ctx._candidates[0], L.PHASE
        )
        assert score == 2  # phase + job; env broke the chain
        # production-line must NOT have been consulted after the break
        assert L.PRODUCTION_LINE not in ctx.confirm_calls

    def test_phase_start_never_walks_down(self):
        ctx = ScriptedContext({})
        __, __, warning, __ = calc_global_score(ctx, ctx._candidates[0], L.PHASE)
        assert not warning

    def test_no_confirmation_means_score_one(self):
        ctx = ScriptedContext({})
        score, __, __, __ = calc_global_score(ctx, ctx._candidates[0], L.PHASE)
        assert score == 1


class TestDownwardWalk:
    def test_measurement_warning_on_missing_lower_level(self):
        ctx = ScriptedContext({L.PHASE: False})
        candidate = OutlierCandidate(level=L.JOB, outlierness=2.0, machine_id="m")
        __, confs, warning, reason = calc_global_score(ctx, candidate, L.JOB)
        assert warning
        assert "wrong measurement" in reason.lower()

    def test_confirming_lower_level_no_warning(self):
        ctx = ScriptedContext({L.PHASE: True})
        candidate = OutlierCandidate(level=L.JOB, outlierness=2.0, machine_id="m")
        score, __, warning, __ = calc_global_score(ctx, candidate, L.JOB)
        assert not warning
        assert score == 2  # job + confirming phase

    def test_downward_stops_at_first_gap(self):
        ctx = ScriptedContext({L.ENVIRONMENT: False, L.JOB: True, L.PHASE: True})
        candidate = OutlierCandidate(
            level=L.PRODUCTION_LINE, outlierness=2.0, machine_id="m"
        )
        __, __, warning, __ = calc_global_score(ctx, candidate, L.PRODUCTION_LINE)
        assert warning
        # phase below the gap is never consulted
        assert L.PHASE not in ctx.confirm_calls


class TestFindHierarchicalOutliers:
    def test_triple_fields_populated(self):
        ctx = ScriptedContext({L.JOB: True})
        reports = find_hierarchical_outliers(ctx, L.PHASE)
        assert len(reports) == 1
        report = reports[0]
        g, o, s = report.triple
        assert g == 2
        assert 0.0 <= o <= 1.0
        assert s == 0.5
        assert report.n_corresponding == 2

    def test_empty_candidates(self):
        ctx = ScriptedContext({}, candidates=[])
        assert find_hierarchical_outliers(ctx, L.PHASE) == []

    def test_outlierness_unified_across_batch(self):
        candidates = [
            OutlierCandidate(level=L.PHASE, outlierness=v, machine_id=f"m{v}")
            for v in (1.0, 5.0, 3.0)
        ]
        ctx = ScriptedContext({}, candidates=candidates)
        reports = find_hierarchical_outliers(ctx, L.PHASE)
        by_machine = {r.candidate.machine_id: r.outlierness for r in reports}
        assert by_machine["m5.0"] > by_machine["m3.0"] > by_machine["m1.0"]

    def test_fused_score_attached(self):
        ctx = ScriptedContext({L.JOB: True})
        report = find_hierarchical_outliers(ctx, L.PHASE, fusion_strategy="max")[0]
        assert report.fused_score > 0.0

    def test_effective_support_neutral_without_redundancy(self):
        ctx = ScriptedContext({}, support=SupportResult(0.0, 0, ()))
        report = find_hierarchical_outliers(ctx, L.PHASE)[0]
        assert report.support == 0.0
        assert report.effective_support == 0.5
