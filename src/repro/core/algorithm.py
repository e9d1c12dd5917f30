"""Algorithm 1 — ``FindHierarchicalOutlier`` — faithfully implemented.

The paper's pseudo-code::

    FindHierarchicalOutlier(TS, LV):
        algorithm := ChooseAlgorithm(startLevel)
        outlierList := CalculateOutlier(algorithm, startLevel, TS)
        foreach outlier in outlierList:
            foreach sensor in correspondingSensors:
                if sensor supports outlier: support++
        support /= Number of Corresponding Sensors
        outlierness := CalcOutlierness(algorithm)
        globalScore := CalcGlobalScore(level++, true)
        CalcGlobalScore(level--, false)

    CalcGlobalScore(level, up):
        algorithm = ChooseAlgorithm(level); CalculateOutlier(algorithm, level)
        if up:   if outlier detected in level: globalScore++; recurse up
        else:    if NO outlier detected in level: warn wrong measurement
                 else: recurse down

``ChooseAlgorithm`` / ``CalculateOutlier`` / the corresponding-sensor check
live behind the :class:`HierarchyContext` interface so the recursion logic
here is exactly the paper's, independent of the data source (the plant
pipeline provides the production implementation).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Tuple

from .fusion import fuse
from .levels import ProductionLevel
from .outlier import (
    HierarchicalOutlierReport,
    LevelConfirmation,
    OutlierCandidate,
)
from .scores import unify
from .support import SupportResult

__all__ = ["HierarchyContext", "calc_global_score", "find_hierarchical_outliers"]


class HierarchyContext(abc.ABC):
    """The data-source interface Algorithm 1 runs against.

    ``confirm`` and ``support`` are pure functions of the candidate's
    *location* (its :attr:`~repro.core.OutlierCandidate.key`) — Algorithm 1
    walks the same levels for every candidate and callers re-run it freely,
    so contexts are encouraged to memoize both on that key (the plant
    context does; see :meth:`PlantHierarchyContext.stats`).
    """

    @abc.abstractmethod
    def find_candidates(self, level: ProductionLevel) -> List[OutlierCandidate]:
        """CalculateOutlier(ChooseAlgorithm(level), level) — all outliers
        the level's detector finds."""

    @abc.abstractmethod
    def confirm(self, candidate: OutlierCandidate,
                level: ProductionLevel) -> LevelConfirmation:
        """Is the candidate's context outlying at ``level``?"""

    @abc.abstractmethod
    def support(self, candidate: OutlierCandidate) -> SupportResult:
        """The corresponding-sensor loop of Algorithm 1."""

    def stats(self) -> Dict[str, int]:
        """Instrumentation counters (cache hits/misses, call counts).

        Contexts that do not instrument themselves report nothing.
        """
        return {}


def calc_global_score(
    context: HierarchyContext,
    candidate: OutlierCandidate,
    start_level: ProductionLevel,
) -> Tuple[int, Tuple[LevelConfirmation, ...], bool, str]:
    """The paper's CalcGlobalScore recursion, both directions.

    Upward: every consecutive confirming level increments the global score;
    the walk stops at the first non-confirming level.  Downward: outliers
    visible at a high level must be visible below; the first non-confirming
    lower level raises the measurement-error warning ("if no outlier can be
    found at a lower level, but in a higher level, a measurement error must
    be assumed").
    """
    confirmations: List[LevelConfirmation] = []
    global_score = 1  # the start level itself noticed the outlier

    level = start_level.up()
    while level is not None:
        conf = context.confirm(candidate, level)
        confirmations.append(conf)
        if not conf.detected:
            break
        global_score += 1
        level = level.up()

    warning = False
    reason = ""
    level = start_level.down()
    while level is not None:
        conf = context.confirm(candidate, level)
        confirmations.append(conf)
        if not conf.detected:
            warning = True
            reason = (
                f"outlier noticed at {start_level} but not at {level}: "
                "wrong measurement assumed"
            )
            break
        global_score += 1  # a confirming lower level is still a confirmation
        level = level.down()

    return global_score, tuple(confirmations), warning, reason


def find_hierarchical_outliers(
    context: HierarchyContext,
    start_level: ProductionLevel,
    fusion_strategy: str = "weighted",
    unify_method: str = "rank",
) -> List[HierarchicalOutlierReport]:
    """FindHierarchicalOutlier(TS, LV) for every outlier at ``start_level``.

    Returns one report per candidate, carrying the paper's triple plus the
    fused cross-level score (the future-work extension).  Outlierness is
    unified across the candidate batch so reports are mutually comparable.

    Note: ``unify_method`` defaults to ``"rank"`` here (distribution-free,
    the safe choice when mixing detectors across a whole level), while the
    lower-level :func:`repro.core.scores.unify` helper defaults to
    ``"gaussian"`` — pass the method explicitly when the distinction
    matters.
    """
    candidates = context.find_candidates(start_level)
    if not candidates:
        return []
    unified = unify([c.outlierness for c in candidates], method=unify_method)

    reports: List[HierarchicalOutlierReport] = []
    for candidate, outlierness in zip(candidates, unified):
        support_result = context.support(candidate)
        global_score, confirmations, warning, reason = calc_global_score(
            context, candidate, start_level
        )
        level_scores = {start_level: float(outlierness)}
        for conf in confirmations:
            level_scores[conf.level] = min(1.0, max(0.0, conf.outlierness))
        fused = fuse(level_scores, strategy=fusion_strategy)
        reports.append(
            HierarchicalOutlierReport(
                candidate=candidate,
                global_score=global_score,
                outlierness=float(outlierness),
                support=support_result.support,
                n_corresponding=support_result.n_corresponding,
                supporters=support_result.supporters,
                confirmations=confirmations,
                measurement_warning=warning,
                warning_reason=reason,
                fused_score=fused,
            )
        )
    return reports
