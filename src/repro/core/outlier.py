"""Outlier records and the paper's result triple.

Algorithm 1 outputs ``<global score, outlierness, support>`` per outlier:
the global score counts the hierarchy levels confirming the outlier, the
outlierness is the significance reported by the level's detector, and the
support is the fraction of corresponding sensors agreeing at the same time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..synthetic import OutlierType
from .levels import ProductionLevel

__all__ = ["OutlierCandidate", "LevelConfirmation", "HierarchicalOutlierReport"]


@dataclass(frozen=True)
class OutlierCandidate:
    """One outlier as found by a detector at one level.

    Location fields are filled as far as the level defines them: a
    phase-level candidate carries machine/job/phase/sensor and the sample
    index; a production-level candidate only the machine.
    """

    level: ProductionLevel
    outlierness: float
    machine_id: str = ""
    job_index: Optional[int] = None
    phase_name: str = ""
    sensor_id: str = ""
    index: Optional[int] = None
    detector: str = ""
    outlier_type: Optional[OutlierType] = None

    @property
    def key(self) -> Tuple[int, str, Optional[int], str, str, Optional[int]]:
        """Canonical hashable identity of the candidate's location.

        Two candidates with equal keys name the same
        (level, machine, job, phase, sensor, sample) coordinate — the
        memoization granularity of the pipeline's confirmation/support
        caches.  Score and provenance fields (outlierness, detector,
        outlier_type) are deliberately excluded: they do not change *what*
        is being confirmed, only how it scored.
        """
        return (
            int(self.level),
            self.machine_id,
            self.job_index,
            self.phase_name,
            self.sensor_id,
            self.index,
        )

    @property
    def location(self) -> str:
        parts = [self.machine_id or "-"]
        if self.job_index is not None:
            parts.append(f"job{self.job_index}")
        if self.phase_name:
            parts.append(self.phase_name)
        if self.sensor_id:
            parts.append(self.sensor_id.rsplit("/", 1)[-1])
        if self.index is not None:
            parts.append(f"t={self.index}")
        return "/".join(parts)


@dataclass(frozen=True)
class LevelConfirmation:
    """Outcome of checking one hierarchy level for a candidate."""

    level: ProductionLevel
    detected: bool
    outlierness: float
    note: str = ""


@dataclass
class HierarchicalOutlierReport:
    """The Algorithm-1 triple plus full provenance.

    ``global_score`` is the number of confirming levels (start level
    included), ``outlierness`` the unified significance at the start level,
    ``support`` the corresponding-sensor agreement in [0, 1] (``NaN``-free:
    when no corresponding sensors exist, ``n_corresponding`` is 0 and
    ``support`` is 0.0 by convention).
    """

    candidate: OutlierCandidate
    global_score: int
    outlierness: float
    support: float
    n_corresponding: int = 0
    supporters: Tuple[str, ...] = ()
    confirmations: Tuple[LevelConfirmation, ...] = ()
    measurement_warning: bool = False
    warning_reason: str = ""
    fused_score: float = 0.0

    @property
    def triple(self) -> Tuple[int, float, float]:
        """The paper's result: <global score, outlierness, support>."""
        return (self.global_score, self.outlierness, self.support)

    @property
    def effective_support(self) -> float:
        """Support usable for ranking: neutral (0.5) without redundancy.

        The support value can only "reduce the probability of finding a
        measurement error" where corresponding sensors exist; a candidate
        without any redundancy is neither confirmed nor contradicted.
        """
        return self.support if self.n_corresponding > 0 else 0.5

    def describe(self) -> str:
        """One-line report used by examples and benches."""
        g, o, s = self.triple
        warn = " [measurement-error warning]" if self.measurement_warning else ""
        return (
            f"{self.candidate.location:55s} global={g} outlierness={o:.3f} "
            f"support={s:.2f} ({self.n_corresponding} corresponding){warn}"
        )


def rank_reports(
    reports: Sequence["HierarchicalOutlierReport"],
    weights: Dict[str, float] | None = None,
) -> List["HierarchicalOutlierReport"]:
    """Sort reports by the fused hierarchical evidence, best first.

    The default ranking follows the paper's reading of the triple: more
    confirming levels beat raw outlierness, and support breaks ties while
    demoting unsupported candidates.
    """
    weights = weights or {"global": 1.0, "outlierness": 1.0, "support": 1.0}

    def key(report: HierarchicalOutlierReport) -> float:
        g = (report.global_score - 1) / 4.0
        return (
            weights["global"] * g
            + weights["outlierness"] * min(1.0, report.outlierness)
            + weights["support"] * report.effective_support
        )

    return sorted(reports, key=key, reverse=True)
