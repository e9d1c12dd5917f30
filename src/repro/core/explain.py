"""Human-readable explanations of hierarchical outlier reports.

The paper's aim is "a more transparent production": the triple exists so
an operator can see *why* an outlier matters.  :func:`explain_report`
renders one report into that narrative — which level found it, which
levels confirmed it, which corresponding sensors supported it, and what
the verdict means.
"""

from __future__ import annotations

from typing import List, Optional

from ..synthetic import OutlierType
from .outlier import HierarchicalOutlierReport
from .types import TypeClassification

__all__ = ["explain_report"]


def _verdict(report: HierarchicalOutlierReport) -> str:
    if report.measurement_warning:
        return (
            "VERDICT: suspected wrong measurement — the outlier is visible "
            "at a high level but leaves no trace below it."
        )
    if report.n_corresponding > 0 and report.support == 0.0:
        return (
            "VERDICT: suspected measurement error — none of the "
            "corresponding sensors saw anything at the same time."
        )
    if report.global_score >= 3 or (
        report.global_score >= 2 and report.support >= 0.5
    ):
        return (
            "VERDICT: likely real process anomaly — multiple independent "
            "pieces of evidence agree."
        )
    return (
        "VERDICT: isolated finding — noticed at one level only; monitor "
        "before acting."
    )


def explain_report(
    report: HierarchicalOutlierReport,
    classification: Optional[TypeClassification] = None,
) -> str:
    """Render one report as an operator-facing explanation."""
    c = report.candidate
    lines: List[str] = []
    lines.append(f"Outlier at {c.location}")
    lines.append(
        f"  noticed at the {c.level.label} level"
        + (f" by the '{c.detector}' detector" if c.detector else "")
        + f" with unified outlierness {report.outlierness:.2f}."
    )

    # global score narrative
    confirmed = [conf for conf in report.confirmations if conf.detected]
    denied = [conf for conf in report.confirmations if not conf.detected]
    lines.append(
        f"  global score {report.global_score}/5: the outlier is visible at "
        f"{report.global_score} production level(s)."
    )
    for conf in confirmed:
        note = f" ({conf.note})" if conf.note else ""
        lines.append(f"    + confirmed at the {conf.level.label} level{note}")
    for conf in denied:
        lines.append(f"    - not seen at the {conf.level.label} level")

    # support narrative
    if report.n_corresponding == 0:
        lines.append(
            "  support: no corresponding sensors exist for this channel, so "
            "redundancy gives no verdict."
        )
    else:
        who = (
            ", ".join(s.rsplit("/", 1)[-1] for s in report.supporters)
            if report.supporters
            else "none"
        )
        lines.append(
            f"  support {report.support:.2f}: {len(report.supporters)} of "
            f"{report.n_corresponding} corresponding sensor(s) agree "
            f"(supporters: {who})."
        )

    if classification is not None:
        lines.append(
            f"  shape: classified as a {classification.outlier_type.value} "
            f"outlier (confidence {classification.confidence:.2f}, "
            f"magnitude {classification.magnitude:+.2f})."
        )
        if classification.outlier_type is OutlierType.LEVEL_SHIFT:
            lines.append(
                "    a level shift persists until repaired — check for a "
                "configuration or hardware change."
            )
        elif classification.outlier_type is OutlierType.TEMPORARY_CHANGE:
            lines.append(
                "    a temporary change decays on its own — look for a "
                "transient disturbance around the onset."
            )

    lines.append("  " + _verdict(report))
    return "\n".join(lines)
