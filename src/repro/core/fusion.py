"""Cross-level evidence fusion.

"The aim of future work will be to combine outlier information from the
different levels in a valuable manner" (Section 2).  This module implements
that future work: strategies that turn the per-level unified outlierness
values of one candidate into a single fused score.  All inputs are unified
scores in [0, 1] (see :mod:`repro.core.scores`); all outputs are in [0, 1].
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping

from .levels import ProductionLevel

__all__ = [
    "fuse",
    "fuse_max",
    "fuse_mean",
    "fuse_weighted",
    "fuse_fisher",
    "FUSION_STRATEGIES",
    "DEFAULT_LEVEL_WEIGHTS",
]

#: Default level weights for the weighted strategy: aggregated levels carry
#: more evidence per confirmation (an anomalous machine KPI implies many
#: anomalous samples), so weight grows with the level.
DEFAULT_LEVEL_WEIGHTS: Dict[ProductionLevel, float] = {
    ProductionLevel.PHASE: 1.0,
    ProductionLevel.JOB: 1.25,
    ProductionLevel.ENVIRONMENT: 0.75,
    ProductionLevel.PRODUCTION_LINE: 1.5,
    ProductionLevel.PRODUCTION: 1.75,
}


def _validate(level_scores: Mapping[ProductionLevel, float]) -> Dict[ProductionLevel, float]:
    if not level_scores:
        raise ValueError("need at least one level score to fuse")
    out = {}
    for level, score in level_scores.items():
        if not isinstance(level, ProductionLevel):
            raise TypeError(f"keys must be ProductionLevel, got {type(level).__name__}")
        if not (0.0 <= score <= 1.0) or math.isnan(score):
            raise ValueError(f"score for {level} must be in [0, 1], got {score}")
        out[level] = float(score)
    return out


def fuse_max(level_scores: Mapping[ProductionLevel, float]) -> float:
    """The strongest single level decides (optimistic, noise-sensitive)."""
    return max(_validate(level_scores).values())


def fuse_mean(level_scores: Mapping[ProductionLevel, float]) -> float:
    """Plain average across levels (conservative)."""
    scores = _validate(level_scores)
    return sum(scores.values()) / len(scores)


def fuse_weighted(
    level_scores: Mapping[ProductionLevel, float],
    weights: Mapping[ProductionLevel, float] | None = None,
) -> float:
    """Weighted average with level-dependent evidence weights.

    ``weights=None`` selects :data:`DEFAULT_LEVEL_WEIGHTS`; an explicitly
    passed mapping is honoured as-is (levels it omits weigh 1.0, so an
    empty mapping means an unweighted mean, *not* the defaults).  A weight
    set that zeroes out every present level is a configuration error and
    raises instead of silently fusing to 0.0.
    """
    scores = _validate(level_scores)
    w = DEFAULT_LEVEL_WEIGHTS if weights is None else weights
    num = 0.0
    den = 0.0
    for level, score in scores.items():
        weight = float(w.get(level, 1.0))
        if weight < 0:
            raise ValueError(f"negative weight for {level}")
        num += weight * score
        den += weight
    if den <= 0.0:
        raise ValueError(
            "all level weights are zero for the levels present; cannot fuse"
        )
    return num / den


def fuse_fisher(level_scores: Mapping[ProductionLevel, float]) -> float:
    """Fisher's method over per-level p-values (p = 1 - unified score).

    Treats each level as an independent test of "this candidate is normal";
    the combined statistic ``-2 Σ ln p`` is mapped back through the chi²
    survival function so the output is again a [0, 1] outlierness.

    With ``k`` levels the statistic has ``2k`` degrees of freedom, and an
    even-df chi² tail has the closed form
    ``sf(x, 2k) = exp(-x/2) · Σ_{i<k} (x/2)^i / i!``.  Every term is
    positive, so the sum does not cancel; for a tiny statistic the product
    can round one ulp above 1, hence the clamp at 0.
    """
    scores = _validate(level_scores)
    eps = 1e-12
    stat = 0.0
    for score in scores.values():
        p = min(max(1.0 - score, eps), 1.0)
        stat += -2.0 * math.log(p)
    half = stat / 2.0
    term = total = 1.0
    for i in range(1, len(scores)):
        term *= half / i
        total += term
    return max(0.0, 1.0 - math.exp(-half) * total)


FUSION_STRATEGIES: Dict[str, Callable[[Mapping[ProductionLevel, float]], float]] = {
    "max": fuse_max,
    "mean": fuse_mean,
    "weighted": fuse_weighted,
    "fisher": fuse_fisher,
}


def fuse(level_scores: Mapping[ProductionLevel, float], strategy: str = "weighted") -> float:
    """Fuse per-level scores with the named strategy."""
    try:
        fn = FUSION_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown fusion strategy {strategy!r}; choose from {sorted(FUSION_STRATEGIES)}"
        ) from None
    return fn(level_scores)
