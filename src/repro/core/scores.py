"""Outlierness unification.

Section 5 surveys outlierness scores because raw detector outputs are not
comparable — a GMM negative log-likelihood and a kNN distance live on
different scales.  The unifiers here map any raw score vector to [0, 1]
while preserving order, so scores can be compared across detectors and
fused across levels.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence, Union

import numpy as np

#: Anything a unifier accepts: a 1-D array or any sequence of floats.
ScoreVector = Union[np.ndarray, Sequence[float]]

_SQRT2 = math.sqrt(2.0)

__all__ = ["unify_rank", "unify_gaussian", "unify_minmax", "unify"]


def _validate(scores: ScoreVector) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("scores must be 1-D")
    return arr


def unify_rank(scores: ScoreVector) -> np.ndarray:
    """Rank-based unification: score -> (rank - 0.5) / n, ties averaged.

    Distribution-free; the output is uniform on (0, 1) whatever the raw
    scale, which makes it the safest default for cross-detector fusion.
    """
    s = _validate(scores)
    n = len(s)
    if n == 0:
        return s.copy()
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    # a tie group starts wherever a sorted score differs from the one
    # before it; NaN != NaN, so every NaN is a group of its own
    first = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    last = np.r_[first[1:], n] - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 0.5, last - first + 1)
    return ranks / n


def unify_gaussian(scores: ScoreVector) -> np.ndarray:
    """Gaussian-tail unification: robust z-score -> Phi(z).

    Assumes the normal mass of scores is roughly Gaussian; outliers land in
    the upper tail close to 1.  Unlike rank unification this preserves
    *magnitude* information: a 10-sigma score maps visibly higher than a
    3-sigma one even when both are the maximum of their batch.

    ``Phi(z) = erfc(-z / sqrt(2)) / 2`` is evaluated per element with
    :func:`math.erfc` (numpy has no erfc ufunc); through the lower tail
    this keeps full relative precision where ``1 + erf`` would cancel.
    """
    s = _validate(scores)
    if len(s) == 0:
        return s.copy()
    center = float(np.median(s))
    mad = float(np.median(np.abs(s - center))) * 1.4826
    if mad <= 1e-12:
        std = float(s.std())
        mad = std if std > 1e-12 else 1.0
    z = (s - center) / mad
    return np.fromiter(
        (0.5 * math.erfc(-v / _SQRT2) for v in z.tolist()), dtype=np.float64, count=len(z)
    )


def unify_minmax(scores: ScoreVector) -> np.ndarray:
    """Affine rescale to [0, 1]; constant inputs map to 0.5."""
    s = _validate(scores)
    if len(s) == 0:
        return s.copy()
    lo, hi = float(s.min()), float(s.max())
    if hi - lo <= 1e-12:
        return np.full_like(s, 0.5)
    return (s - lo) / (hi - lo)


_UNIFIERS: Dict[str, Callable[[ScoreVector], np.ndarray]] = {
    "rank": unify_rank,
    "gaussian": unify_gaussian,
    "minmax": unify_minmax,
}


def unify(scores: ScoreVector, method: str = "gaussian") -> np.ndarray:
    """Dispatch to a unifier by name (``rank`` / ``gaussian`` / ``minmax``)."""
    try:
        fn = _UNIFIERS[method]
    except KeyError:
        raise ValueError(
            f"unknown unification method {method!r}; choose from {sorted(_UNIFIERS)}"
        ) from None
    return fn(scores)
