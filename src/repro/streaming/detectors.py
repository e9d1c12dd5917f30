"""Online per-sample detectors (constant memory, one update per sample).

Each detector implements ``update(x) -> score``: feed one sample, get its
outlierness immediately.  These are the streaming counterparts of the
batch phase-level detectors:

* :class:`OnlineZScore` — Welford-standardized deviation (additive
  outliers);
* :class:`OnlineEWMA` — deviation from an exponentially weighted level
  (drift-tolerant);
* :class:`CusumDetector` — two-sided CUSUM (level shifts / temporary
  changes);
* :class:`OnlineARDetector` — AR(p) one-step residual with recursive
  least squares (the streaming autoregressive model of Table-1 row 20).

The stream monitor advances its detectors through :func:`_update_many`,
which gives the scores and state of per-sample ``update`` calls bit for
bit, but steps ``OnlineARDetector`` channels in lockstep through one
stacked RLS kernel.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

import numpy as np

from .online_stats import EWStats, RunningStats

__all__ = [
    "OnlineZScore",
    "OnlineEWMA",
    "CusumDetector",
    "OnlineARDetector",
]

#: Fewest active channels for lockstep RLS steps.  In the monitor's blocks
#: stacking wins from 2 channels (measured table: docs/PERFORMANCE.md,
#: "Streaming"); a lone channel, as in one-sample ``observe``, keeps
#: per-sample ``OnlineARDetector.update``.
LOCKSTEP_MIN_CHANNELS = 2

#: Value types whose float64 conversion is what ``update``'s arithmetic
#: sees.  ``update`` computes an ``np.float32`` sample's residual in
#: float32 (NEP 50), so a channel with any other type skips the kernel.
_EXACT_TYPES = frozenset((float, int, np.float64))


class OnlineZScore:
    """|z| of each sample against all history (Welford)."""

    def __init__(self, warmup: int = 10) -> None:
        if warmup < 2:
            raise ValueError("warmup must be >= 2")
        self.warmup = warmup
        self._stats = RunningStats()

    @property
    def n_skipped(self) -> int:
        """Non-finite samples ignored so far (degraded-stream visibility)."""
        return self._stats.n_skipped

    def update(self, x: float) -> float:
        if not math.isfinite(x):
            self._stats.update(x)  # counts the skip
            return 0.0
        score = 0.0
        if self._stats.n >= self.warmup:
            score = abs(self._stats.zscore(x))
        self._stats.update(x)
        return score


class OnlineEWMA:
    """|z| against an exponentially weighted level and scale."""

    def __init__(self, alpha: float = 0.05, warmup: int = 10) -> None:
        if warmup < 2:
            raise ValueError("warmup must be >= 2")
        self.warmup = warmup
        self._stats = EWStats(alpha)
        self._seen = 0

    @property
    def n_skipped(self) -> int:
        """Non-finite samples ignored so far (degraded-stream visibility)."""
        return self._stats.n_skipped

    def update(self, x: float) -> float:
        if not math.isfinite(x):
            self._stats.update(x)  # counts the skip
            return 0.0
        score = 0.0
        if self._seen >= self.warmup:
            score = abs(self._stats.zscore(x))
        self._stats.update(x)
        self._seen += 1
        return score


class CusumDetector:
    """Two-sided CUSUM on standardized residuals.

    ``drift`` is the slack per sample (in sigma units) the statistic
    forgives; the score is the larger of the positive/negative cumulative
    sums, which crosses its decision threshold quickly after a level shift.
    The default drift of 1.5 sigma is deliberately generous: production
    sensor signals are autocorrelated, and an IID-tuned drift (the textbook
    0.5) accumulates runs of same-signed residuals into false alarms.
    """

    def __init__(self, drift: float = 1.5, warmup: int = 20) -> None:
        if not (math.isfinite(drift) and drift >= 0):
            raise ValueError("drift must be finite and >= 0")
        if warmup < 2:
            raise ValueError("warmup must be >= 2")
        self.drift = drift
        self.warmup = warmup
        self._stats = RunningStats()
        self._pos = 0.0
        self._neg = 0.0

    @property
    def n_skipped(self) -> int:
        """Non-finite samples ignored so far (degraded-stream visibility)."""
        return self._stats.n_skipped

    def update(self, x: float) -> float:
        if not math.isfinite(x):
            self._stats.update(x)  # counts the skip; chart state untouched
            return max(self._pos, self._neg)
        if self._stats.n < self.warmup:
            self._stats.update(x)
            return 0.0
        z = self._stats.zscore(x)
        self._pos = max(0.0, self._pos + z - self.drift)
        self._neg = max(0.0, self._neg - z - self.drift)
        # baseline keeps learning only while the chart is quiet, so the
        # post-shift samples do not get absorbed into "normal"
        if max(self._pos, self._neg) < 1.0:
            self._stats.update(x)
        return max(self._pos, self._neg)

    def reset(self) -> None:
        """Restart the cumulative sums (after an acknowledged shift)."""
        self._pos = 0.0
        self._neg = 0.0


class OnlineARDetector:
    """AR(p) one-step-ahead residual, coefficients via recursive least squares.

    RLS with forgetting factor ``lam`` adapts the AR model continuously;
    the score is the absolute prediction residual in units of the running
    residual scale — the streaming twin of
    :class:`repro.detectors.predictive.ARDetector`.
    """

    def __init__(self, order: int = 3, lam: float = 0.995,
                 warmup: int = 30, delta: float = 100.0) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0.8 < lam <= 1.0:
            raise ValueError("lam must be in (0.8, 1]")
        if warmup < order + 2:
            raise ValueError("warmup must exceed order + 2")
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError("delta must be finite and positive")
        self.order = order
        self.lam = lam
        self.warmup = warmup
        self._history: Deque[float] = deque(maxlen=order)
        self._theta = np.zeros(order + 1)  # AR coefficients + intercept
        self._P = np.eye(order + 1) * delta
        self._residual_stats = EWStats(alpha=0.02)
        self._seen = 0
        self.n_skipped = 0

    def update(self, x: float) -> float:
        if not math.isfinite(x):
            self.n_skipped += 1
            return 0.0
        score = 0.0
        if len(self._history) == self.order:
            phi = np.concatenate([np.asarray(self._history)[::-1], [1.0]])
            prediction = float(self._theta @ phi)
            residual = x - prediction
            if self._seen >= self.warmup:
                scale = self._residual_stats.std
                floor = 1e-9 * max(1.0, abs(self._residual_stats.mean))
                score = abs(residual) / scale if scale > floor else 0.0
            # RLS update
            Pphi = self._P @ phi
            gain = Pphi / (self.lam + float(phi @ Pphi))
            self._theta = self._theta + gain * residual
            self._P = (self._P - np.outer(gain, Pphi)) / self.lam
            # the scale estimator must see neither the pre-convergence
            # transient (huge residuals while theta is still ~0) nor
            # outliers — both would inflate it for a long time
            converged = self._seen >= max(self.order + 5, self.warmup // 2)
            if converged and score < 4.0:
                self._residual_stats.update(residual)
        self._history.append(x)
        self._seen += 1
        return score


def _update_many(
    detectors: Sequence[object], values: Sequence[Sequence[float]]
) -> List[List[float]]:
    """Feed each of distinct ``detectors`` its own values; one list of
    scores per detector.

    Gives the scores and final state of
    ``[[d.update(x) for x in v] for d, v in zip(detectors, values)]`` bit
    for bit (``int`` values below 2**63).  ``OnlineARDetector`` instances
    that share ``(order, lam, warmup, residual alpha)`` advance in lockstep
    through one stacked RLS kernel; every other detector runs its own
    ``update``.
    """
    if len(detectors) == 1:  # nothing to stack: one-sample observe()
        return [list(map(detectors[0].update, values[0]))]  # type: ignore[attr-defined]
    scores: List[List[float]] = [[] for _ in detectors]
    groups: Dict[Tuple[int, float, int, float], List[Tuple[int, OnlineARDetector]]] = {}
    for i, det in enumerate(detectors):
        if type(det) is OnlineARDetector:
            key = (det.order, det.lam, det.warmup, det._residual_stats.alpha)
            groups.setdefault(key, []).append((i, det))
        else:
            scores[i] = list(map(det.update, values[i]))  # type: ignore[attr-defined]
    for members in groups.values():
        group_scores = _ar_lockstep(
            [det for _, det in members], [values[i] for i, _ in members]
        )
        for (i, _), sc in zip(members, group_scores):
            scores[i] = sc
    return scores


def _ar_lockstep(
    dets: List[OnlineARDetector], values: List[Sequence[float]]
) -> List[List[float]]:
    """``update`` over each detector's values, RLS steps stacked across them.

    All detectors share ``(order, lam, warmup, residual alpha)``.  The
    kernel must reproduce ``update`` bit for bit, and numpy's ``@`` on
    these shapes calls BLAS ``ddot``/``dgemv``, whose rounding no scalar
    rewrite reproduces.  So every reduction is a stacked ``np.matmul`` on
    C-contiguous arrays (one BLAS call per channel, the same routine as
    ``update``), and every elementwise step keeps ``update``'s association
    order.  Channels are sorted by length, so those still active at step k
    are a prefix; once fewer than :data:`LOCKSTEP_MIN_CHANNELS` remain,
    each finishes on ``update``.
    """
    head = dets[0]
    p, lam, warmup = head.order, head.lam, head.warmup
    converge_at = max(p + 5, warmup // 2)
    heads: List[List[float]] = []  # scores of samples fed to update up front
    rests: List[Sequence[float]] = []  # finite samples the kernel advances
    for det, vals in zip(dets, values):
        if not _EXACT_TYPES.issuperset(map(type, vals)):  # e.g. np.float32
            heads.append(list(map(det.update, vals)))
            rests.append(())
            continue
        finite = vals if all(map(math.isfinite, vals)) else [
            x for x in vals if math.isfinite(x)
        ]
        det.n_skipped += len(vals) - len(finite)
        # until its history is full a channel has no regressor: plain update
        fill = p - len(det._history)
        heads.append([det.update(x) for x in finite[:fill]])
        rests.append(finite[fill:] if fill > 0 else finite)
    by_length = sorted(range(len(dets)), key=lambda i: -len(rests[i]))
    lengths = [len(rests[i]) for i in by_length]
    steps = (  # steps with >= LOCKSTEP_MIN_CHANNELS channels active
        lengths[LOCKSTEP_MIN_CHANNELS - 1] if len(lengths) >= LOCKSTEP_MIN_CHANNELS else 0
    )
    tails: List[List[float]] = [[] for _ in dets]
    if steps:
        lanes = sum(1 for n in lengths if n)
        active = []  # channels still active at each step: a prefix of lanes
        a = lanes
        for k in range(steps):
            while lengths[a - 1] <= k:
                a -= 1
            active.append(a)
        lane_dets = [dets[i] for i in by_length[:lanes]]
        p1 = p + 1
        theta = np.stack([d._theta for d in lane_dets]).reshape(lanes, 1, p1)
        P = np.stack([d._P for d in lane_dets])
        # series[t, lane]: the history, then the stepped samples, oldest
        # first; zero past a lane's end
        rows = []
        for lane, i in enumerate(by_length[:lanes]):
            row = [*dets[i]._history, *rests[i][:steps]]
            rows.append(row + [0.0] * (p + steps - len(row)))
        series = np.array(rows, dtype=float).T
        # phi[k, lane] = (x[k-1], ..., x[k-p], 1): most recent first, as update
        phi = np.empty((steps, lanes, p1))
        for j in range(p):
            phi[:, :, j] = series[p - 1 - j:p - 1 - j + steps]
        phi[:, :, p] = 1.0
        xs = np.ascontiguousarray(series[p:]).reshape(steps, lanes, 1, 1)
        preds = np.empty((steps, lanes, 1, 1))
        for k in range(steps):
            a = active[k]
            th, Pk = theta[:a], P[:a]
            col = phi[k, :a].reshape(a, p1, 1)
            pred = np.matmul(th, col, out=preds[k, :a])
            Pphi = np.matmul(Pk, col)
            gain = Pphi / (lam + np.matmul(col.reshape(a, 1, p1), Pphi))
            residual = xs[k, :a] - pred
            np.add(th, gain.reshape(a, 1, p1) * residual, out=th)
            outer = gain * Pphi.reshape(a, 1, p1)
            np.divide(np.subtract(Pk, outer, out=outer), lam, out=Pk)
        for lane, i in enumerate(by_length[:lanes]):
            det = dets[i]
            n = min(lengths[lane], steps)
            stepped = rests[i][:n]
            # astype keeps each array's dtype instance, as update's ufuncs
            # do: an unpickled float64 dtype is a distinct object, and
            # pickle memoizes dtypes by identity
            det._theta = theta[lane, 0].astype(det._theta.dtype)
            det._P = P[lane].astype(det._P.dtype)
            tails[i] = _ar_score_residuals(
                det, stepped, preds[:n, lane, 0, 0].tolist(), warmup, converge_at
            )
            det._history.extend(stepped)
            rests[i] = rests[i][n:]
    out = []
    for det, vals, head_scores, tail, rest in zip(dets, values, heads, tails, rests):
        scores = head_scores + tail + [det.update(x) for x in rest]
        if len(scores) != len(vals):  # non-finite samples score 0.0
            it = iter(scores)
            scores = [next(it) if math.isfinite(x) else 0.0 for x in vals]
        out.append(scores)
    return out


def _ar_score_residuals(
    det: OnlineARDetector,
    xs: Sequence[float],
    preds: List[float],
    warmup: int,
    converge_at: int,
) -> List[float]:
    """The scoring tail of ``OnlineARDetector.update`` for precomputed
    predictions: the same expressions on the same Python floats."""
    stats = det._residual_stats
    seen = det._seen
    scores = []
    for x, prediction in zip(xs, preds):
        residual = x - prediction
        score = 0.0
        if seen >= warmup:
            scale = stats.std
            floor = 1e-9 * max(1.0, abs(stats.mean))
            score = abs(residual) / scale if scale > floor else 0.0
        if seen >= converge_at and score < 4.0:
            stats.update(residual)
        seen += 1
        scores.append(score)
    det._seen = seen
    return scores
