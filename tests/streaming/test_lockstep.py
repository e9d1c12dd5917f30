"""``_update_many`` pinned to per-sample ``update``, bit for bit.

The stacked RLS kernel must reproduce ``OnlineARDetector.update`` exactly:
the recursion amplifies last-bit differences until flags flip.  Every test
feeds one set of fresh detectors sample by sample through ``update`` (the
reference) and an identical set through ``_update_many``, then asserts
``==`` on every score and on the final state.  Each case runs at the
module's crossover and with the kernel forced on for every group.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core import CorrespondenceGraph
from repro.streaming import (
    CusumDetector,
    OnlineARDetector,
    OnlineZScore,
    StreamingSensorMonitor,
)
from repro.streaming import detectors as detectors_module
from repro.streaming.detectors import _update_many

K = detectors_module.LOCKSTEP_MIN_CHANNELS


@pytest.fixture(params=["crossover", "always"])
def crossover(request, monkeypatch):
    """The module's crossover, or the kernel stacking every group."""
    if request.param == "always":
        monkeypatch.setattr(detectors_module, "LOCKSTEP_MIN_CHANNELS", 1)
    return detectors_module.LOCKSTEP_MIN_CHANNELS


def ar_values(rng, n, garbage=0.0):
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = 0.6 * x[t - 1] + rng.normal()
    if n > 40:
        x[n // 2] += 9.0  # an outlier: its residual must stay out of the scale
    if garbage:
        hit = rng.random(n) < garbage
        x[hit] = rng.choice([np.nan, np.inf, -np.inf], int(hit.sum()))
    return x.tolist()


def state(det):
    """Everything ``update`` leaves behind, in comparable form."""
    fields = {"pickle": pickle.dumps(det.__dict__)}
    if isinstance(det, OnlineARDetector):
        stats = det._residual_stats
        fields.update(
            theta=det._theta.tobytes(),
            P=det._P.tobytes(),
            history=list(det._history),
            mean=stats._mean,
            var=stats._var,
            ew_skipped=stats.n_skipped,
            seen=det._seen,
            skipped=det.n_skipped,
        )
    return fields


def assert_matches_update(make, values, prefeed=None):
    """``_update_many`` on fresh detectors equals per-sample ``update``."""
    reference = [make(i) for i in range(len(values))]
    stacked = [make(i) for i in range(len(values))]
    for i, pre in enumerate(prefeed or []):
        for x in pre:
            reference[i].update(x)
            stacked[i].update(x)
    expected = [[det.update(x) for x in vals] for det, vals in zip(reference, values)]
    got = _update_many(stacked, values)
    assert got == expected
    for ref, det in zip(reference, stacked):
        assert state(det) == state(ref)
    return got


def test_ragged_lengths_in_one_call(crossover, rng):
    lengths = [0, 1, 2, K - 1, K, 33, 500]
    values = [ar_values(rng, n) for n in lengths]
    scores = assert_matches_update(lambda i: OnlineARDetector(), values)
    assert max(scores[-1]) > 6.0  # the planted outlier is scored, not skipped


def test_non_finite_values_interleaved(crossover, rng):
    values = [ar_values(rng, 120, garbage=0.1) for _ in range(K + 2)]
    values[0][:5] = [math.nan, math.inf, -math.inf, math.nan, math.nan]
    assert_matches_update(lambda i: OnlineARDetector(), values)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_orders(crossover, rng, order):
    values = [ar_values(rng, 90 + 7 * i) for i in range(K + 1)]
    assert_matches_update(lambda i: OnlineARDetector(order=order), values)


def test_two_parameter_groups_and_other_detectors(crossover, rng):
    def make(i):
        if i == 0:
            return OnlineZScore()
        if i == 1:
            return CusumDetector()
        if i % 2:
            return OnlineARDetector(order=2, lam=0.99, warmup=20)
        return OnlineARDetector()

    values = [ar_values(rng, 150, garbage=0.02) for _ in range(2 * K + 4)]
    assert_matches_update(make, values)


def test_every_warmup_boundary(crossover, rng):
    # detector i has already seen i samples, so the history fill (order),
    # the residual-scale start (max(order + 5, warmup // 2)) and the
    # scoring start (warmup) each fall at every offset of the call
    warmup = 30
    prefeed = [ar_values(rng, i) for i in range(warmup + 3)]
    values = [ar_values(rng, 45) for _ in prefeed]
    assert_matches_update(lambda i: OnlineARDetector(warmup=warmup), values, prefeed)


def test_numpy_values_keep_their_types(crossover, rng):
    # update keeps the objects it is fed: np.float64 samples leave
    # np.float64 history entries and residual statistics behind
    values = [np.asarray(ar_values(rng, 80)) for _ in range(K + 1)]
    values[0] = np.arange(80)  # integers: exact in float64
    assert_matches_update(lambda i: OnlineARDetector(), values)


def test_float32_values_follow_update(crossover, rng):
    # update computes a float32 sample's residual in float32 (NEP 50); a
    # float64 kernel would drift from it, so such a channel skips the kernel
    values = [ar_values(rng, 90) for _ in range(K + 2)]
    values[1] = np.asarray(values[1], dtype=np.float32)
    values[2] = [np.float32(x) if i % 2 else x for i, x in enumerate(values[2])]
    assert_matches_update(lambda i: OnlineARDetector(), values)


def test_active_count_falls_below_crossover_midway(crossover, rng):
    lengths = [80] + [60] * (K - 1) + [30, 20, 10]
    values = [ar_values(rng, n) for n in lengths]
    assert_matches_update(lambda i: OnlineARDetector(), values)


def test_continues_from_a_restored_monitor(crossover, rng):
    graph = CorrespondenceGraph()
    channels = [f"c{i}" for i in range(K + 2)]
    streams = np.asarray([ar_values(rng, 60) for _ in channels])
    # np.float64 samples: the restored state holds unpickled float64 dtypes
    first = [(cid, float(t), streams[i, t]) for t in range(60)
             for i, cid in enumerate(channels)]
    monitor = StreamingSensorMonitor(graph)
    monitor.observe_block(first)
    snapshot = pickle.loads(pickle.dumps(monitor.state_dict()))

    def restored():
        return StreamingSensorMonitor(graph).load_state_dict(snapshot)._channels

    reference, stacked = restored(), restored()
    values = [ar_values(rng, 70 + 3 * i) for i in range(len(channels))]
    expected = [
        [reference[cid].detector.update(x) for x in vals]
        for cid, vals in zip(channels, values)
    ]
    got = _update_many([stacked[cid].detector for cid in channels], values)
    assert got == expected
    for cid in channels:
        assert state(stacked[cid].detector) == state(reference[cid].detector)
