"""The stacked phase/env helpers against their scalar references, bit for bit.

The phase and environment tasks compute robust thresholds, gate
prechecks and detector-score sanitizing over same-length stacks of
traces.  Each stacked helper must equal its per-trace reference exactly
(``==`` on floats, ``tobytes`` on arrays): reports are byte-identical
only if every threshold is.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tasks import _peak_indices, _robust_threshold, _robust_thresholds
from repro.core.resilience import (
    QualityPolicy,
    assess_series,
    clean_rows,
    repair_series,
)
from repro.detectors.base import BaseDetector
from repro.plant import FaultConfig, PlantConfig, simulate_plant

#: MAD (before the 1.4826 scaling) that lands just either side of the
#: 1e-12 cut between the stacked pass and the scalar ``std`` branch
_MAD_CUT = 1e-12 / 1.4826


def _alternating(n: int, d: float) -> np.ndarray:
    """±d alternating: median 0, MAD exactly d (n even)."""
    return np.where(np.arange(n) % 2 == 0, -d, d)


def _threshold_rows(rng: np.random.Generator) -> list:
    rows = []
    for n in (1, 2, 7, 10, 60, 80, 120, 140, 400):
        for __ in range(4):
            rows.append(np.abs(rng.standard_normal(n)) * rng.uniform(0.1, 10.0))
    with_nan = np.abs(rng.standard_normal(60))
    with_nan[[3, 17]] = np.nan
    pos_inf = np.abs(rng.standard_normal(400))
    pos_inf[5] = np.inf
    neg_inf = np.abs(rng.standard_normal(7))
    neg_inf[0] = -np.inf
    rows += [
        with_nan,
        pos_inf,
        neg_inf,
        np.full(60, np.nan),  # no finite score: threshold inf
        np.full(2, np.nan),
        np.full(10, 3.0),  # constant: MAD 0, the std branch (std 0 -> 1.0)
        np.r_[np.full(59, 2.0), 7.0],  # MAD 0 but std > 0
        _alternating(60, _MAD_CUT * (1 + 1e-6)),  # MAD just above the cut
        _alternating(60, _MAD_CUT * (1 - 1e-6)),  # ... and just below it
        np.array([-0.0, 0.0]),
        np.array([-0.0, -0.0, 1.0]),
        np.zeros(0),
    ]
    return rows


class TestRobustThresholds:
    def test_equals_scalar_reference_bitwise(self):
        rows = _threshold_rows(np.random.default_rng(19))
        for sigma in (6.0, 5.0, 5, 0.5):
            thresholds, reach = _robust_thresholds(rows, sigma)
            assert len(thresholds) == len(reach) == len(rows)
            for row, t, hit in zip(rows, thresholds, reach):
                ref = _robust_threshold(row, sigma)
                assert type(t) is float
                assert t == ref
                assert hit is bool(np.flatnonzero(row >= ref).size)

    def test_reach_false_means_no_peaks(self):
        rows = _threshold_rows(np.random.default_rng(3))
        thresholds, reach = _robust_thresholds(rows, 6.0)
        for row, t, hit in zip(rows, thresholds, reach):
            if not hit:
                assert _peak_indices(row, t, gap=3, max_peaks=3) == []

    def test_covers_both_branches(self):
        # the fixture must exercise the stacked pass and the scalar fallback
        rows = _threshold_rows(np.random.default_rng(19))
        finite = [r for r in rows if r.size and np.isfinite(r).all()]
        mads = [
            float(np.median(np.abs(r - np.median(r)))) * 1.4826 for r in finite
        ]
        assert any(m > 1e-12 for m in mads)
        assert any(m <= 1e-12 for m in mads)
        assert math.inf in _robust_thresholds(rows, 6.0)[0]

    def test_random_phase_lengths(self):
        rng = np.random.default_rng(2019)
        for n in (60, 80, 120, 140, 400, 61, 401):
            rows = [rng.gamma(2.0, 1.0, n) for __ in range(25)]
            thresholds, __ = _robust_thresholds(rows, 6.0)
            assert thresholds == [_robust_threshold(r, 6.0) for r in rows]


# ----------------------------------------------------------------------
# clean_rows: a row it marks clean passes the scalar gate untouched
# ----------------------------------------------------------------------
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


@st.composite
def _gate_stacks(draw):
    policy = QualityPolicy(
        min_length=draw(st.integers(1, 12)),
        flatline_run=draw(st.integers(2, 12)),
        flatline_tolerance=draw(st.sampled_from([0.0, 0.5])),
    )
    lengths = {
        max(1, base + d)
        for base in (policy.min_length, policy.flatline_run)
        for d in (-1, 0, 1)
    }
    n = draw(st.sampled_from(sorted(lengths)))
    rows = []
    for __ in range(draw(st.integers(1, 4))):
        row = draw(
            st.lists(
                st.one_of(st.floats(-100.0, 100.0), _SPECIAL),
                min_size=n, max_size=n,
            )
        )
        run = draw(st.sampled_from([0, policy.flatline_run - 1, policy.flatline_run]))
        if 0 < run <= n:
            at = draw(st.integers(0, n - run))
            kind = draw(st.sampled_from(["signed-zeros", "held", "jitter"]))
            for k in range(run):
                if kind == "signed-zeros":
                    row[at + k] = -0.0 if k % 2 else 0.0
                elif kind == "held":
                    row[at + k] = 3.25
                else:  # steps of exactly the tolerance
                    row[at + k] = 3.25 + (policy.flatline_tolerance if k % 2 else 0.0)
        rows.append(row)
    return policy, np.array(rows, dtype=np.float64)


class TestCleanRows:
    @settings(max_examples=300, deadline=None)
    @given(_gate_stacks())
    def test_clean_rows_pass_the_scalar_gate_untouched(self, case):
        policy, X = case
        clean = clean_rows(X, policy)
        assert clean.shape == (X.shape[0],) and clean.dtype == bool
        for row, ok in zip(X, clean):
            if not ok:
                continue
            assert assess_series(row, policy) == []
            repaired, notes = repair_series(row, policy)
            assert notes == []
            assert repaired.tobytes() == row.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_gate_stacks())
    def test_decides_nothing_else(self, case):
        # clean exactly when every sample is finite and — once the stuck
        # check applies — no neighbour is within the tolerance
        policy, X = case
        for row, ok in zip(X, clean_rows(X, policy)):
            expected = len(row) >= policy.min_length and bool(np.isfinite(row).all())
            if expected and len(row) >= policy.flatline_run:
                expected = not (
                    np.abs(np.diff(row)) <= policy.flatline_tolerance
                ).any()
            assert bool(ok) == expected

    def test_below_min_length_is_never_clean(self):
        X = np.arange(14.0).reshape(2, 7)
        assert not clean_rows(X, QualityPolicy(min_length=8)).any()
        assert clean_rows(X, QualityPolicy(min_length=7)).all()

    def test_takes_a_2d_stack_only(self):
        with pytest.raises(ValueError, match="2-D"):
            clean_rows(np.arange(10.0))

    def test_seed7_plant_is_mostly_clean(self):
        # a predicate that said False everywhere would satisfy the property
        # above and remove the whole gain: the real plant must pass it
        plant = simulate_plant(
            PlantConfig(
                seed=7, n_lines=2, machines_per_line=3, jobs_per_machine=10,
                faults=FaultConfig(
                    process_fault_rate=0.08, sensor_fault_rate=0.08,
                    setup_anomaly_rate=0.05,
                ),
            )
        )
        by_length: dict = {}
        for machine in plant.iter_machines():
            for job in machine.jobs:
                for phase in job.phases:
                    for series in phase.series.values():
                        values = np.asarray(series.values, dtype=float)
                        by_length.setdefault(len(values), []).append(values)
        total = sum(len(rows) for rows in by_length.values())
        clean = sum(
            int(clean_rows(np.stack(rows), QualityPolicy()).sum())
            for rows in by_length.values()
        )
        assert total > 1000
        assert clean >= 0.95 * total


class TestSanitizeRows:
    def test_equals_per_row_sanitize_bitwise(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 50))
        X[0, 3] = np.nan
        X[1, :] = np.inf
        X[2, 7] = -np.inf
        X[3, ::5] = np.nan
        X[4, 0] = -0.0
        out = BaseDetector._sanitize_rows(X)
        assert out.shape == X.shape
        for got, row in zip(out, X):
            assert got.tobytes() == BaseDetector._sanitize(row).tobytes()

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            BaseDetector._sanitize_rows(np.zeros(4))
