"""Resilience layer: RunHealth, DetectorSandbox, quality gate, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ProductionLevel
from repro.core.resilience import (
    DetectorSandbox,
    FallbackEvent,
    QualityPolicy,
    RunHealth,
    SandboxOutcome,
    SandboxPolicy,
    assess_series,
    repair_series,
    robust_fallback_scores,
    robust_matrix_scores,
)
from repro.core.selection import AlgorithmSelector
from repro.detectors import (
    DataQualityError,
    DetectorError,
    DetectorTimeoutError,
    NotFittedError,
)


def _fallback(level="PHASE", unit="u", failed="ar", fallback="zscore"):
    return FallbackEvent(
        level=level, unit=unit, failed_detector=failed,
        error="DetectorError: boom", fallback=fallback,
    )


class TestRunHealth:
    def test_pristine(self):
        health = RunHealth()
        assert not health.degraded
        assert health.describe() == ""
        assert health.counters() == {
            "health_fallbacks": 0,
            "health_quarantines": 0,
            "health_dead_channels": 0,
            "health_warnings": 0,
            "health_degraded_levels": 0,
        }

    def test_record_fallback_and_quarantine(self):
        health = RunHealth()
        health.record_fallback(_fallback())
        health.record_quarantine("m0/temp-0", "m0/job1/printing", "nan-run: ...")
        health.record_quarantine("m0/temp-0", "channel", "no usable trace")
        assert health.degraded
        assert health.quarantined_channels == frozenset({"m0/temp-0"})
        assert health.dead_channels == frozenset({"m0/temp-0"})
        counters = health.counters()
        assert counters["health_fallbacks"] == 1
        assert counters["health_quarantines"] == 2
        assert counters["health_dead_channels"] == 1

    def test_warn_dedups_exact_repeats(self):
        health = RunHealth()
        health.warn("repaired x")
        health.warn("repaired x")
        health.warn("repaired y")
        assert health.warnings == ["repaired x", "repaired y"]

    def test_note_level_first_note_wins(self):
        health = RunHealth()
        health.note_level("PHASE", "robust baseline")
        health.note_level("PHASE", "something else")
        assert health.level_notes == {"PHASE": "robust baseline"}

    def test_as_dict_and_describe(self):
        health = RunHealth()
        health.record_fallback(_fallback())
        health.record_quarantine("c", "channel", "dead")
        health.warn("w")
        health.note_level("JOB", "degraded")
        doc = health.as_dict()
        assert doc["degraded"] is True
        assert doc["fallbacks"][0]["failed_detector"] == "ar"
        assert doc["quarantines"][0]["scope"] == "channel"
        assert doc["counters"]["health_warnings"] == 1
        text = health.describe()
        assert "DEGRADED" in text
        assert "quarantined c" in text
        assert "ar -> zscore" in text


class TestSandboxPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SandboxPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SandboxPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            SandboxPolicy(time_budget=0.0)
        SandboxPolicy(time_budget=None)  # None disables the budget


class _FakeClock:
    """Deterministic monotonic clock advancing a fixed tick per call."""

    def __init__(self, tick: float = 0.0) -> None:
        self.tick = tick
        self.t = 0.0

    def __call__(self) -> float:
        self.t += self.tick
        return self.t


class TestDetectorSandbox:
    def test_success_passes_value_through(self):
        outcome = DetectorSandbox(SandboxPolicy(time_budget=None)).call(lambda: 42)
        assert outcome.ok and outcome.value == 42
        assert outcome.attempts == 1 and not outcome.timed_out
        assert outcome.error_text == ""

    def test_transient_failure_retried_with_backoff(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise DetectorError("transient")
            return "ok"

        sandbox = DetectorSandbox(
            SandboxPolicy(time_budget=None, max_attempts=3, backoff_base=0.5),
            sleep=slept.append,
            clock=_FakeClock(),
        )
        outcome = sandbox.call(flaky)
        assert outcome.ok and outcome.value == "ok"
        assert outcome.attempts == 3
        # deterministic exponential backoff: base * 2**(k-1)
        assert slept == [0.5, 1.0]

    def test_transient_failure_exhausts_attempts(self):
        def broken():
            raise DetectorError("always")

        sandbox = DetectorSandbox(
            SandboxPolicy(time_budget=None, max_attempts=2), clock=_FakeClock()
        )
        outcome = sandbox.call(broken)
        assert not outcome.ok
        assert outcome.attempts == 2
        assert isinstance(outcome.error, DetectorError)
        assert outcome.error_text.startswith("DetectorError:")

    @pytest.mark.parametrize(
        "exc",
        [
            NotFittedError("x"),
            DataQualityError("bad input"),
            DetectorTimeoutError("x", 1.0),
        ],
        ids=["not-fitted", "data-quality", "timeout"],
    )
    def test_permanent_failures_never_retried(self, exc):
        calls = {"n": 0}

        def permanent():
            calls["n"] += 1
            raise exc

        sandbox = DetectorSandbox(
            SandboxPolicy(time_budget=None, max_attempts=5), clock=_FakeClock()
        )
        outcome = sandbox.call(permanent)
        assert not outcome.ok
        assert calls["n"] == 1 and outcome.attempts == 1

    def test_non_detector_exception_not_retried(self):
        calls = {"n": 0}

        def typo():
            calls["n"] += 1
            raise TypeError("coding bug")

        sandbox = DetectorSandbox(
            SandboxPolicy(time_budget=None, max_attempts=3), clock=_FakeClock()
        )
        outcome = sandbox.call(typo)
        assert not outcome.ok and calls["n"] == 1
        assert isinstance(outcome.error, TypeError)

    def test_soft_budget_flags_late_result_as_timeout(self):
        # each clock() call advances 10s; budget 1s; the call "succeeds"
        # but far too late to trust the detector with the rest of the level
        sandbox = DetectorSandbox(
            SandboxPolicy(time_budget=1.0, max_attempts=1), clock=_FakeClock(10.0)
        )
        outcome = sandbox.call(lambda: "late", label="slowpoke")
        assert not outcome.ok
        assert outcome.timed_out
        assert isinstance(outcome.error, DetectorTimeoutError)
        assert "slowpoke" in str(outcome.error)

    def test_hard_timeout_abandons_hanging_call(self):
        import time as _time

        sandbox = DetectorSandbox(
            SandboxPolicy(time_budget=0.05, max_attempts=1, hard_timeout=True)
        )
        started = _time.monotonic()
        outcome = sandbox.call(lambda: _time.sleep(5.0), label="hang")
        assert _time.monotonic() - started < 2.0  # did not wait the 5 s out
        assert not outcome.ok and outcome.timed_out
        assert isinstance(outcome.error, DetectorTimeoutError)

    def test_hard_timeout_relays_worker_exception(self):
        def broken():
            raise DetectorError("from the worker thread")

        sandbox = DetectorSandbox(
            SandboxPolicy(time_budget=5.0, max_attempts=1, hard_timeout=True)
        )
        outcome = sandbox.call(broken)
        assert not outcome.ok
        assert isinstance(outcome.error, DetectorError)
        assert not outcome.timed_out


class TestAssessSeries:
    def test_clean_trace_has_no_issues(self, rng):
        assert assess_series(rng.normal(size=200)) == []

    def test_too_short(self):
        issues = assess_series(np.arange(3.0))
        assert [i.code for i in issues] == ["too-short"]
        assert issues[0].fatal

    def test_all_missing(self):
        issues = assess_series(np.full(50, np.nan))
        assert [i.code for i in issues] == ["all-missing"]
        assert issues[0].fatal

    def test_nan_fraction_fatal(self, rng):
        x = rng.normal(size=100)
        x[::2] = np.nan
        x[1::4] = np.nan  # 75% missing
        codes = {i.code: i.fatal for i in assess_series(x)}
        assert codes.get("nan-fraction") is True

    def test_long_nan_run_fatal(self, rng):
        x = rng.normal(size=200)
        x[50:90] = np.nan  # run of 40 > max_nan_run 32, fraction only 20%
        codes = {i.code: i.fatal for i in assess_series(x)}
        assert codes.get("nan-run") is True

    def test_short_gap_is_benign(self, rng):
        x = rng.normal(size=200)
        x[50:55] = np.nan
        issues = assess_series(x)
        assert [(i.code, i.fatal) for i in issues] == [("gap", False)]

    def test_inf_is_benign_non_finite(self, rng):
        x = rng.normal(size=200)
        x[10] = np.inf
        codes = {i.code: i.fatal for i in assess_series(x)}
        assert codes.get("non-finite") is False

    def test_flatline_fatal(self, rng):
        x = rng.normal(size=200)
        x[100:160] = 3.25  # stuck for 60 > flatline_run 40
        codes = {i.code: i.fatal for i in assess_series(x)}
        assert codes.get("flatline") is True

    def test_length_mismatch(self, rng):
        x = rng.normal(size=150)
        issues = assess_series(x, expected_length=200)
        assert issues[0].code == "length-mismatch" and issues[0].fatal

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            QualityPolicy(max_nan_fraction=0.0)
        with pytest.raises(ValueError):
            QualityPolicy(flatline_run=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flatline_tolerance", float("nan")),
            ("flatline_tolerance", float("inf")),
            ("flatline_tolerance", -1.0),
            ("repair_max_gap", -1),
        ],
    )
    def test_policy_rejects_values_that_disable_checks(self, field, value):
        # a NaN or negative tolerance let a 60-sample stuck run pass the gate
        with pytest.raises(ValueError, match=field):
            QualityPolicy(**{field: value})

    def test_stuck_run_caught_at_zero_tolerance_and_gap(self, rng):
        x = rng.normal(size=200)
        x[100:160] = 3.25
        policy = QualityPolicy(flatline_tolerance=0.0, repair_max_gap=0)
        assert [i.code for i in assess_series(x, policy)] == ["flatline"]


class TestRepairSeries:
    def test_clean_input_untouched(self, rng):
        x = rng.normal(size=100)
        repaired, notes = repair_series(x)
        assert notes == []
        assert np.array_equal(repaired, x)

    def test_short_gap_interpolated(self):
        x = np.arange(50.0)
        x[20:24] = np.nan
        repaired, notes = repair_series(x)
        assert np.allclose(repaired, np.arange(50.0))
        assert any("interpolated 4" in n for n in notes)
        assert np.isnan(x[20])  # input never mutated

    def test_long_gap_left_missing(self):
        x = np.arange(60.0)
        x[20:40] = np.nan  # 20 > repair_max_gap 8
        repaired, __ = repair_series(x)
        assert np.isnan(repaired[25])

    def test_inf_becomes_missing_then_interpolated(self):
        x = np.arange(30.0)
        x[10] = np.inf
        repaired, notes = repair_series(x)
        assert np.allclose(repaired, np.arange(30.0))
        assert any("infinite" in n for n in notes)


class TestRobustBaseline:
    def test_scores_spike_on_outlier(self, rng):
        x = rng.normal(size=300)
        x[42] = 30.0
        scores = robust_fallback_scores(x)
        assert scores.argmax() == 42
        assert np.isfinite(scores).all()

    def test_missing_samples_score_zero(self, rng):
        x = rng.normal(size=100)
        x[7] = np.nan
        assert robust_fallback_scores(x)[7] == 0.0

    def test_degenerate_inputs(self):
        assert robust_fallback_scores(np.empty(0)).shape == (0,)
        assert np.array_equal(robust_fallback_scores(np.full(10, np.nan)), np.zeros(10))
        # constant series must not divide by zero
        assert np.isfinite(robust_fallback_scores(np.full(50, 5.0))).all()

    def test_matrix_scores_flag_outlier_row(self, rng):
        X = rng.normal(size=(40, 5))
        X[13] = 25.0
        scores = robust_matrix_scores(X)
        assert scores.argmax() == 13

    def test_matrix_scores_survive_dead_column(self, rng):
        X = rng.normal(size=(30, 4))
        X[:, 2] = np.nan  # all-missing column: no RuntimeWarning allowed
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = robust_matrix_scores(X)
        assert np.isfinite(scores).all()


class TestFallbackChain:
    def test_terminals_appended(self):
        selector = AlgorithmSelector()
        chain = selector.fallback_chain(ProductionLevel.PHASE)
        assert chain[: len(selector.preferences_for(ProductionLevel.PHASE))] == [
            "ar", "deviants", "zscore",
        ]
        assert "mad" in chain  # terminal robust baseline appended
        assert chain[-2:] == ["mad", "zscore"] or chain[-1] == "mad"

    def test_no_duplicate_terminals(self):
        chain = AlgorithmSelector().fallback_chain(ProductionLevel.PRODUCTION)
        assert chain.count("mad") == 1
        assert chain.count("zscore") == 1

    def test_extend_false_matches_choose(self):
        selector = AlgorithmSelector()
        for level in ProductionLevel:
            chain = selector.fallback_chain(level, extend=False)
            assert chain  # every level has at least one fitting preference
            assert selector.choose(level).name == chain[0]

    def test_override_flows_into_chain(self):
        selector = AlgorithmSelector()
        selector.override(ProductionLevel.PHASE, ["zscore"])
        chain = selector.fallback_chain(ProductionLevel.PHASE)
        assert chain[0] == "zscore"
        assert "mad" in chain


class TestSandboxOutcome:
    def test_error_text_formats_class_and_message(self):
        outcome = SandboxOutcome(ok=False, error=DetectorError("boom"))
        assert outcome.error_text == "DetectorError: boom"
