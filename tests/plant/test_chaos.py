"""Chaos harness: seeded infrastructure faults and detector wrappers."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.resilience import DetectorSandbox, SandboxPolicy
from repro.detectors import DetectorError, get_detector, make_detector
from repro.detectors.registry import register_detector
from repro.plant import (
    ChaosConfig,
    ChaosEvent,
    FaultConfig,
    FlakyDetector,
    HangingDetector,
    PlantConfig,
    RaisingDetector,
    inject_chaos,
    simulate_plant,
)
from repro.timeseries import TimeSeries


@pytest.fixture(scope="module")
def plant():
    config = PlantConfig(
        seed=31, n_lines=1, machines_per_line=2, jobs_per_machine=3,
        faults=FaultConfig(0.0, 0.0, 0.0),
    )
    return simulate_plant(config)


def _all_values(dataset):
    out = {}
    for machine in dataset.iter_machines():
        for job in machine.jobs:
            for phase in job.phases:
                for sensor_id, ts in phase.series.items():
                    out[(machine.machine_id, job.job_index, phase.name, sensor_id)] = (
                        ts.values.copy()
                    )
    return out


class TestChaosConfig:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(sensor_dropout_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(nan_burst_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(nan_burst_length=0)

    def test_event_describe(self):
        event = ChaosEvent("dropout", "m0/temp-0", "m0", 2, "printing", "dead")
        assert "m0/job2/printing" in event.describe()


class TestDeterminism:
    def test_same_seed_same_faults(self, plant):
        config = ChaosConfig(
            seed=5, sensor_dropout_rate=0.3, nan_burst_rate=0.2,
            stuck_rate=0.1, truncate_rate=0.1,
        )
        a, events_a = inject_chaos(plant, config)
        b, events_b = inject_chaos(plant, config)
        assert events_a == events_b
        va, vb = _all_values(a), _all_values(b)
        assert va.keys() == vb.keys()
        for key in va:
            assert np.array_equal(va[key], vb[key], equal_nan=True)

    def test_different_seed_different_faults(self, plant):
        __, events_a = inject_chaos(
            plant, ChaosConfig(seed=1, sensor_dropout_rate=0.3)
        )
        __, events_b = inject_chaos(
            plant, ChaosConfig(seed=2, sensor_dropout_rate=0.3)
        )
        assert events_a != events_b

    def test_input_dataset_never_mutated(self, plant):
        before = _all_values(plant)
        inject_chaos(
            plant,
            ChaosConfig(seed=3, sensor_dropout_rate=0.5, nan_burst_rate=0.5,
                        stuck_rate=0.5, truncate_rate=0.5),
        )
        after = _all_values(plant)
        for key in before:
            assert np.array_equal(before[key], after[key], equal_nan=True)

    def test_untouched_series_are_shared(self, plant):
        chaotic, events = inject_chaos(plant, ChaosConfig(seed=0))
        assert events == []
        for machine, faulted in zip(plant.iter_machines(), chaotic.iter_machines()):
            for job, fjob in zip(machine.jobs, faulted.jobs):
                for phase, fphase in zip(job.phases, fjob.phases):
                    for sensor_id, ts in phase.series.items():
                        assert fphase.series[sensor_id] is ts


class TestFaultKinds:
    def test_full_dropout_kills_every_channel(self, plant):
        chaotic, events = inject_chaos(
            plant, ChaosConfig(seed=0, sensor_dropout_rate=1.0)
        )
        assert all(e.kind == "dropout" for e in events)
        for values in _all_values(chaotic).values():
            assert np.isnan(values).all()

    def test_targeted_dropout_of_phase_sensor(self, plant):
        victim = next(plant.iter_machines()).channels[0].sensor_id
        chaotic, events = inject_chaos(
            plant, ChaosConfig(seed=0, dropout_sensors=(victim,))
        )
        assert {e.sensor_id for e in events} == {victim}
        for key, values in _all_values(chaotic).items():
            if key[3] == victim:
                assert np.isnan(values).all()
            else:
                assert not np.isnan(values).all()

    def test_targeted_dropout_of_environment_channel(self, plant):
        line = plant.lines[0]
        kind = sorted(line.environment)[0]
        channel_id = f"{line.line_id}/env/{kind}"
        chaotic, events = inject_chaos(
            plant, ChaosConfig(seed=0, dropout_sensors=(channel_id,))
        )
        assert np.isnan(chaotic.lines[0].environment[kind].values).all()
        assert any(e.sensor_id == channel_id and e.kind == "dropout" for e in events)

    def test_nan_burst(self, plant):
        chaotic, events = inject_chaos(
            plant, ChaosConfig(seed=0, nan_burst_rate=1.0, nan_burst_length=20)
        )
        assert all(e.kind == "nan-burst" for e in events)
        assert events  # every trace drew a burst at rate 1.0
        for values in _all_values(chaotic).values():
            assert 1 <= np.isnan(values).sum() <= 20

    def test_stuck_at_holds_tail_constant(self, plant):
        chaotic, events = inject_chaos(plant, ChaosConfig(seed=0, stuck_rate=1.0))
        assert all(e.kind == "stuck-at" for e in events)
        for values in _all_values(chaotic).values():
            tail = values[len(values) // 2 :]
            assert np.ptp(tail) == 0.0  # held at one level

    def test_truncate_shortens_traces(self, plant):
        original = _all_values(plant)
        chaotic, events = inject_chaos(plant, ChaosConfig(seed=0, truncate_rate=1.0))
        assert all(e.kind == "truncate" for e in events)
        for key, values in _all_values(chaotic).items():
            assert 2 <= len(values) < len(original[key])


class TestDetectorWrappers:
    def test_raising_detector_always_fails(self, rng):
        with pytest.raises(DetectorError, match="injected detector failure"):
            RaisingDetector().fit_score(rng.normal(size=(30, 3)))

    def test_flaky_detector_recovers_after_reset_count(self, rng):
        X = rng.normal(size=(30, 3))
        FlakyDetector.reset(2)
        try:
            with pytest.raises(DetectorError):
                FlakyDetector().fit_score(X)
            with pytest.raises(DetectorError):
                FlakyDetector().fit_score(X)
            scores = FlakyDetector().fit_score(X)  # third call succeeds
            assert np.isfinite(scores).all()
        finally:
            FlakyDetector.reset(0)

    def test_flaky_detector_retried_to_success_by_sandbox(self, rng):
        X = rng.normal(size=(30, 3))
        FlakyDetector.reset(1)
        try:
            sandbox = DetectorSandbox(SandboxPolicy(time_budget=None, max_attempts=2))
            outcome = sandbox.call(lambda: FlakyDetector().fit_score(X))
            assert outcome.ok and outcome.attempts == 2
        finally:
            FlakyDetector.reset(0)

    def test_hanging_detector_hits_hard_timeout(self, rng):
        X = rng.normal(size=(30, 3))
        old_delay = HangingDetector.delay
        HangingDetector.delay = 0.5
        try:
            sandbox = DetectorSandbox(
                SandboxPolicy(time_budget=0.05, max_attempts=1, hard_timeout=True)
            )
            outcome = sandbox.call(lambda: HangingDetector().fit_score(X))
            assert not outcome.ok and outcome.timed_out
        finally:
            HangingDetector.delay = old_delay

    def test_wrappers_resolvable_by_name(self):
        assert isinstance(make_detector("chaos-raise"), RaisingDetector)
        assert isinstance(make_detector("chaos-flaky"), FlakyDetector)
        assert get_detector("chaos-hang").cls is HangingDetector

    def test_register_detector_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_detector(RaisingDetector)
        # but replace=True re-registers idempotently
        entry = register_detector(RaisingDetector, citation="chaos harness",
                                  replace=True)
        assert entry.name == "chaos-raise"

    def test_wrappers_absent_from_table1(self):
        from repro.detectors import TABLE1_ROWS, capability_table

        names = {row["detector"] for row in capability_table()}
        assert {"chaos-raise", "chaos-flaky", "chaos-hang"}.isdisjoint(names)
        assert all(e.name != "chaos-raise" for e in TABLE1_ROWS)


def _outcome(call):
    """``(value, error text)`` of one detector call."""
    try:
        return call(), None
    except DetectorError as exc:
        return None, str(exc)


class TestWrappersOnTheBatchPath:
    """A batched series call injects each wrapper's fault exactly as the
    scalar ``fit_score_series`` loop does: the wrappers must not inherit
    MAD's batch kernel, which never reaches their ``_fit_matrix``."""

    @pytest.fixture
    def series(self, rng):
        return [
            TimeSeries(values=rng.normal(size=64).cumsum(), start=0.0, step=1.0)
            for __ in range(3)
        ]

    def test_raising_detector_raises(self, series):
        scalar = _outcome(lambda: [RaisingDetector().fit_score_series(s) for s in series])
        batch = _outcome(lambda: RaisingDetector().fit_score_series_batch(series))
        assert batch == scalar == (None, "chaos: injected detector failure")

    @pytest.mark.parametrize("failures", [0, 1, 2, 5])
    def test_flaky_detector_flakes(self, series, failures):
        try:
            FlakyDetector.reset(failures)
            detector = FlakyDetector()
            scalar, scalar_error = _outcome(
                lambda: [detector.fit_score_series(s) for s in series]
            )
            scalar_left = FlakyDetector.failures_remaining
            FlakyDetector.reset(failures)
            batch, batch_error = _outcome(
                lambda: FlakyDetector().fit_score_series_batch(series)
            )
            assert FlakyDetector.failures_remaining == scalar_left
        finally:
            FlakyDetector.reset(0)
        assert batch_error == scalar_error
        assert (batch is None) == (failures > 0)
        if batch is not None:
            for got, want in zip(batch, scalar):
                np.testing.assert_array_equal(got, want)

    def test_hanging_detector_waits_per_series(self, series):
        old_delay = HangingDetector.delay
        HangingDetector.delay = 0.05
        try:
            started = time.perf_counter()
            batch = HangingDetector().fit_score_series_batch(series)
            elapsed = time.perf_counter() - started
        finally:
            HangingDetector.delay = old_delay
        assert elapsed >= len(series) * 0.05
        for got, s in zip(batch, series):
            np.testing.assert_array_equal(got, make_detector("mad").fit_score_series(s))
