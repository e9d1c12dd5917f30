"""Unit tests for the CAQ quality model."""

from __future__ import annotations

import numpy as np

from repro.plant import CAQ_LIMITS, evaluate_caq
from repro.plant.model import PhaseRecord
from repro.timeseries import DiscreteSequence


def _phase(n=100):
    return PhaseRecord(
        name="printing",
        job_index=0,
        machine_id="m",
        start=0.0,
        series={},
        events=DiscreteSequence(("layer_start",)),
    )


def _signals(rng, chamber_noise=0.1, vibration_level=1.0):
    n = 200
    return {
        "chamber_temp": 68.0 + rng.normal(0, chamber_noise, n),
        "bed_temp": 92.0 + rng.normal(0, 0.1, n),
        "laser_power": 180.0 + rng.normal(0, 1.0, n),
        "vibration": np.abs(vibration_level + rng.normal(0, 0.05, n)),
    }


NOMINAL_SETUP = {
    "layer_height_um": 60.0,
    "scan_speed_mm_s": 900.0,
    "oxygen_ppm": 400.0,
    "powder_batch_age_d": 10.0,
}


class TestEvaluateCAQ:
    def test_nominal_job_passes(self, rng):
        caq = evaluate_caq(_phase(), NOMINAL_SETUP, _signals(rng), rng, noise=0.0)
        assert caq.passed
        assert caq.measurements["porosity_pct"] < CAQ_LIMITS["porosity_pct"]

    def test_unstable_chamber_worsens_dimension(self, rng):
        clean = evaluate_caq(_phase(), NOMINAL_SETUP, _signals(rng), rng, noise=0.0)
        noisy_signals = _signals(rng, chamber_noise=8.0)
        noisy = evaluate_caq(_phase(), NOMINAL_SETUP, noisy_signals, rng, noise=0.0)
        assert (
            noisy.measurements["dimension_error_um"]
            > clean.measurements["dimension_error_um"]
        )

    def test_vibration_drives_roughness(self, rng):
        calm = evaluate_caq(_phase(), NOMINAL_SETUP, _signals(rng, vibration_level=0.5), rng, noise=0.0)
        shaky = evaluate_caq(_phase(), NOMINAL_SETUP, _signals(rng, vibration_level=4.0), rng, noise=0.0)
        assert (
            shaky.measurements["surface_roughness_um"]
            > calm.measurements["surface_roughness_um"]
        )

    def test_bad_setup_raises_porosity(self, rng):
        bad = dict(NOMINAL_SETUP, oxygen_ppm=900.0, scan_speed_mm_s=1100.0)
        clean = evaluate_caq(_phase(), NOMINAL_SETUP, _signals(rng), rng, noise=0.0)
        dirty = evaluate_caq(_phase(), bad, _signals(rng), rng, noise=0.0)
        assert dirty.measurements["porosity_pct"] > clean.measurements["porosity_pct"]

    def test_tensile_anticorrelates_with_porosity(self, rng):
        bad = dict(NOMINAL_SETUP, oxygen_ppm=1200.0)
        clean = evaluate_caq(_phase(), NOMINAL_SETUP, _signals(rng), rng, noise=0.0)
        dirty = evaluate_caq(_phase(), bad, _signals(rng), rng, noise=0.0)
        assert dirty.measurements["tensile_mpa"] < clean.measurements["tensile_mpa"]

    def test_vector_ordering_stable(self, rng):
        caq = evaluate_caq(_phase(), NOMINAL_SETUP, _signals(rng), rng)
        keys = ("porosity_pct", "tensile_mpa")
        vec = caq.vector(keys)
        assert vec[0] == caq.measurements["porosity_pct"]
        assert vec[1] == caq.measurements["tensile_mpa"]
