"""Executor-invariance suite: serial and process are one pipeline.

The engine's headline guarantee is that the executor is a pure
performance knob: the serialized reports — including the embedded
health record and stats tree — are *byte-identical* across both
executors, for every seed, and even when chaos fault injection degrades
the run.  Series levels are scored in same-length batches;
:class:`TestPerTraceReference` pins that path against recorded output of
the per-trace scoring it replaced.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from perfbench.checks import compare_reports, report_fields
from repro.core import ProductionLevel
from repro.core.pipeline import (
    HierarchicalDetectionPipeline,
    PipelineConfig,
)
from repro.core.resilience import SandboxPolicy
from repro.core.selection import AlgorithmSelector
from repro.io import reports_to_json
from repro.plant import (
    ChaosConfig,
    FaultConfig,
    PlantConfig,
    SensorSpec,
    inject_chaos,
    simulate_plant,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SEEDS = (3, 11, 29)


def _plant(seed: int):
    return simulate_plant(
        PlantConfig(seed=seed, n_lines=2, machines_per_line=2, jobs_per_machine=4)
    )


def _run_json(dataset, **config) -> str:
    pipeline = HierarchicalDetectionPipeline(
        dataset, config=PipelineConfig(**config)
    )
    reports = pipeline.run()
    return reports_to_json(reports, health=pipeline.health, stats=pipeline.stats())


class TestExecutorInvariance:
    def test_process_matches_serial_byte_for_byte(self):
        # one seed: process pools are expensive, and the pickle boundary
        # either works or it doesn't
        baseline = _run_json(_plant(SEEDS[0]), executor="serial")
        forked = _run_json(_plant(SEEDS[0]), executor="process", max_workers=2)
        assert forked == baseline

    def test_stats_tree_is_executor_invariant(self):
        docs = {
            executor: json.loads(
                _run_json(_plant(7), executor=executor, max_workers=2)
            )
            for executor in ("serial", "process")
        }
        assert (
            docs["serial"]["telemetry"]["stats"]
            == docs["process"]["telemetry"]["stats"]
        )
        parallel = docs["serial"]["telemetry"]["stats"]["parallel"]
        assert parallel["tasks"] > 0
        assert parallel["batch_groups"] > 0  # series levels score in groups


class TestHashSeedInvariance:
    """Reports must not depend on the process's string-hash seed.

    Regression for a ``for key in set(keys)`` loop in the plant simulator
    that consumed the RNG in hash order: every fresh interpreter produced
    slightly different setup perturbations, which read as an executor
    divergence at non-default start levels."""

    _SNIPPET = (
        "import hashlib, sys\n"
        "from repro.plant import PlantConfig, simulate_plant\n"
        "from repro.core import HierarchicalDetectionPipeline, PipelineConfig\n"
        "p = HierarchicalDetectionPipeline(\n"
        "    simulate_plant(PlantConfig(seed=11, n_lines=2,\n"
        "                               machines_per_line=2, jobs_per_machine=4)),\n"
        "    config=PipelineConfig(executor=sys.argv[1]))\n"
        "from repro.core import ProductionLevel\n"
        "from repro.io import reports_to_json\n"
        "doc = reports_to_json(p.run(start_level=ProductionLevel(3)),\n"
        "                      health=p.health)\n"
        "print(hashlib.sha256(doc.encode()).hexdigest())\n"
    )

    def _digest(self, hashseed: str, executor: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", self._SNIPPET, executor],
            capture_output=True, text=True, check=True, cwd=REPO_ROOT,
            env={
                "PYTHONHASHSEED": hashseed,
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )
        return proc.stdout.strip()

    def test_reports_survive_interpreter_restarts(self):
        digests = {
            self._digest(hashseed, executor)
            for hashseed in ("1", "2")
            for executor in ("serial", "process")
        }
        assert len(digests) == 1, "reports depend on PYTHONHASHSEED"


class TestChaosInvariance:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_degraded_runs_stay_executor_invariant(self, seed):
        def chaotic():
            dataset, __ = inject_chaos(
                _plant(seed), ChaosConfig(seed=0, sensor_dropout_rate=0.15)
            )
            return dataset

        baseline = _run_json(chaotic(), executor="serial")
        forked = _run_json(chaotic(), executor="process", max_workers=2)
        assert forked == baseline
        # the guarantee is only interesting if the run actually degraded
        health = json.loads(baseline)["telemetry"]["run_health"]
        assert health["quarantines"] or health["warnings"]


#: Recorded output of the per-trace series path (one detector fit per
#: trace), the scoring this suite's batch-only pipeline replaced.  Made
#: on the last version that still had it, with ``batch_scoring=False``:
#: per plant, perfbench's ``report_fields`` of every ranked report plus
#: the health record's fallbacks and quarantines.
REFERENCE = pathlib.Path(__file__).with_name("per_trace_reference.json")

#: four redundant chamber sensors, as in the chaos acceptance suite
CHAOS_SENSORS = (
    SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
    SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
    SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
    SensorSpec("chamber_temp", "degC", "chamber_temp", 0.4),
    SensorSpec("bed_temp", "degC", "bed_temp", 0.3),
)


def _chaos_acceptance_pipeline():
    """The chaos acceptance run at ``CHAOS_SEED=0``: 20% dropout, one
    targeted chamber twin, and ``chaos-raise`` first at PHASE."""
    dataset = simulate_plant(
        PlantConfig(
            seed=23, n_lines=1, machines_per_line=2, jobs_per_machine=4,
            sensors=CHAOS_SENSORS,
            faults=FaultConfig(
                process_fault_rate=0.6, sensor_fault_rate=0.0,
                setup_anomaly_rate=0.0,
            ),
        )
    )
    machine = next(dataset.iter_machines())
    group = machine.redundancy_groups()[f"{machine.machine_id}/chamber_temp"]
    chaotic, __ = inject_chaos(
        dataset,
        ChaosConfig(
            seed=0, sensor_dropout_rate=0.2, dropout_sensors=(group[-1].sensor_id,)
        ),
    )
    selector = AlgorithmSelector()
    selector.override(
        ProductionLevel.PHASE, ["chaos-raise", "ar", "deviants", "zscore"]
    )
    return HierarchicalDetectionPipeline(
        chaotic, selector=selector,
        config=PipelineConfig(sandbox=SandboxPolicy(max_attempts=1)),
    )


REFERENCE_PLANTS = {
    **{
        f"seed-{seed}": lambda seed=seed: HierarchicalDetectionPipeline(_plant(seed))
        for seed in SEEDS
    },
    "chaos-23": _chaos_acceptance_pipeline,
}


class TestPerTraceReference:
    """Batch-only scoring reproduces the per-trace path it replaced:
    ranks and discrete fields exactly, scores within the benchmark's own
    tolerance (``perfbench.checks.compare_reports``), and the same
    per-trace fallback and quarantine records in the same order."""

    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(REFERENCE.read_text(encoding="utf-8"))

    def test_reference_covers_every_plant(self, reference):
        assert sorted(reference) == sorted(REFERENCE_PLANTS)

    @pytest.mark.parametrize("plant", sorted(REFERENCE_PLANTS))
    def test_matches_recorded_reference(self, plant, reference):
        expected = reference[plant]
        pipeline = REFERENCE_PLANTS[plant]()
        doc = json.loads(reports_to_json(pipeline.run(), health=pipeline.health))
        got = [report_fields(row) for row in doc["reports"]]
        assert compare_reports(got, expected["reports"]) is None
        health = pipeline.health.as_dict()
        assert health["fallbacks"] == expected["fallbacks"]
        assert health["quarantines"] == expected["quarantines"]


class TestBatchedARKernel:
    def test_batched_solve_matches_per_series_fit(self):
        from repro.detectors.predictive.ar import ARDetector
        from repro.timeseries import TimeSeries

        rng = np.random.default_rng(5)
        series = [
            TimeSeries(values=rng.normal(size=96).cumsum(), start=0.0, step=1.0)
            for __ in range(6)
        ]
        batched = ARDetector(order=3).fit_score_series_batch(series)
        looped = [ARDetector(order=3).fit_score_series(s) for s in series]
        for got, want in zip(batched, looped):
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_ragged_lengths_fall_back_to_loop(self):
        from repro.detectors.predictive.ar import ARDetector
        from repro.timeseries import TimeSeries

        rng = np.random.default_rng(5)
        series = [
            TimeSeries(values=rng.normal(size=n).cumsum(), start=0.0, step=1.0)
            for n in (50, 64)
        ]
        batched = ARDetector(order=3).fit_score_series_batch(series)
        looped = [ARDetector(order=3).fit_score_series(s) for s in series]
        for got, want in zip(batched, looped):
            np.testing.assert_allclose(got, want)
