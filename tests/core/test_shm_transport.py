"""Task-transport suite.

Covers the pipeline's two process transports (fork inheritance, and
pickling where fork is missing) — both byte-identical with serial — and
the shared-memory arena
``repro.core.shm``, which the pipeline no longer uses but which stays as
long as perfbench traces it: its round trip (fidelity, dedup, alignment,
lifecycle) and segment hygiene, including the resource-tracker cleanup
path when the owning process dies by SIGKILL.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import parallel, shm
from repro.core.pipeline import HierarchicalDetectionPipeline, PipelineConfig
from repro.io import reports_to_json
from repro.plant import PlantConfig, simulate_plant
from repro.timeseries import TimeSeries

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _leaked_segments():
    if not os.path.isdir("/dev/shm"):
        return []
    return glob.glob("/dev/shm/repro_shm_*")


def _plant(seed: int):
    return simulate_plant(
        PlantConfig(seed=seed, n_lines=2, machines_per_line=2, jobs_per_machine=4)
    )


def _run(dataset, **config):
    pipeline = HierarchicalDetectionPipeline(dataset, config=PipelineConfig(**config))
    reports = pipeline.run()
    payload = reports_to_json(
        reports, health=pipeline.health, stats=pipeline.stats()
    )
    return pipeline, payload


class TestArenaRoundTrip:
    def test_nested_payload_round_trips(self):
        values = np.arange(48.0)
        series = TimeSeries(values=values, start=2.0, step=0.5, name="s1", unit="mm")
        payload = (
            "phase",
            series,
            [np.array([1.5, 2.5]), {"scores": np.zeros((3, 2)), "n": 7}],
        )
        arena, encoded = shm.ShmArena.publish({"task": payload})
        try:
            wrapped = encoded["task"]
            assert isinstance(wrapped, shm.ShmPayload)
            assert wrapped.block == arena.block_name
            decoded, seconds, shared = shm.resolve_payload(wrapped)
            assert seconds >= 0.0
            assert shared == wrapped.shared_bytes > 0
            kind, got_series, [arr, mapping] = decoded
            assert kind == "phase"
            np.testing.assert_array_equal(got_series.values, values)
            assert (got_series.start, got_series.step) == (2.0, 0.5)
            assert (got_series.name, got_series.unit) == ("s1", "mm")
            np.testing.assert_array_equal(arr, [1.5, 2.5])
            np.testing.assert_array_equal(mapping["scores"], np.zeros((3, 2)))
            assert mapping["n"] == 7
        finally:
            arena.dispose()
        assert _leaked_segments() == []

    def test_identity_dedup_stores_shared_array_once(self):
        values = np.arange(1024.0)
        arena, __ = shm.ShmArena.publish({"a": (values,), "b": (values, values)})
        try:
            # one stored copy regardless of how many payloads reference it
            assert arena.total_bytes < 2 * values.nbytes
            assert arena.total_bytes >= values.nbytes
        finally:
            arena.dispose()

    def test_array_free_payload_passes_through(self):
        payload = ("job", {"names": ["a", "b"], "k": 3})
        arena, encoded = shm.ShmArena.publish({"task": payload})
        assert encoded["task"] is payload
        assert arena.block_name == ""
        assert arena.total_bytes == 0
        resolved, seconds, shared = shm.resolve_payload(payload)
        assert resolved is payload
        assert (seconds, shared) == (0.0, 0)
        arena.dispose()  # no-op

    def test_empty_array_round_trips(self):
        arena, encoded = shm.ShmArena.publish({"t": np.empty((0, 4))})
        try:
            decoded, __, __ = shm.resolve_payload(encoded["t"])
            assert decoded.shape == (0, 4)
        finally:
            arena.dispose()

    def test_deterministic_block_naming(self):
        arena, __ = shm.ShmArena.publish({"t": np.ones(8)})
        try:
            assert re.fullmatch(rf"repro_shm_{os.getpid()}_\d+", arena.block_name)
        finally:
            arena.dispose()

    def test_dispose_is_idempotent(self):
        arena, __ = shm.ShmArena.publish({"t": np.ones(8)})
        arena.dispose()
        arena.dispose()
        assert _leaked_segments() == []


class TestPipelineTransport:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_process_fork_byte_identical_with_serial(self):
        __, baseline = _run(_plant(3), executor="serial")
        proc, forked = _run(_plant(3), executor="process", max_workers=2)
        assert forked == baseline
        es = proc.context.engine_stats()
        # the workers inherited every payload: nothing pickled, nothing shared
        assert es.bytes_pickled == 0
        assert es.bytes_shared == 0
        assert es.as_dict()["transport"]["mode"] == "fork"
        assert _leaked_segments() == []
        # every task's CPU seconds, measured in its worker, came back
        assert list(es.task_cpu_seconds) == list(es.task_seconds)
        assert len(es.task_seconds) == es.n_tasks

    def test_pickle_transport_byte_identical_with_serial(self, monkeypatch):
        # the transport of platforms without fork, forced
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        __, baseline = _run(_plant(3), executor="serial")
        proc, copied = _run(_plant(3), executor="process", max_workers=2)
        assert copied == baseline
        es = proc.context.engine_stats()
        assert es.as_dict()["transport"]["mode"] == "pickle"
        assert es.bytes_shared == 0
        # the trace arrays themselves cross the pickle boundary (this
        # plant's trace payloads alone exceed 100 kB)
        assert es.bytes_pickled > 100_000

    def test_serial_does_not_touch_shm(self):
        ctx, __ = _run(_plant(3), executor="serial")
        es = ctx.context.engine_stats()
        assert es.bytes_shared == 0
        assert es.bytes_pickled == 0
        assert _leaked_segments() == []


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm mount"
)
class TestSigkillCleanup:
    def test_resource_tracker_reaps_segments_after_sigkill(self, tmp_path):
        """Kill -9 the publishing process mid-run: the (surviving)
        resource tracker must unlink the segment — no /dev/shm leak."""
        script = tmp_path / "publisher.py"
        script.write_text(
            "import sys, time\n"
            "import numpy as np\n"
            "from repro.core import shm\n"
            "arena, __ = shm.ShmArena.publish({'t': np.arange(4096.0)})\n"
            "print(arena.block_name, flush=True)\n"
            "time.sleep(120)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        child = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            name = child.stdout.readline().strip()
            assert name.startswith("repro_shm_")
            segment = pathlib.Path("/dev/shm") / name
            assert segment.exists()
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
            deadline = time.monotonic() + 30.0
            while segment.exists() and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not segment.exists(), "resource tracker leaked the segment"
        finally:
            if child.poll() is None:
                child.kill()
            child.stdout.close()
