"""Crash-consistent checkpoint / warm-restart: kill → resume ≡ uninterrupted.

The contract under test: a pipeline killed (``SIGKILL``, no cleanup) at
any snapshot boundary and warm-restarted from disk replays only the jobs
past the ingest watermark and ends byte-identical — reports, health,
*and* stats — to an uninterrupted run of the same workload, on every
executor and under chaos degradation.  Alongside the end-to-end
property: unit coverage of the atomic writer, the snapshot container
format (CRC, retention, versioning + migration, corrupt-file fallback),
the fitted-detector and stream-monitor state contracts, and the
post-ingest ``save_plant``/``load_plant`` round trip.
"""

from __future__ import annotations

import json
import pickle
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.atomic import write_atomic
from repro.core import CorrespondenceGraph
from repro.core.checkpoint import (
    _MAGIC,
    _MIGRATIONS,
    SNAPSHOT_SCHEMA,
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotStore,
    pack_detector,
    register_migration,
    resume_pipeline,
    unpack_detector,
)
from repro.core.pipeline import HierarchicalDetectionPipeline, PipelineConfig
from repro.detectors import BASELINE_ROWS, TABLE1_ROWS, make_detector
from repro.io import load_plant, reports_to_json, save_plant
from repro.plant import ChaosConfig, PlantConfig, inject_chaos, simulate_plant
from repro.streaming import StreamingSensorMonitor
from repro.synthetic import (
    make_point_dataset,
    make_sequence_dataset,
    make_series_collection,
)

SEEDS = (3, 11, 29)
REPO_ROOT = Path(__file__).resolve().parents[2]


def _plant(seed: int):
    return simulate_plant(
        PlantConfig(seed=seed, n_lines=2, machines_per_line=2, jobs_per_machine=4)
    )


def _chaotic(seed: int):
    dataset, __ = inject_chaos(
        _plant(seed), ChaosConfig(seed=0, sensor_dropout_rate=0.15)
    )
    return dataset


def _doc(pipeline) -> str:
    """Full byte-identity surface: reports + health + stats."""
    return reports_to_json(
        pipeline.run(), health=pipeline.health, stats=pipeline.stats()
    )


# ----------------------------------------------------------------------
# the atomic writer (satellite of the crash-consistency contract)
# ----------------------------------------------------------------------
class TestWriteAtomic:
    def test_writes_str_and_bytes(self, tmp_path):
        a = write_atomic(tmp_path / "a.txt", "héllo")
        b = write_atomic(tmp_path / "b.bin", b"\x00\x01")
        assert a.read_text(encoding="utf-8") == "héllo"
        assert b.read_bytes() == b"\x00\x01"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "x.json"
        write_atomic(target, "old")
        write_atomic(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        write_atomic(tmp_path / "y.txt", "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["y.txt"]

    def test_failed_write_cleans_up_and_keeps_old_content(self, tmp_path):
        target = tmp_path / "z.txt"
        write_atomic(target, "original")
        with pytest.raises(TypeError):
            write_atomic(target, 123)  # not str/bytes: fails mid-write
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["z.txt"]


# ----------------------------------------------------------------------
# snapshot container format
# ----------------------------------------------------------------------
def _craft_snapshot(path: Path, sections: dict, version: int,
                    schema: str = SNAPSHOT_SCHEMA) -> None:
    """Write a snapshot file at an arbitrary format version."""
    index, payloads, offset = [], [], 0
    for name, value in sections.items():
        blob = pickle.dumps(value, protocol=4)
        index.append({"name": name, "offset": offset, "length": len(blob),
                      "crc32": zlib.crc32(blob) & 0xFFFFFFFF})
        payloads.append(blob)
        offset += len(blob)
    header = json.dumps(
        {"schema": schema, "version": version, "meta": {}, "sections": index}
    ).encode("utf-8")
    path.write_bytes(b"".join(
        [_MAGIC, struct.pack(">Q", len(header)), header, *payloads]
    ))


class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        sections = {"alpha": {"x": 1}, "beta": [1.5, None, "s"]}
        path = store.save(sections, meta={"trigger": "manual"}, trigger="manual")
        assert path.name == "snapshot-00000001.snap"
        snapshot = store.load(path)
        assert snapshot.sections == sections
        assert snapshot.meta["trigger"] == "manual"
        assert snapshot.version == SNAPSHOT_VERSION

    def test_retention_keeps_newest_and_sequence_advances(self, tmp_path):
        store = SnapshotStore(tmp_path, retain=3)
        for i in range(5):
            store.save({"i": i})
        names = [p.name for p in store.snapshots()]
        assert names == [f"snapshot-{i:08d}.snap" for i in (3, 4, 5)]
        assert store.load_latest().sections == {"i": 4}
        store.save({"i": 5})
        assert store.load_latest().path.name == "snapshot-00000006.snap"

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="retain"):
            SnapshotStore(tmp_path, retain=0)

    def test_crc_mismatch_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save({"k": list(range(100))})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="CRC mismatch"):
            store.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save({"k": list(range(100))})
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SnapshotError, match="truncated"):
            store.load(path)

    def test_bad_magic_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = tmp_path / "snapshot-00000001.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 32)
        with pytest.raises(SnapshotError, match="bad magic"):
            store.load(path)

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "snapshot-00000001.snap"
        _craft_snapshot(path, {"k": 1}, SNAPSHOT_VERSION, schema="other/1")
        with pytest.raises(SnapshotError, match="foreign schema"):
            SnapshotStore(tmp_path).load(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "snapshot-00000001.snap"
        _craft_snapshot(path, {"k": 1}, SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotError, match="newer"):
            SnapshotStore(tmp_path).load(path)

    def test_load_latest_falls_back_past_corrupt_newest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"gen": "old"})
        newest = store.save({"gen": "new"})
        newest.write_bytes(b"torn" * 3)  # simulate a torn write
        snapshot = store.load_latest()
        assert snapshot.sections == {"gen": "old"}

    def test_load_latest_counts_corrupt_files(self, tmp_path):
        from repro.obs import to_prometheus

        store = SnapshotStore(tmp_path)
        store.save({"gen": "old"})
        store.save({"gen": "new"}).write_bytes(b"torn")
        store.load_latest()
        text = to_prometheus(store.telemetry.metrics)
        assert "repro_checkpoint_corrupt_total 1" in text

    def test_load_latest_none_when_nothing_valid(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.load_latest() is None
        (tmp_path / "snapshot-00000001.snap").write_bytes(b"torn")
        assert store.load_latest() is None


class TestMigrations:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        yield
        _MIGRATIONS.pop(0, None)

    def test_old_snapshot_upgrades_through_migration(self, tmp_path):
        path = tmp_path / "snapshot-00000001.snap"
        _craft_snapshot(path, {"legacy": 1}, version=0)

        @register_migration(0)
        def _upgrade(sections):
            return {"modern": sections["legacy"] + 1}

        snapshot = SnapshotStore(tmp_path).load(path)
        assert snapshot.sections == {"modern": 2}
        assert snapshot.version == SNAPSHOT_VERSION

    def test_missing_migration_step_is_an_error(self, tmp_path):
        path = tmp_path / "snapshot-00000001.snap"
        _craft_snapshot(path, {"legacy": 1}, version=0)
        with pytest.raises(SnapshotError, match="no migration"):
            SnapshotStore(tmp_path).load(path)


# ----------------------------------------------------------------------
# fitted-detector state round trip (all 29 registry detectors)
# ----------------------------------------------------------------------
_PTS = make_point_dataset(np.random.default_rng(42))
_SSQ = make_sequence_dataset(np.random.default_rng(42))
_TSS, _TSS_LABELS = make_series_collection(np.random.default_rng(42))


def _workload_for(entry):
    pts, ssq, tss = entry.capabilities()
    if pts:
        return _PTS.X
    if tss:
        return list(_TSS)
    return list(_SSQ.sequences)


class TestDetectorStateRoundTrip:
    @pytest.mark.parametrize("entry", TABLE1_ROWS + BASELINE_ROWS,
                             ids=lambda e: e.name)
    def test_state_dict_restores_identical_scores(self, entry):
        data = _workload_for(entry)
        fitted = entry.factory().fit(data)
        restored = make_detector(entry.name).load_state_dict(
            pack_detector(fitted)
        )
        np.testing.assert_array_equal(fitted.score(data), restored.score(data))

    def test_unpack_resolves_class_through_registry(self):
        fitted = make_detector("mad").fit(_PTS.X)
        restored = unpack_detector(pack_detector(fitted))
        assert type(restored) is type(fitted)
        np.testing.assert_array_equal(
            fitted.score(_PTS.X), restored.score(_PTS.X)
        )

    def test_malformed_state_rejected(self):
        det = make_detector("mad")
        with pytest.raises(ValueError, match="malformed"):
            det.load_state_dict({"format": det.state_format})
        with pytest.raises(ValueError):
            det.load_state_dict({"format": "other/9", "name": "mad", "attrs": {}})
        with pytest.raises(SnapshotError, match="name"):
            unpack_detector({"format": det.state_format, "attrs": {}})


# ----------------------------------------------------------------------
# streaming monitor state round trip
# ----------------------------------------------------------------------
def _pair_graph():
    graph = CorrespondenceGraph()
    graph.add_correspondence("a", "b", relation="redundant")
    return graph


def _interleave(a, b):
    return [
        sample
        for t in range(len(a))
        for sample in (("a", float(t), float(a[t])), ("b", float(t), float(b[t])))
    ]


class TestStreamMonitorState:
    def test_round_trip_preserves_positions_and_events(self):
        rng = np.random.default_rng(5)
        process = rng.normal(0, 1, 400)
        process[150] += 9.0
        process[320] += 9.0
        a = process + rng.normal(0, 0.1, 400)
        b = process + rng.normal(0, 0.1, 400)
        samples = _interleave(a, b)
        half = len(samples) // 2

        original = StreamingSensorMonitor(_pair_graph(), threshold=6.0)
        original.observe_block(samples[:half])
        state = original.state_dict()

        restored = StreamingSensorMonitor(
            _pair_graph(), threshold=6.0
        ).load_state_dict(state)
        original.observe_block(samples[half:])
        restored.observe_block(samples[half:])

        assert original.events == restored.events
        assert pickle.dumps(original.state_dict()) == pickle.dumps(
            restored.state_dict()
        )
        assert [e.time for e in original.reconsider_support()] == [
            e.time for e in restored.reconsider_support()
        ]

    def test_malformed_state_rejected(self):
        monitor = StreamingSensorMonitor(_pair_graph())
        with pytest.raises(ValueError):
            monitor.load_state_dict({"format": "repro.stream-state/1"})
        with pytest.raises(ValueError):
            monitor.load_state_dict({"format": "other/1", "channels": {}})


# ----------------------------------------------------------------------
# save_plant / load_plant keep post-ingest state (satellite 2)
# ----------------------------------------------------------------------
class TestPlantArchiveDirtyJobs:
    def test_round_trip_preserves_dirty_set_and_refresh_consumes_it(
        self, tmp_path
    ):
        full = _plant(SEEDS[0])
        base, arrivals = full.split_tail(1)
        for machine_id, job in arrivals:
            base.ingest_job(machine_id, job)
        assert base.dirty_jobs()

        path = save_plant(base, tmp_path / "mid_ingest.npz")
        loaded = load_plant(path)
        assert loaded.dirty_jobs() == base.dirty_jobs()

        pipeline = HierarchicalDetectionPipeline(loaded)
        summary = pipeline.context.refresh()
        assert summary["dirty_jobs"] == len(arrivals)
        cold = HierarchicalDetectionPipeline(_plant(SEEDS[0]))
        assert reports_to_json(
            pipeline.run(), health=pipeline.health
        ) == reports_to_json(cold.run(), health=cold.health)

    def test_clean_archive_has_no_dirty_jobs(self, tmp_path):
        full = _plant(SEEDS[0])
        loaded = load_plant(save_plant(full, tmp_path / "clean.npz"))
        assert loaded.dirty_jobs() == []


# ----------------------------------------------------------------------
# the headline property: kill at a snapshot boundary → resume ≡ cold
# ----------------------------------------------------------------------
def _interrupted_then_resumed(dataset, snap_dir, *, kill_after: int,
                              tail: int = 2, **config_kwargs):
    """Ingest ``kill_after`` arrivals, drop the process state, resume.

    Returns the resumed pipeline after it replayed the remaining tail
    from the snapshot watermark.
    """
    base, arrivals = dataset.split_tail(tail)
    victim = HierarchicalDetectionPipeline(
        base,
        config=PipelineConfig(checkpoint_dir=str(snap_dir), **config_kwargs),
    )
    for machine_id, job in arrivals[:kill_after]:
        victim.ingest_job(machine_id, job)
    del victim  # the "kill": nothing after the last snapshot survives

    resumed, summaries, snapshot = resume_pipeline(dataset, snap_dir)
    assert len(summaries) == len(arrivals) - kill_after
    return resumed


def _uninterrupted(dataset, *, tail: int = 2, **config_kwargs):
    base, arrivals = dataset.split_tail(tail)
    pipeline = HierarchicalDetectionPipeline(
        base, config=PipelineConfig(**config_kwargs)
    )
    for machine_id, job in arrivals:
        pipeline.ingest_job(machine_id, job)
    return pipeline


class TestPicklePaths:
    def test_old_module_paths_resolve_to_the_snapshotted_classes(self, tmp_path):
        # Snapshots pickle classes by module path, and those written before
        # the pipeline module was split (274c672 and earlier) name these
        # three under repro.core.pipeline.  If a path stopped resolving,
        # load_latest would count every such snapshot as corrupt and walk
        # past it, and a resume after an upgrade would find none usable.
        HierarchicalDetectionPipeline(
            _plant(3), config=PipelineConfig(checkpoint_dir=str(tmp_path))
        )
        snapshot = SnapshotStore(tmp_path).load_latest()
        assert snapshot is not None
        sections = snapshot.sections
        (__, trace), *__ = next(iter(sections["tasks"]["phase_out"].values()))[0]
        held = {
            "_Trace": type(trace),
            "PipelineStats": type(sections["caches"]["stats"]),
            "PipelineConfig": type(sections["meta"]["config"]),
        }
        for name, cls in held.items():
            # the GLOBAL opcode an old pickle stream carries for the class
            assert pickle.loads(f"crepro.core.pipeline\n{name}\n.".encode()) is cls


class TestCrashResumeByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_resume_matches_uninterrupted_run(self, seed, executor, tmp_path):
        workers = {} if executor == "serial" else {"max_workers": 2}
        kill_after = int(np.random.default_rng(seed).integers(0, 9))
        resumed = _interrupted_then_resumed(
            _plant(seed), tmp_path / "snaps", kill_after=kill_after,
            executor=executor, **workers,
        )
        reference = _uninterrupted(_plant(seed), executor=executor, **workers)
        assert _doc(resumed) == _doc(reference)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_resume_matches_under_chaos(self, seed, tmp_path):
        kill_after = int(np.random.default_rng(seed).integers(0, 9))
        resumed = _interrupted_then_resumed(
            _chaotic(seed), tmp_path / "snaps", kill_after=kill_after
        )
        reference = _uninterrupted(_chaotic(seed))
        assert _doc(resumed) == _doc(reference)

    def test_resume_matches_process_executor(self, tmp_path):
        # one seed: process pools are expensive, and the pickle boundary
        # either works or it doesn't
        resumed = _interrupted_then_resumed(
            _plant(SEEDS[0]), tmp_path / "snaps", kill_after=2, tail=1,
            executor="process", max_workers=2,
        )
        reference = _uninterrupted(
            _plant(SEEDS[0]), tail=1, executor="process", max_workers=2
        )
        assert _doc(resumed) == _doc(reference)

    def test_resume_without_tail_replays_nothing(self, tmp_path):
        dataset = _plant(SEEDS[0])
        HierarchicalDetectionPipeline(
            dataset, config=PipelineConfig(checkpoint_dir=str(tmp_path / "s"))
        )
        resumed, summaries, snapshot = resume_pipeline(dataset, tmp_path / "s")
        assert summaries == []
        assert snapshot.meta["trigger"] == "build"
        cold = HierarchicalDetectionPipeline(_plant(SEEDS[0]))
        assert reports_to_json(
            resumed.run(), health=resumed.health
        ) == reports_to_json(cold.run(), health=cold.health)

    def test_resume_with_empty_dir_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no usable snapshot"):
            resume_pipeline(_plant(SEEDS[0]), tmp_path / "empty")

    def test_checkpoint_every_batches_snapshots(self, tmp_path):
        dataset = _plant(SEEDS[0])
        base, arrivals = dataset.split_tail(2)
        pipeline = HierarchicalDetectionPipeline(
            base,
            config=PipelineConfig(
                checkpoint_dir=str(tmp_path / "s"),
                checkpoint_every=3,
                checkpoint_retain=100,
            ),
        )
        for machine_id, job in arrivals:
            pipeline.ingest_job(machine_id, job)
        # one build snapshot + one per 3 of the 8 refreshes
        assert len(pipeline.checkpoint.store.snapshots()) == 1 + len(arrivals) // 3

    def test_snapshot_with_a_pending_ingest_replays_that_job(self, tmp_path):
        # a job ingested but not yet refreshed is not scored: the snapshot's
        # watermark must leave it out, so the resume replays it
        full = _plant(SEEDS[0])
        base, arrivals = full.split_tail(1)
        pipeline = HierarchicalDetectionPipeline(
            base, config=PipelineConfig(checkpoint_dir=str(tmp_path / "s"))
        )
        pipeline.dataset.ingest_job(*arrivals[0])
        pipeline.checkpoint.snapshot("manual")
        resumed, summaries, __ = resume_pipeline(full, tmp_path / "s")
        assert len(summaries) == len(arrivals)
        cold = HierarchicalDetectionPipeline(_plant(SEEDS[0]))
        assert reports_to_json(
            resumed.run(), health=resumed.health
        ) == reports_to_json(cold.run(), health=cold.health)

    def test_watermark_must_be_subset_of_dataset(self):
        dataset = _plant(SEEDS[0])
        with pytest.raises(ValueError, match="absent"):
            dataset.split_at_watermark([("no-such-machine", 0)])


# ----------------------------------------------------------------------
# real SIGKILL through the CLI (the chaos harness end of the contract)
# ----------------------------------------------------------------------
def _repro_cli(*argv, cwd):
    import os

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, capture_output=True, text=True, env=env,
    )


class TestSigkillChaosCli:
    def test_kill_at_snapshot_boundary_then_resume_verifies(self, tmp_path):
        plant = tmp_path / "plant.npz"
        sim = _repro_cli(
            "simulate", "--seed", "11", "--lines", "1", "--machines", "2",
            "--jobs", "4", "--out", str(plant), cwd=tmp_path,
        )
        assert sim.returncode == 0, sim.stderr

        killed = _repro_cli(
            "detect", "--plant", str(plant),
            "--checkpoint-dir", str(tmp_path / "snaps"),
            "--ingest-tail", "2", "--chaos-kill-after", "2",
            cwd=tmp_path,
        )
        assert killed.returncode in (-9, 137), (
            f"expected SIGKILL, got rc={killed.returncode}: "
            f"{killed.stdout}{killed.stderr}"
        )
        assert list((tmp_path / "snaps").glob("snapshot-*.snap"))

        resumed = _repro_cli(
            "resume", "--plant", str(plant),
            "--checkpoint-dir", str(tmp_path / "snaps"), "--verify",
            cwd=tmp_path,
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "byte-identical" in resumed.stdout
        assert "replayed" in resumed.stdout

    def test_kill_requires_checkpoint_dir(self, tmp_path):
        proc = _repro_cli(
            "detect", "--seed", "3", "--chaos-kill-after", "1", cwd=tmp_path
        )
        assert proc.returncode == 2
        assert "--checkpoint-dir" in proc.stderr
