"""Untimed set-up of one benchmark run, in its own interpreter.

1. Compile the run's private copy of ``src`` to bytecode, so imports are
   timed against fresh bytecode of the tree under test and never against
   a stale or missing ``__pycache__`` of the checkout.
2. Simulate the workload's plant from the seed and save it as an archive:
   the measured processes only ever see that archive.
3. Fetch the stored reference outputs of the seed, or compute them with a
   serial cold build of the archive when none is stored.

Archives and computed references are cached per seed under a key made of
the trees of ``src`` and of the benchmark, so only a run of a new seed or a
changed tree pays for them.

``run.py`` calls it; to re-record the shipped references, run from the
repository root::

    PYTHONPATH=src python3 perfbench/prepare.py --record
"""

from __future__ import annotations

import argparse
import compileall
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from checks import compare_reports, event_fields, read_json, report_fields, write_json
from workloads import (
    TAIL,
    WORKLOADS,
    IngestRefresh,
    PlantScan,
    StreamReplay,
    plant_config,
    report_rows,
)

REFS = Path(__file__).resolve().parent / "refs"


def ref_path(workload: str, seed: int) -> Path:
    return REFS / f"{workload}-{seed}.json.gz"


def _fields(payload: str) -> list:
    return [report_fields(row) for row in report_rows(payload)]


def _cold(plant) -> list:
    return _fields(PlantScan(plant, "serial").op())


def compute_reference(workload: str, plant, record: bool = False) -> dict:
    """Reference output of every op position, from serial builds of the archive.

    ``ingest_refresh`` replays the arrivals on a serial pipeline and checks
    the final state against a cold build; ``record`` checks every state
    against its own cold build.
    """
    if workload == "stream_replay":
        replay = StreamReplay(plant)
        replay.shape_inputs(plant)
        outputs = []
        while not replay.exhausted:
            outputs.append([event_fields(e) for e in replay.op()])
        return {"outputs": outputs}
    if workload != "ingest_refresh":
        return {"outputs": [_cold(plant)]}
    replay = IngestRefresh(plant, "serial")
    states = []
    while not replay.exhausted:
        states.append(_fields(replay.op()))
    for k in range(1, len(states) + 1) if record else [len(states)]:
        dataset, arrivals = plant.split_tail(TAIL)
        for machine_id, job in arrivals[:k]:
            dataset.ingest_job(machine_id, job)
        problem = compare_reports(states[k - 1], _cold(dataset))
        if problem:
            raise SystemExit(f"reference: arrival {k} disagrees with a cold build: {problem}")
    return {"outputs": states}


def _simulate(workload: str, seed: int, archive: Path):
    """Simulate the plant, save it, and read it back as the program will."""
    from repro.io import load_plant, save_plant
    from repro.plant import FaultKind, simulate_plant

    save_plant(simulate_plant(plant_config(workload, seed)), archive)
    plant = load_plant(archive)
    truth = sorted(
        [f.machine_id, f.job_index, f.phase_name]
        for f in plant.faults if f.kind is FaultKind.PROCESS
    )
    return plant, truth


def prepare(workload: str, seed: int, run_dir: Path, cache: Path) -> dict:
    """Inputs and reference of one run, reusing ``cache`` (keyed by the trees
    of ``src`` and the benchmark) across runs of the same seed.  Entries are
    written in the run directory and renamed into the cache, so a killed
    run never leaves half an entry."""
    compileall.compile_dir(str(run_dir / "src"), quiet=1)
    shape = WORKLOADS[workload][0]
    archive = cache / f"{shape}-{seed}.npz"
    truth_file = cache / f"{shape}-{seed}.truth.json"
    versions_file = cache / "versions.json"
    stored = ref_path(workload, seed)
    reference = stored if stored.exists() else cache / f"{workload}-{seed}.ref.json"
    source = f"stored {stored.name}" if stored.exists() else "live serial cold build"
    plant = None
    if not versions_file.exists():
        import numpy
        import scipy

        write_json(run_dir / "versions.json", {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__})
        (run_dir / "versions.json").replace(versions_file)
    if not (archive.exists() and truth_file.exists()):
        plant, truth = _simulate(workload, seed, run_dir / "plant.npz")
        write_json(run_dir / "truth.json", truth)
        (run_dir / "plant.npz").replace(archive)
        (run_dir / "truth.json").replace(truth_file)
    if not reference.exists():
        if plant is None:
            from repro.io import load_plant

            plant = load_plant(archive)
        write_json(run_dir / "reference.json", compute_reference(workload, plant))
        (run_dir / "reference.json").replace(reference)
    return {
        "workload": workload,
        "seed": seed,
        "archive": str(archive),
        "archive_bytes": archive.stat().st_size,
        "truth": read_json(truth_file),
        "reference": str(reference),
        "reference_source": source,
        "versions": read_json(versions_file),
    }


def record() -> None:
    """Write ``refs/<workload>-<default seed>.json.gz`` for every workload."""
    REFS.mkdir(exist_ok=True)
    Path(".perfbench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="refs-", dir=".perfbench_work"))
    try:
        for workload, (__, seed, __) in WORKLOADS.items():
            plant, __ = _simulate(workload, seed, scratch / "plant.npz")
            write_json(ref_path(workload, seed), compute_reference(workload, plant, record=True))
            print(f"recorded {ref_path(workload, seed)}")
    finally:
        shutil.rmtree(scratch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--cache", type=Path)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    doc = prepare(args.workload, args.seed, args.run_dir, args.cache)
    (args.run_dir / "prepared.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
