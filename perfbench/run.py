"""The repository's benchmark: four closed-loop workloads, one client each.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_detect --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans around the program's public functions and reports
the per-layer metrics.  Every op's output is checked against a reference.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the extra per-workload figures
(tail percentile, throughput, failed-op share, fault AP) and the stamp.

Noise controls: a private, freshly compiled copy of ``src`` per run;
every measured process starts with a ``PYTHONHASHSEED`` from
:data:`HASH_SEEDS` (one long-lived process per listed seed, each measuring
an equal share of ``--seconds``); set-up is reported as the median over
those processes.  All files a run writes go to ``.perfbench_work/`` and are
removed when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import median, parse_importtime, percentile, tail_percentile
from tracing import span_metric_targets
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = ".perfbench_work"

#: PYTHONHASHSEED of the measured processes, the same on every run
HASH_SEEDS = (0, 1, 2)

#: end-to-end metrics (untraced run) -> unit.  Throughput, not the median
#: latency, is the gated op metric: on a host whose speed flips between two
#: states every few seconds the median jumps between the modes from run to
#: run, while ops per busy second moves only with the share of slow time.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

#: per-layer metrics (traced run) -> unit
PER_LAYER = {
    "import.total_ms": "ms", "import.scipy_ms": "ms", "import.networkx_ms": "ms",
    "import.numpy_ms": "ms", "import.repro_self_ms": "ms", "interp.start_exit_ms": "ms",
    "cli.self_ms": "ms",
    "io.load_plant_ms": "ms", "io.plant_bytes": "bytes", "io.reports_to_json_ms": "ms",
    "io.report_bytes": "bytes", "io.manifest_ms": "ms",
    "plant.ingest_job_ms": "ms",
    "pipeline.build_ms": "ms", "pipeline.build_self_ms": "ms", "pipeline.refresh_ms": "ms",
    "pipeline.refresh_self_ms": "ms", "pipeline.dirty_tasks": "count",
    "pipeline.dirty_share": "ratio",
    "parallel.engine_run_ms": "ms", "parallel.tasks": "count", "parallel.workers": "count",
    "parallel.task_ms_sum": "ms", "parallel.worker_busy_share": "ratio",
    "parallel.overhead_ms": "ms",
    "shm.publish_ms": "ms", "shm.dispose_ms": "ms", "shm.bytes_shared": "bytes",
    "shm.bytes_pickled": "bytes", "shm.decode_ms_sum": "ms",
    "detectors.calls": "count", "detectors.fit_score_ms": "ms", "resilience.gate_ms": "ms",
    "resilience.fallbacks": "count", "resilience.quarantined": "count",
    "alg1.run_ms": "ms", "alg1.find_candidates_ms": "ms", "alg1.confirm_ms": "ms",
    "alg1.confirm_calls": "count", "alg1.support_ms": "ms", "alg1.support_calls": "count",
    "alg1.fuse_ms": "ms", "alg1.cache_hit_ratio": "ratio", "alg1.reports": "count",
    "support.corresponding_calls": "count", "support.corresponding_ms": "ms",
    "support.support_for_ms": "ms",
    "streaming.observe_block_self_ms": "ms", "streaming.events_per_ksample": "count",
    "streaming.stalls": "count",
    "obs.spans_retained": "count",
    "trace.overhead_pct": "%", "trace.unattributed_ms": "ms",
}

#: per-layer metrics derived from others -> the metrics they need
DERIVED = {
    "parallel.worker_busy_share": ("parallel.task_ms_sum", "parallel.engine_run_ms",
                                   "parallel.workers"),
    "parallel.overhead_ms": ("parallel.task_ms_sum", "parallel.engine_run_ms",
                             "parallel.workers"),
    "pipeline.dirty_share": ("pipeline.dirty_tasks",),
    "streaming.events_per_ksample": ("_stream_samples",),
}


class Processes:
    """Spawns measured processes in their own session; kills what is left."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.live = set()

    def env(self, hash_seed: int) -> dict:
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPYCACHEPREFIX", "PYTHONSTARTUP", "PYTHONINSPECT")}
        env.update(PYTHONPATH=str(self.run_dir / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED=str(hash_seed))
        return env

    def run(self, cmd, hash_seed: int, timeout: float, stderr=None):
        """Run ``cmd`` to completion; returns (exit code, peak RSS MB,
        spawn stamp, exit stamp)."""
        err = open(stderr, "w") if stderr else subprocess.DEVNULL
        try:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.run_dir, env=self.env(hash_seed),
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, start_new_session=True)
            self.live.add(proc.pid)
            watchdog = threading.Timer(timeout, self._kill, (proc.pid,))
            watchdog.start()
            try:
                __, status, usage = os.wait4(proc.pid, 0)
                t_exit = time.monotonic()
            finally:
                watchdog.cancel()
                self._kill(proc.pid)  # the process group: pool workers too
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0, t_spawn, t_exit
        finally:
            if stderr:
                err.close()

    def _kill(self, pid: int) -> None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.live.discard(pid)

    def close(self) -> None:
        for pid in list(self.live):
            self._kill(pid)


def git_tree_sha(path: Path):
    """``git rev-parse HEAD:<path>`` computed from the files themselves, so a
    checkout without ``.git`` still names the tree it measured."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix in (".pyc", ".pyo"):
            continue
        if child.is_dir():
            sha, mode, key = git_tree_sha(child), b"40000", child.name + "/"
            if sha is None:
                continue
        else:
            data = child.read_bytes()
            sha = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            key = child.name
        entries.append((key.encode(), mode, child.name.encode(), sha))
    if not entries:
        return None
    body = b"".join(m + b" " + n + b"\0" + bytes.fromhex(s)
                    for __, m, n, s in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def prune_cache(cache: Path, keep: int = 48) -> None:
    """Drop the cache entries of other trees and all but the newest ``keep``
    files of this one (a dropped file is simply rebuilt when needed)."""
    if cache.parent.exists():
        for other in cache.parent.iterdir():
            if other != cache:
                shutil.rmtree(other, ignore_errors=True)
    cache.mkdir(parents=True, exist_ok=True)
    files = sorted(cache.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in files[keep:]:
        stale.unlink()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------
def run_cold(procs: Processes, prepared: dict, args, run_dir: Path) -> dict:
    """cold_detect: every op is `python -m repro detect` in a fresh interpreter."""
    from checks import compare_reports, fault_ap, read_json, report_fields

    archive = prepared["archive"]
    reference = read_json(prepared["reference"])["outputs"][0]
    out = {"setup": [], "ops": [], "rss": [], "failures": [], "fault_ap": [], "units": [],
           "missing": set()}
    if not args.trace:
        for hs in HASH_SEEDS:
            result = run_dir / f"probe-{hs}.json"
            cmd = [sys.executable, str(HERE / "worker.py"), "--probe", "--prepared",
                   str(run_dir / "prepared.json"), "--out", str(result)]
            code, __, t_spawn, __ = procs.run(cmd, hs, timeout=120)
            if code != 0:
                out["failures"].append(f"set-up probe exited {code}")
                continue
            out["setup"].append(json.loads(result.read_text())["t_ready"] - t_spawn)
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        i = len(out["ops"])
        hs = HASH_SEEDS[i % len(HASH_SEEDS)]
        traced = bool(args.trace) and i % 2 == 1
        report = run_dir / f"out-{i}.json"
        detect = ["detect", "--plant", archive, "--json", str(report)]
        errors = run_dir / f"out-{i}.err"
        if traced:
            child = run_dir / f"out-{i}.child.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "worker.py"),
                   "--out", str(child), "--cold-child", *detect]
        else:
            cmd = [sys.executable, "-m", "repro", *detect]
        code, rss, t_spawn, t_exit = procs.run(cmd, hs, timeout=120, stderr=errors)
        wall_ms = (t_exit - t_spawn) * 1e3
        problem = f"exit code {code}\n{errors.read_text()[-2000:]}" if code != 0 else None
        rows = None
        if problem is None:
            try:
                rows = json.loads(report.read_text())["reports"]
            except (OSError, ValueError, KeyError) as exc:
                problem = f"unreadable report: {exc}"
        if rows is not None:
            problem = compare_reports([report_fields(r) for r in rows], reference)
            out["fault_ap"].append(fault_ap(rows, prepared["truth"]))
        if problem:
            out["failures"].append(f"op {i}: {problem}")
        out["ops"].append([wall_ms, problem is None, traced, 0])
        out["rss"].append(rss)
        if traced and code == 0:
            child_doc = json.loads(child.read_text())
            unit = child_doc["unit"]
            unit["interp.start_exit_ms"] = wall_ms - (child_doc["t_end"] - child_doc["t_start"]) * 1e3
            unit.update(import_metrics(errors.read_text()))
            out["units"].append(unit)
            out["missing"].update(child_doc["missing"])
        for path in run_dir.glob(f"out-{i}*"):
            path.unlink()
    return out


def run_long(procs: Processes, prepared: dict, args, run_dir: Path) -> dict:
    """plant_scan / ingest_refresh / stream_replay: one long-lived process per
    listed hash seed, each measuring an equal share of the run."""
    out = {"setup": [], "ops": [], "rss": [], "failures": [], "fault_ap": [], "units": [],
           "setup_units": [], "missing": set()}
    share = args.seconds / len(HASH_SEEDS)
    for hs in HASH_SEEDS:
        result = run_dir / f"worker-{hs}.json"
        errors = run_dir / f"worker-{hs}.err"
        cmd = [sys.executable, *(["-X", "importtime"] if args.trace else []),
               str(HERE / "worker.py"), "--workload", args.workload, "--prepared",
               str(run_dir / "prepared.json"), "--seconds", repr(share),
               "--trace", str(args.trace), "--out", str(result)]
        code, rss, t_spawn, t_exit = procs.run(cmd, hs, timeout=share + 150, stderr=errors)
        if code != 0 or not result.exists():
            tail = errors.read_text()[-2000:] if errors.exists() else ""
            out["failures"].append(f"worker (PYTHONHASHSEED={hs}) exited {code}\n{tail}")
            out["ops"].append([0.0, False, False, 0])
            continue
        doc = json.loads(result.read_text())
        out["setup"].append(doc["t_ready"] - t_spawn)
        out["rss"].append(rss)
        out["ops"].extend(doc["ops"])
        out["failures"].extend(doc["failures"])
        out["fault_ap"].extend(doc["fault_ap"])
        out["units"].extend(doc["units"])
        out["missing"].update(doc["missing"])
        if doc["setup_unit"] is not None:
            unit = doc["setup_unit"]
            unit["interp.start_exit_ms"] = ((t_exit - t_spawn) - (doc["t_end"] - doc["t_start"])) * 1e3
            unit.update(import_metrics(errors.read_text()))
            out["setup_units"].append(unit)
    return out


def import_metrics(importtime: str) -> dict:
    per_package = parse_importtime(importtime)
    return {
        "import.total_ms": sum(per_package.values()),
        "import.scipy_ms": per_package.get("scipy", 0.0),
        "import.networkx_ms": per_package.get("networkx", 0.0),
        "import.numpy_ms": per_package.get("numpy", 0.0),
        "import.repro_self_ms": per_package.get("repro", 0.0),
    }


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def end_to_end(measured: dict) -> dict:
    def mid(values):  # empty only when every process failed
        return median(values) if values else 0.0

    busy_s = sum(op[0] for op in measured["ops"]) / 1e3
    return {
        "setup_s": mid(measured["setup"]),
        "ops_per_s": len(measured["ops"]) / busy_s if busy_s else 0.0,
        "peak_rss_mb": mid(measured["rss"]),
    }


def per_layer(measured: dict):
    """Mean per op of every layer component; a layer that never runs inside
    an op is reported per process set-up.  Returns (metrics, missing)."""
    op_units = measured["units"]
    setup_units = measured.get("setup_units", [])
    keys = set().union(*op_units, *setup_units)

    def mean(units, key):
        values = [u[key] for u in units if key in u]
        return sum(values) / len(values) if values else None

    raw = {}
    for key in keys:
        value = mean(op_units, key)
        if not value:
            value = mean(setup_units, key) or value
        raw[key] = value or 0.0
    # names of wrapped functions that are gone, and of program-reported
    # per-layer metrics whose counter is gone
    gone = measured["missing"]
    missing = {m for m, targets in span_metric_targets().items()
               if any(t in gone for t in targets)}
    missing |= gone & set(PER_LAYER)
    for metric, needs in DERIVED.items():
        if any(n in missing for n in needs):
            missing.add(metric)
    task_ms, engine_ms = raw.get("parallel.task_ms_sum", 0.0), raw.get("parallel.engine_run_ms", 0.0)
    workers = raw.get("parallel.workers", 0.0)
    raw["parallel.worker_busy_share"] = task_ms / (workers * engine_ms) if workers and engine_ms else 0.0
    raw["parallel.overhead_ms"] = engine_ms - task_ms / workers if workers else 0.0
    full = raw.get("_full_tasks", 0.0)
    raw["pipeline.dirty_share"] = raw.get("pipeline.dirty_tasks", 0.0) / full if full else 0.0
    calls = raw.get("_cache_calls", 0.0)
    raw["alg1.cache_hit_ratio"] = raw.get("_cache_hits", 0.0) / calls if calls else 0.0
    samples = raw.get("_stream_samples", 0.0)
    raw["streaming.events_per_ksample"] = 1e3 * raw.get("_stream_events", 0.0) / samples if samples else 0.0
    traced = [op[0] for op in measured["ops"] if op[2]]
    untraced = [op[0] for op in measured["ops"] if not op[2]]
    raw["trace.overhead_pct"] = (
        100.0 * (median(traced) / median(untraced) - 1.0) if traced and untraced else 0.0
    )
    metrics = {name: raw.get(name, 0.0) for name in PER_LAYER if name not in missing}
    return metrics, sorted(missing & set(PER_LAYER))


def report(args, prepared: dict, measured: dict, stamp: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    ops = measured["ops"]
    failed = sum(1 for op in ops if not op[1])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} reference={prepared['reference_source']}")
    if args.trace:
        metrics, missing = per_layer(measured)
        units = PER_LAYER
        if missing:
            print("  missing (wrapped name gone): " + ", ".join(missing))
    else:
        metrics, units = end_to_end(measured), END_TO_END
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    latencies = [op[0] for op in ops] or [0.0]
    print(f"  {'op_ms_p50':32s} {median(latencies):14.4f} ms ({len(ops)} ops)")
    tail = tail_percentile(len(ops))
    if tail is not None:
        print(f"  {'op_ms_p%d' % tail:32s} {percentile(latencies, tail):14.4f} ms")
    else:
        print(f"  {'op_ms tail':32s} {'n/a':>14s}    (fewer than ten ops beyond any percentile)")
    samples = sum(op[3] for op in ops)
    if samples:
        busy = sum(op[0] for op in ops) / 1e3
        print(f"  {'samples_per_s':32s} {samples / busy:14.1f} 1/s")
    print(f"  {'failed_ops':32s} {failed / max(1, len(ops)):14.4f} share of {len(ops)} ops")
    if measured["fault_ap"]:
        print(f"  {'fault_ap':32s} {median(measured['fault_ap']):14.4f} "
              f"(AP vs injected PROCESS faults)")
    for failure in measured["failures"][:5]:
        print("  FAILED: " + failure.strip().replace("\n", "\n    "))
    print("  stamp: " + json.dumps(stamp, sort_keys=True))
    return {
        "correct": failed == 0 and not measured["failures"],
        "attempted": max(1, len(ops)),
        "failed": failed if ops else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="plant seed (default: the workload's, 7 or 2019)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload][1]
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    src_tree = git_tree_sha(root / "src")
    cache = root / WORK / "cache" / hashlib.sha1(
        f"{src_tree} {git_tree_sha(HERE)}".encode()).hexdigest()[:16]
    prune_cache(cache)
    run_dir = root / WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    procs = Processes(run_dir)
    try:
        shutil.copytree(root / "src", run_dir / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.py[cod]"))
        prepare = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--run-dir", str(run_dir), "--cache", str(cache)]
        code, *__ = procs.run(prepare, HASH_SEEDS[0], timeout=170,
                              stderr=run_dir / "prepare.err")
        if code != 0:
            sys.stderr.write((run_dir / "prepare.err").read_text()[-4000:])
            print(f"perfbench: preparing the inputs failed (exit {code})", file=sys.stderr)
            return 1
        prepared = json.loads((run_dir / "prepared.json").read_text())
        runner = run_cold if args.workload == "cold_detect" else run_long
        measured = runner(procs, prepared, args, run_dir)
        stamp = {
            "cores": len(os.sched_getaffinity(0)),
            "versions": prepared["versions"],
            "src_tree": src_tree,
            "git_commit": git_commit(root),
            "workload_seed": args.seed,
            "hash_seeds": list(HASH_SEEDS),
            "ops_per_run": len(measured["ops"]),
            "run_seconds": args.seconds,
            "platform": platform.platform(),
        }
        result = report(args, prepared, measured, stamp)
    finally:
        procs.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
