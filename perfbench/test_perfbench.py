"""Self-tests of the benchmark's own helpers.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import random
import sys
import types
from pathlib import Path

import pytest

import run
from checks import (
    average_precision,
    compare_events,
    compare_reports,
    fault_ap,
    parse_importtime,
    percentile,
    report_fields,
    self_time,
    tail_percentile,
)
from tracing import Recorder, unit_components

ROOT = Path(__file__).resolve().parent.parent


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75
    assert tail_percentile(99) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99
    for n in (40, 57, 100, 333, 1000):
        q = tail_percentile(n)
        values = list(range(n))
        assert sum(v > percentile(values, q) for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 90) == 3.0


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    # overlapping children count once; a child sticking out is clipped
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert self_time(0.0, 10.0, [(-1.0, 1.0), (9.5, 12.0)]) == 8.5


def test_unit_components_do_not_count_recursion_twice():
    spans = [
        ["op", 0.0, 10.0, -1, None],
        ["alg1.confirm", 1.0, 4.0, 0, None],
        ["alg1.confirm", 2.0, 3.0, 1, None],  # nested call of the same layer
        ["cli.main", 5.0, 9.0, 0, None],
        ["io.load_plant", 5.5, 6.5, 3, {"bytes": 7}],
    ]
    unit = unit_components(spans, 0)
    assert unit["alg1.confirm_ms"] == pytest.approx(3e3)
    assert unit["alg1.confirm_calls"] == 1
    assert unit["cli.self_ms"] == pytest.approx(3e3)
    assert unit["io.plant_bytes"] == 7
    assert unit["trace.unattributed_ms"] == pytest.approx(3e3)


def _row(location, score, **changes):
    row = {
        "location": location, "level": 1, "machine_id": "m", "job_index": 0,
        "phase_name": "p", "global_score": 3, "outlierness": score, "support": 0.5,
        "n_corresponding": 2, "supporters": ["a"], "fused_score": score / 2,
        "measurement_warning": False,
        "confirmations": [{"level": 2, "detected": True, "outlierness": 0.25}],
    }
    row.update(changes)
    return report_fields(row)


def test_comparator_passes_a_last_bit_change_and_fails_real_changes():
    ref = [_row("a", 0.9), _row("b", 0.7)]
    last_bit = [_row("a", math.nextafter(0.9, 1.0)), _row("b", 0.7)]
    assert compare_reports(last_bit, ref) is None
    assert compare_reports([_row("a", 0.9 + 7e-16), _row("b", 0.7)], ref) is None
    assert compare_reports([ref[1], ref[0]], ref) is not None  # re-ranked
    assert compare_reports(ref[:1], ref) is not None  # missing
    assert compare_reports(ref + [_row("c", 0.1)], ref) is not None  # extra
    assert compare_reports([_row("a", 0.9001), ref[1]], ref) is not None
    assert compare_reports([_row("a", 0.9, supporters=["b"]), ref[1]], ref) is not None
    flipped = _row("a", 0.9)
    flipped["confirmations"][0][1] = False
    assert compare_reports([flipped, ref[1]], ref) is not None


def test_event_comparator():
    ref = [["c", 1.0, 2, 7.5, 0.5]]
    assert compare_events([["c", 1.0, 2, math.nextafter(7.5, 8.0), 0.5]], ref) is None
    assert compare_events([["c", 1.0, 1, 7.5, 0.5]], ref) is not None
    assert compare_events([], ref) is not None


def test_average_precision_matches_repro_eval():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.eval.metrics import average_precision as reference

    rng = random.Random(3)
    labels = [rng.random() < 0.3 for __ in range(40)]
    scores = list(range(len(labels), 0, -1))  # report order is the ranking
    assert average_precision(labels) == pytest.approx(reference(labels, scores), abs=1e-12)
    rows = [{"machine_id": "m", "job_index": i, "phase_name": "p"} for i in range(4)]
    assert fault_ap(rows, [["m", 1, "p"], ["m", 3, "p"]]) == pytest.approx((1 / 2 + 2 / 4) / 2)


def test_parse_importtime_counts_only_between_markers():
    text = "\n".join([
        "import time:       100 |        100 | before",
        "perfbench: import begin",
        "import time:       200 |        200 |   numpy.core",
        "import time:       300 |        500 | numpy",
        "import time:      1000 |       1000 | repro.core",
        "perfbench: import end",
        "import time:       400 |        400 | scipy",
    ])
    assert parse_importtime(text) == {"numpy": 0.5, "repro": 1.0}


def test_recorder_wraps_every_binding_and_reports_missing_names(monkeypatch):
    fake = types.ModuleType("repro._perfbench_fake")
    other = types.ModuleType("repro._perfbench_other")

    def target(x):
        return x + 1

    fake.target = target
    other.target = target  # bound by name elsewhere, like `from .fusion import fuse`
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setitem(sys.modules, other.__name__, other)
    rec = Recorder()
    rec.install({
        "fake.target": (fake.__name__, "target", None, lambda a, r: {"result": r}),
        "gone": (fake.__name__, "Moved.method", None, None),
        "gone_module": ("repro._perfbench_absent", "f", None, None),
        "not_loaded": ("repro.streaming", "StreamingSensorMonitor.observe", None, None),
    })
    assert sorted(rec.missing) == ["gone", "gone_module"]
    rec.enable()
    try:
        assert fake.target(1) == 2 and other.target(2) == 3
    finally:
        rec.disable()
    assert fake.target is target and other.target is target
    assert [s[0] for s in rec.spans] == ["fake.target", "fake.target"]
    assert rec.spans[1][4] == {"result": 3}


def test_missing_program_counters_are_reported_by_metric_name():
    import worker

    class Moved:  # a pipeline whose public counters all went away
        telemetry = None

    missing: list = []
    assert worker.pipeline_counters(Moved(), None, missing) == {}
    assert set(missing) == {
        "parallel.task_ms_sum", "shm.bytes_shared", "shm.bytes_pickled",
        "shm.decode_ms_sum", "alg1.cache_hit_ratio", "resilience.fallbacks",
        "resilience.quarantined", "obs.spans_retained",
    }
    metrics, gone = run.per_layer({"units": [{"parallel.engine_run_ms": 5.0}],
                                   "setup_units": [], "missing": set(missing), "ops": []})
    assert "parallel.task_ms_sum" in gone and "parallel.worker_busy_share" in gone
    assert "parallel.task_ms_sum" not in metrics and metrics["parallel.engine_run_ms"] == 5.0


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
