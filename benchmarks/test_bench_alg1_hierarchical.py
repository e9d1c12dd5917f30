"""Experiment ``alg1`` — Algorithm 1 vs. a flat single-level baseline.

The paper proposes the ⟨global score, outlierness, support⟩ triple but
defers evaluation.  This benchmark supplies it on the simulated plant,
replicated over three seeds:

* **ranking quality** — precision@k / average precision for *process
  faults* among phase-level candidates, hierarchical triple ranking vs.
  flat outlierness-only ranking;
* **measurement-error separation** — mean support of process faults vs.
  sensor faults on the redundant sensor pair;
* **warning accuracy** — job-level candidates without phase-level
  confirmation ("wrong measurement assumed") vs. ground truth: setup
  anomalies and CAQ noise have no phase trace, process faults do.
"""

from __future__ import annotations

from repro.eval import aggregate, replicate_alg1

SEEDS = (2019, 2020, 2021)


def _format(per_seed, agg) -> str:
    lines = [
        "Algorithm 1 evaluation — hierarchical triple vs flat baseline",
        f"replicated over seeds {SEEDS}",
        "",
        f"{'seed':>6s} {'hier P@5':>9s} {'hier P@10':>10s} {'hier AP':>8s} "
        f"{'flat P@5':>9s} {'flat P@10':>10s} {'flat AP':>8s}",
    ]
    for seed, m in zip(SEEDS, per_seed):
        lines.append(
            f"{seed:>6d} {m.hier_p5:9.2f} {m.hier_p10:10.2f} {m.hier_ap:8.3f} "
            f"{m.flat_p5:9.2f} {m.flat_p10:10.2f} {m.flat_ap:8.3f}"
        )
    lines.append(
        f"{'mean':>6s} {agg['hier_p5']:9.2f} {agg['hier_p10']:10.2f} "
        f"{agg['hier_ap']:8.3f} {agg['flat_p5']:9.2f} "
        f"{agg['flat_p10']:10.2f} {agg['flat_ap']:8.3f}"
    )
    lines += [
        "",
        f"mean support | process faults: {agg['support_process']:.2f}"
        f"   sensor faults: {agg['support_sensor']:.2f}",
        f"mean job-level warning accuracy: {agg['warning_accuracy']:.2f}",
        f"global-score histogram (seed {SEEDS[0]}): {per_seed[0].global_histogram}",
    ]
    return "\n".join(lines)


def test_bench_alg1_hierarchical(benchmark, emit):
    per_seed = benchmark.pedantic(
        lambda: replicate_alg1(SEEDS), rounds=1, iterations=1
    )
    agg = aggregate(per_seed)
    emit("alg1_hierarchical", _format(per_seed, agg))

    # the paper's qualitative claims, asserted on the replication mean:
    # 1. hierarchical evidence ranks real process faults at least as well as
    #    flat outlierness, and strictly better in expectation
    assert agg["hier_p5"] >= agg["flat_p5"] - 1e-9
    assert agg["hier_p10"] > agg["flat_p10"]
    assert agg["hier_ap"] > agg["flat_ap"]
    # 2. support separates real faults from measurement errors
    assert agg["support_process"] > agg["support_sensor"] + 0.3
    # 3. warnings at higher levels mostly point at phase-invisible anomalies
    assert agg["warning_accuracy"] >= 0.6
    # 4. global scores actually spread beyond the start level (every seed)
    for m in per_seed:
        assert sum(m.global_histogram[2:]) > 0
