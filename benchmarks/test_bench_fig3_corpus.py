"""Experiment ``fig3`` — reproduce Figure 3: research-field article counts.

Web of Science is proprietary; the synthetic corpus reproduces the *query
workload*: eight field terms, each filtered by the topic "time series" and
then restricted to the category "automation control systems".  Verified
shape: anomaly detection dominates, fault detection is second and has the
largest automation-control share, deviant discovery is negligible.
"""

from __future__ import annotations

from repro.corpus import generate_corpus, run_fig3_queries

N_RECORDS = 60_000


def _run():
    index = generate_corpus(n_records=N_RECORDS, seed=2019)
    return run_fig3_queries(index)


def _format(rows) -> str:
    lines = [
        f"Fig. 3 reproduction — {N_RECORDS} synthetic records, 16 queries",
        "",
        f"{'field':26s} {'term+time series':>18s} {'+ACS category':>15s}",
    ]
    for row in rows:
        bar = "#" * max(1, row.time_series_count // 40)
        lines.append(
            f"{row.field:26s} {row.time_series_count:18d} {row.acs_count:15d}  {bar}"
        )
    return "\n".join(lines)


def test_bench_fig3_corpus(benchmark, emit):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit("fig3_corpus", _format(rows))

    counts = {r.field: r.time_series_count for r in rows}
    acs = {r.field: r.acs_count for r in rows}

    # bar ordering claims (the figure's shape)
    ordered = sorted(counts, key=counts.get, reverse=True)
    assert ordered[0] == "anomaly detection"
    assert ordered[1] == "fault detection"
    assert counts["deviant discovery"] < 0.05 * counts["anomaly detection"]
    assert counts["novelty detection"] < counts["event detection"]
    # the ACS restriction shrinks every field and favours fault detection
    for field in counts:
        assert acs[field] <= counts[field]
    shares = {
        f: acs[f] / counts[f] for f in counts if counts[f] >= 100
    }
    assert max(shares, key=shares.get) == "fault detection"
    # magnitudes in the same regime as the paper's bar chart (y up to ~2000)
    assert 1000 <= counts["anomaly detection"] <= 2500
