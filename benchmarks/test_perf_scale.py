"""Serving-core scale benchmark: per-request wall cost vs population.

Sweeps the ``repro scale`` open-loop harness over N ∈ {100, 1k, 10k}
users sharing one :class:`MultiAppProxy`, holding the expected request
volume per cell constant (duration ∝ 1/N) so the cells compare
per-request *cost*, not workload size.  The tentpole claim asserted
here: with the sharded heap-expiry cache and the site-scan prefetch drain,
serving cost is population-independent — per-request wall time at 10k
users stays within 2× of the 100-user cell.

A second section runs the three-way strategy comparison (appx /
history / none) on one identical session-consistent workload and
asserts prefetching actually pays: appx hit rate above 20%, p50 and
p95 strictly below the no-prefetch baseline, and a thrash ratio
(evictions / stores) under 0.5.  A third serves the 1k-user cell
again, fully traced, and holds its ``learn`` span p99 to the committed
budget.  The sections land in ``BENCH_scale.json`` in the
``--bench-out`` directory as the trajectory artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import banner, run_once

from repro.experiments.scale import (
    format_strategy_table,
    run_scale,
    run_scale_sweep,
    run_strategy_comparison,
)

ARTIFACT = "BENCH_scale.json"
BUDGETS = Path(__file__).resolve().parent / "perf_budgets.json"
USER_COUNTS = [100, 1_000, 10_000, 100_000]
#: expected arrivals per cell = users * rate * duration = 500 for all N
DURATIONS = {100: 10.0, 1_000: 1.0, 10_000: 0.1, 100_000: 0.01}
RATE = 0.5
MAX_ENTRIES_PER_USER = 32
#: the stage row the committed learn-tail budget holds
LEARN_SPAN = "span:learn"

#: strategy-comparison workload: long enough for sessions to cycle and
#: the admission gate to warm up, small enough to stay a smoke test
COMPARE_USERS = 10
COMPARE_DURATION = 40.0
COMPARE_RATE = 1.0
COMPARE_SEED = 5
ADMISSION_THRESHOLD = 0.2


def test_perf_scale(benchmark, bench_out):
    result = run_once(
        benchmark,
        run_scale_sweep,
        USER_COUNTS,
        duration_for=DURATIONS,
        rate_per_user=RATE,
        seed=0,
        max_entries_per_user=MAX_ENTRIES_PER_USER,
        telemetry=True,
    )

    banner("Serving core at scale: per-request cost vs user population")
    print(
        "{:>8} {:>9} {:>9} {:>12} {:>10} {:>8} {:>8} {:>9} {:>9} "
        "{:>8} {:>7} {:>6}".format(
            "users", "requests", "wall_s", "us/request", "events/s",
            "p50_ms", "p99_ms", "peak_ent", "rss_mb",
            "w_p99", "w_hit%", "w_ovf",
        )
    )
    for row in result["rows"]:
        readings = (row.get("live") or {}).get("readings") or {}
        print(
            "{:>8} {:>9} {:>9.3f} {:>12.1f} {:>10.0f} {:>8.1f} {:>8.1f} "
            "{:>9} {:>9.1f} {:>8.1f} {:>7.2f} {:>6}".format(
                row["users"],
                row["requests"],
                row["wall_s"],
                row["per_request_wall_us"],
                row["sim_events_per_wall_s"],
                row["latency_p50_ms"],
                row["latency_p99_ms"],
                row["peak_cache_entries"],
                row["peak_rss_bytes"] / 1e6,
                readings.get("request_p99_ms", float("nan")),
                100.0 * readings.get("hit_rate", float("nan")),
                readings.get("overflow", 0),
            )
        )
    derived = result["derived"]
    print(
        "per-request wall cost at {} users: {:.2f}x the {}-user cost".format(
            derived["largest_users"],
            derived["per_request_cost_ratio"],
            derived["smallest_users"],
        )
    )

    rows = {row["users"]: row for row in result["rows"]}
    assert set(rows) == set(USER_COUNTS)
    # every cell actually served a comparable workload
    for row in rows.values():
        assert row["requests"] > 200
        assert row["requests"] == row["requests_sent"]

    # the tentpole claim: serving cost does not grow with the user
    # population.  2x is a loose ceiling over run-to-run noise; the
    # measured ratio is ~1x
    assert derived["per_request_cost_ratio"] < 2.0

    # the live telemetry plane rode along on every cell: readings
    # exist and the windowed request count never exceeds the run total
    for row in rows.values():
        readings = row["live"]["readings"]
        assert 0 < readings["requests"] <= row["requests"]
        assert readings["request_p99_ms"] > 0

    # the per-user bound held: no cell's cache outgrew users * bound
    for row in rows.values():
        assert row["peak_cache_entries"] <= row["users"] * MAX_ENTRIES_PER_USER
    # the bound did real work — prefetch fan-out exceeds 32
    # entries/user, so the prefetcher must have refused some
    assert rows[100]["skipped_bound"] > 0

    # ------------------------------------------------------------------
    # strategy comparison: does prefetching pay for itself?
    # ------------------------------------------------------------------
    comparison = run_strategy_comparison(
        COMPARE_USERS,
        COMPARE_DURATION,
        rate_per_user=COMPARE_RATE,
        seed=COMPARE_SEED,
        admission_threshold=ADMISSION_THRESHOLD,
        estimate_expiration=True,
    )
    banner("Prefetch strategy comparison on one identical workload")
    print(format_strategy_table(comparison))

    baseline = comparison["rows"]["none"]
    appx = comparison["rows"]["appx"]
    derived = comparison["derived"]["appx"]
    # every strategy served the exact same seeded workload
    for row in comparison["rows"].values():
        assert row["requests"] == baseline["requests"]
    # prefetch efficacy: the paper's claim, now measured
    assert derived["hit_rate"] >= 0.2
    assert appx["latency_p50_ms"] < baseline["latency_p50_ms"]
    assert appx["latency_p95_ms"] <= baseline["latency_p95_ms"]
    # hit-aware admission keeps the cache from thrashing
    assert derived["thrash_ratio"] < 0.5
    assert appx["skipped_admission"] > 0
    # the expiration estimator probed live signatures inside the run,
    # proved a lifetime floor for some, and stores took their TTL from
    # one (its probers stop at the horizon, so no bracket has converged
    # by then: that took thousands of sim seconds past the run)
    assert appx["expiration"]["sites"] > 0
    assert appx["expiration"]["proven"] > 0
    assert appx["expiration"]["proven_stores"] > 0

    # ------------------------------------------------------------------
    # learn-tail perf budget: the committed ceiling CI also enforces.
    # Per-stage wall time comes from trace spans only, so the 1k-user
    # cell serves again with every request traced
    # ------------------------------------------------------------------
    traced = run_scale(
        1_000,
        DURATIONS[1_000],
        rate_per_user=RATE,
        seed=0,
        max_entries_per_user=MAX_ENTRIES_PER_USER,
        trace_sample=1.0,
    )
    assert traced["requests"] == rows[1_000]["requests"]
    budgets = json.loads(BUDGETS.read_text())
    learn = traced["stage_latency_us"].get(LEARN_SPAN)
    assert learn is not None, "no learn span samples in the traced 1k cell"
    budget_us = budgets[LEARN_SPAN]["p99_us"]
    print(
        "learn span p99 at 1k users: {:.0f}us (budget {:.0f}us)".format(
            learn["p99_us"], budget_us
        )
    )
    assert learn["p99_us"] <= budget_us, (
        "learn span p99 {:.0f}us blew the committed {:.0f}us budget — "
        "either a regression or time to re-baseline "
        "benchmarks/perf_budgets.json".format(learn["p99_us"], budget_us)
    )

    result["strategy_comparison"] = comparison
    result["traced_1k_stage_latency_us"] = traced["stage_latency_us"]
    _merge_artifact(bench_out, result)
    print("wrote {}".format(bench_out / ARTIFACT))


def _merge_artifact(directory: Path, update: dict) -> None:
    """Fold new sections into BENCH_scale.json without dropping others."""
    artifact = directory / ARTIFACT
    data = {}
    if artifact.exists():
        try:
            data = json.loads(artifact.read_text())
        except ValueError:
            data = {}
    data.update(update)
    artifact.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
