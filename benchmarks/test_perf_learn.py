"""Learn-stage benchmark: the learn queue vs the inline oracle.

Section 1 serves one identical 1k-user open-loop workload twice, fully
traced (``trace_sample=1.0``): once through a deployment whose learners
are the seed's learn-on-observe oracle
(``tests/oracles/inline_learner.py``), once through the shipped
learners.  It asserts the same served workload, and that the ``learn``
span p99 is at least 3× lower when shipped.  That gate measures what
the ``learn`` span times — the enqueue when shipped, the whole learn
pipeline in the oracle — not a latency change: the shipped drain (the
``learn_drain`` span) still runs before the response returns, at the
same sim instant.  Section 2 micro-benchmarks
instance builds: N replicated instances each built in one pass
(``RequestInstance.try_build``) through the shared
:class:`SignatureBuildPlan` they are copied on write from, vs the
seed's per-build atom walk (``tests/oracles/naive_build.py``),
reported as replicas/µs over several alternating rounds and gated on
the median plan/naive ratio.  Both sections land in ``BENCH_learn.json``
in the ``--bench-out`` directory; the headline rows append to
``bench_tables.txt`` there.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from conftest import banner, run_once

from repro.analysis.model import (
    ConstAtom,
    DepAtom,
    RequestTemplate,
    ResponseTemplate,
    TransactionSignature,
    UnknownAtom,
    ValueTemplate,
)
from repro.experiments.scale import DEFAULT_APPS, _ScaleDeployment, run_scale
from repro.httpmsg.fieldpath import FieldPath
from repro.proxy.instances import (
    RequestInstance,
    RuntimeSignature,
    ValueStore,
)
from tests.oracles.inline_learner import inline_learners
from tests.oracles.naive_build import build_naive

ARTIFACT = "BENCH_learn.json"
TABLES = "bench_tables.txt"
BUDGETS = Path(__file__).resolve().parent / "perf_budgets.json"

USERS = 1_000
DURATION = 1.0  # ~500 expected arrivals, matching the scale bench cell
RATE = 0.5
SEED = 0
#: the acceptance gate: shipped learn-span p99 vs the inline oracle's
SPEEDUP_GATE = 3.0
#: the span rows section 1 reads, and the one its gates compare
LEARN_SPANS = ("span:match", "span:learn", "span:learn_drain")
LEARN_SPAN = "span:learn"

#: COW micro-bench: replicas per spawn burst × bursts, timed over this
#: many alternating naive/plan rounds and gated on the median ratio
REPLICAS = 200
BURSTS = 25
COW_ROUNDS = 7


def _learn_stages(row):
    stages = row["stage_latency_us"]
    return {
        stage: {
            "p50_us": stats["p50_us"],
            "p99_us": stats["p99_us"],
            "count": stats["count"],
        }
        for stage, stats in stages.items()
        if stage in LEARN_SPANS
    }


def test_perf_learn_modes(benchmark, bench_out):
    def sweep():
        with inline_learners() as oracle_learners:
            oracle = _ScaleDeployment(DEFAULT_APPS)
        assert oracle_learners
        rows = {}
        for mode, deployment in (("inline", oracle), ("shipped", None)):
            rows[mode] = run_scale(
                USERS,
                DURATION,
                rate_per_user=RATE,
                seed=SEED,
                trace_sample=1.0,
                _deployment=deployment,
            )
        return rows

    rows = run_once(benchmark, sweep)
    inline, shipped = rows["inline"], rows["shipped"]

    banner("Learn stage: learn span, inline oracle vs shipped queue")
    print(
        "{:>10} {:>9} {:>10} {:>10} {:>12} {:>12} {:>8}".format(
            "mode", "requests", "learn_p50", "learn_p99",
            "drain_p50", "drain_p99", "hit",
        )
    )
    for mode, row in rows.items():
        stages = row["stage_latency_us"]
        learn = stages[LEARN_SPAN]
        drain = stages.get("span:learn_drain")
        print(
            "{:>10} {:>9} {:>9.1f}u {:>9.1f}u {:>11} {:>11} {:>7.0f}%".format(
                mode,
                row["requests"],
                learn["p50_us"],
                learn["p99_us"],
                "{:.1f}u".format(drain["p50_us"]) if drain else "-",
                "{:.1f}u".format(drain["p99_us"]) if drain else "-",
                100 * row["hit_rate"],
            )
        )

    # both served the identical seeded workload, with the same outcome
    # — parking the observation moves work, it must not change results
    assert shipped["requests"] == inline["requests"]
    assert shipped["served_prefetched"] == inline["served_prefetched"]
    assert shipped["prefetch_issued"] == inline["prefetch_issued"]
    assert shipped["hit_rate"] == inline["hit_rate"]
    # the bounded queue never overflowed under the per-request drain
    assert shipped["learn_queue_overflows"] == 0
    assert shipped["learn_deferred_drained"] > 0

    inline_p99 = inline["stage_latency_us"][LEARN_SPAN]["p99_us"]
    shipped_p99 = shipped["stage_latency_us"][LEARN_SPAN]["p99_us"]
    speedup = inline_p99 / shipped_p99 if shipped_p99 else float("inf")
    print(
        "learn span p99: inline oracle {:.0f}us -> shipped {:.0f}us "
        "({:.1f}x)".format(inline_p99, shipped_p99, speedup)
    )
    assert speedup >= SPEEDUP_GATE, (
        "shipped learn span p99 {:.0f}us is only {:.1f}x below the inline "
        "oracle's {:.0f}us (gate {:.1f}x)".format(
            shipped_p99, speedup, inline_p99, SPEEDUP_GATE
        )
    )

    # the committed budget must hold for the shipped learner
    budgets = json.loads(BUDGETS.read_text())
    budget_us = budgets[LEARN_SPAN]["p99_us"]
    assert shipped_p99 <= budget_us, (
        "shipped learn span p99 {:.0f}us blew the committed {:.0f}us "
        "budget".format(shipped_p99, budget_us)
    )

    section = {
        "users": USERS,
        "duration_s": DURATION,
        "seed": SEED,
        "modes": {mode: _learn_stages(row) for mode, row in rows.items()},
        "request_path_p99_speedup": speedup,
        "budget_p99_us": budget_us,
        "queue": {
            "overflows": shipped["learn_queue_overflows"],
            "drained": shipped["learn_deferred_drained"],
        },
    }
    _merge_artifact(bench_out, {"learn_modes": section})

    table = (
        "learn stage: inline oracle p99 {:.0f}us -> shipped p99 {:.0f}us "
        "({:.1f}x, gate {:.0f}x, budget {:.0f}us) at {} users\n".format(
            inline_p99, shipped_p99, speedup, SPEEDUP_GATE, budget_us, USERS
        )
    )
    with (bench_out / TABLES).open("a") as handle:
        handle.write(table)
    print("wrote {}".format(bench_out / ARTIFACT))


def _replica_signature() -> RuntimeSignature:
    """A successor shaped like the real apps': const + dep + env fields."""
    fields = {
        FieldPath.parse("header.Cookie"): ValueTemplate(
            [UnknownAtom("env:cookie")]
        ),
        FieldPath.parse("body.cid"): ValueTemplate(
            [DepAtom("pred#0", FieldPath.parse("body.items[].id"))]
        ),
        FieldPath.parse("body.v"): ValueTemplate.const("7"),
        FieldPath.parse("body.channel"): ValueTemplate.const("android"),
        FieldPath.parse("body._ver"): ValueTemplate(
            [UnknownAtom("env:config:version")]
        ),
    }
    request = RequestTemplate(
        method="POST",
        uri=ValueTemplate(
            [UnknownAtom("env:config:api_host"), ConstAtom("/detail")]
        ),
        fields=fields,
        body_kind="form",
    )
    return RuntimeSignature(
        TransactionSignature("succ#0", request, ResponseTemplate())
    )


def _spawn_and_build(signature, store, use_plan: bool) -> int:
    built = 0
    for burst in range(BURSTS):
        for index in range(REPLICAS):
            instance = RequestInstance(signature, "u1")
            instance.fill(
                FieldPath.parse("body.cid"), "c{}-{}".format(burst, index)
            )
            if use_plan:
                request = instance.try_build(store)
            else:
                request = build_naive(instance, store)
            if request is not None:
                built += 1
    return built


def test_perf_cow_instantiation(benchmark, bench_out):
    store = ValueStore()
    store.learn_tag("u1", "env:cookie", "bsid=fresh")
    store.learn_tag("u1", "env:config:version", "9.9")
    store.learn_tag("u1", "env:config:api_host", "https://api.test.com")
    signature = _replica_signature()
    total = REPLICAS * BURSTS

    def measure():
        # alternate which path goes first, so drift on the host (CPU
        # frequency, cache warmth) falls on both sides alike
        rounds = []
        for index in range(COW_ROUNDS):
            order = (False, True) if index % 2 == 0 else (True, False)
            wall = {}
            for use_plan in order:
                started = time.perf_counter()
                built = _spawn_and_build(signature, store, use_plan)
                wall[use_plan] = time.perf_counter() - started
                assert built == total
            rounds.append({"naive_s": wall[False], "plan_s": wall[True]})
        return rounds

    rounds = run_once(benchmark, measure)
    results = {}
    for path in ("naive", "plan"):
        elapsed = statistics.median(r[path + "_s"] for r in rounds)
        results[path] = {
            "replicas": total,
            "wall_s": elapsed,
            "replicas_per_us": total / (1e6 * elapsed),
        }
    ratios = [r["naive_s"] / r["plan_s"] for r in rounds]
    speedup = statistics.median(ratios)

    banner("Copy-on-write instantiation: shared build plan vs naive walk")
    print("{:>6} {:>10} {:>10} {:>8}".format("round", "naive_ms", "plan_ms", "ratio"))
    for index, (cell, ratio) in enumerate(zip(rounds, ratios)):
        print(
            "{:>6} {:>10.2f} {:>10.2f} {:>7.2f}x".format(
                index, 1e3 * cell["naive_s"], 1e3 * cell["plan_s"], ratio
            )
        )
    print(
        "{:>8} {:>9} {:>10} {:>14}".format(
            "path", "replicas", "wall_ms", "replicas/us"
        )
    )
    for path, cell in results.items():
        print(
            "{:>8} {:>9} {:>10.2f} {:>14.3f}".format(
                path, cell["replicas"], 1e3 * cell["wall_s"],
                cell["replicas_per_us"],
            )
        )
    print(
        "plan path builds {:.2f}x the replicas per microsecond "
        "(median of {} rounds)".format(speedup, len(rounds))
    )

    # the shared plan must never lose to the per-build atom walk it
    # replaced; 0.9 tolerates host noise on an already-fast path, and
    # the median over alternating rounds keeps one noisy pass from
    # deciding the verdict
    assert speedup >= 0.9, (
        "plan-based build is {:.2f}x the naive rate — the COW plan "
        "regressed instantiation".format(speedup)
    )

    _merge_artifact(
        bench_out, {"cow_instantiation": {**results, "speedup": speedup, "rounds": rounds}}
    )
    with (bench_out / TABLES).open("a") as handle:
        handle.write(
            "cow instantiation: plan {:.3f} vs naive {:.3f} replicas/us "
            "({:.2f}x) over {} replicas\n".format(
                results["plan"]["replicas_per_us"],
                results["naive"]["replicas_per_us"],
                speedup,
                total,
            )
        )


def _merge_artifact(directory: Path, update: dict) -> None:
    """Fold new sections into BENCH_learn.json without dropping others."""
    artifact = directory / ARTIFACT
    data = {}
    if artifact.exists():
        try:
            data = json.loads(artifact.read_text())
        except ValueError:
            data = {}
    data.update(update)
    artifact.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
