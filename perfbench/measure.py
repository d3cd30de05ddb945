"""Serve a workload's shards and turn them into the benchmark's metrics.

Two metric families, kept apart on purpose:

* **sim** — computed on the simulator's clock and byte counters.  They
  measure the prefetch *policy*, are exact for a seed, and no change to
  how fast the proxy's code runs can move them (the proxy charges a
  constant ``PROXY_PROCESSING`` of sim time per request).
* **host** — loop time, set-up time and memory.  They measure the
  *program*; times are rescaled by the host's current speed
  (``hostclock.py``).

Every shard serving runs in a fresh child process (``perfbench/shard.py``),
so its memory peak, its set-up time and its heap belong to that serving
alone.  A serving has one of four modes:

* ``timed`` — the event loop is timed in calibrated slices; the host
  metrics come from these servings only;
* ``plain`` — untimed apart from ``run_scale``'s own wall clock;
* ``traced`` — every layer boundary timed into a ``Ledger``;
* ``checked`` — the served-bytes capture installed.

A ``--trace 0`` run serves every shard ``timed``, then the first shard
again ``checked``.  A ``--trace 1`` run serves the first half of the
shards (rounded down, at least one) ``plain`` and ``traced``, and the
first shard ``checked``.  The traced and checked servings must
reproduce the plain or timed serving of their seed exactly; any
difference is drift, reported as a benchmark failure.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from repro.metrics.stats import percentile

from perfbench import hostclock
from perfbench.ledger import (
    DEMAND,
    HARNESS,
    PREFETCH,
    PROXY_CATEGORIES,
    ROOT_KEY,
    TELEMETRY,
    UNATTRIBUTED,
    Instrumentation,
    Ledger,
)
from perfbench.served import OriginBytes, ServedBytesCheck
from perfbench.workloads import CATALOG_SEED, Workload

MODES = ("timed", "plain", "traced", "checked")
#: family of each end-to-end metric: ``sim`` ones may be claimed by a
#: policy change, ``host`` ones by a ``perf_opt`` change
FAMILIES = {
    "latency_p50_ms": "sim",
    "latency_p99_ms": "sim",
    "latency_mean_ms": "sim",
    "miss_rate": "sim",
    "origin_kb_per_request": "sim",
    "success_rate": "sim",
    "wall_us_per_request": "host",
    "setup_s": "host",
    "peak_rss_mb": "host",
}
#: a shard process that takes longer than this is killed and the run fails
SHARD_TIMEOUT_S = 150.0


# -- one shard, in this process ------------------------------------------
def serve_shard(workload: Workload, seed: int, mode: str = "plain",
                check: Optional[ServedBytesCheck] = None) -> Dict[str, object]:
    """Build a deployment and serve one shard on it in ``mode``.

    Returns a JSON-ready record.  A ``checked`` serving captures into
    ``check`` (a fresh one if none is given).
    """
    from repro.experiments.scale import _ScaleDeployment, run_scale
    from repro.metrics.perf import rss_peak_bytes

    if mode not in MODES:
        raise ValueError("unknown serving mode {!r}".format(mode))
    hostclock.warm_up()
    gc.collect()
    deployment, setup_raw_s, setup_s = hostclock.calibrated_call(
        lambda: _ScaleDeployment(workload.apps, **workload.deployment_kwargs()))
    gc.collect()
    arguments = dict(workload.run_kwargs(), seed=seed, _deployment=deployment)
    origin_bytes = OriginBytes()
    ledger = Ledger() if mode == "traced" else None
    loop = hostclock.SlicedLoop() if mode == "timed" else None
    if mode == "checked":
        check = check or ServedBytesCheck()
        check.install()
    origin_bytes.install()
    try:
        if ledger is not None:
            with Instrumentation(ledger):
                row = run_scale(workload.users, workload.duration_s, **arguments)
        elif loop is not None:
            with loop:
                row = run_scale(workload.users, workload.duration_s, **arguments)
        else:
            row = run_scale(workload.users, workload.duration_s, **arguments)
    finally:
        origin_bytes.uninstall()
        if mode == "checked":
            check.uninstall()
    peak_rss = rss_peak_bytes()
    proxies = [proxy for _, proxy in deployment.multi._apps]
    expiration = row["expiration"] or {}
    record: Dict[str, object] = {
        "seed": seed,
        "mode": mode,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "peak_rss_bytes": peak_rss,
        "wall_s": row["wall_s"],
        "requests": row["requests"],
        "sent": row["requests_sent"],
        "hits": row["served_prefetched"],
        "forwards": row["forwarded"],
        "issued": row["prefetch_issued"],
        "sim_events": row["sim_events"],
        "latencies_s": row["latencies_s"],
        "lru_evictions": row["cache_lru_evictions"],
        "peak_entries": row["peak_cache_entries"],
        "overflows": row["learn_queue_overflows"],
        "drained": row["learn_deferred_drained"],
        "probes": expiration.get("probes_issued", 0),
        "origin_bytes": (
            sum(proxy.server_bytes + proxy.prefetcher.prefetch_bytes for proxy in proxies)
            + origin_bytes.probe_bytes
            + origin_bytes.passthrough_bytes
        ),
    }
    if loop is not None:
        record["loop_raw_s"] = loop.raw_s
        record["loop_s"] = loop.calibrated_s
        record["kernel_median_s"] = statistics.median(loop.kernel_s)
    if ledger is not None:
        record["ledger"] = ledger.to_dict()
    if mode == "checked":
        record["verdict"] = check.verify(workload.apps, CATALOG_SEED)
    return record


def fingerprint(shard: Dict[str, object]) -> tuple:
    """Everything a serving of one seed must reproduce exactly."""
    keys = ("requests", "sent", "hits", "forwards", "issued", "sim_events",
            "lru_evictions", "peak_entries", "overflows", "drained", "probes",
            "origin_bytes")
    return tuple(shard[key] for key in keys), tuple(shard["latencies_s"])


def failed(shard: Dict[str, object]) -> int:
    """Incomplete requests, plus 5xx and wrong bytes where they were checked."""
    verdict = shard.get("verdict") or {}
    return (shard["sent"] - shard["requests"] + verdict.get("server_errors", 0)
            + verdict.get("wrong_hits", 0) + verdict.get("wrong_forwards", 0))


# -- one shard, in a child process ----------------------------------------
def serve_in_child(workload: Workload, seed: int, mode: str) -> Dict[str, object]:
    shard_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "shard.py")
    command = [sys.executable, shard_py, "--workload", workload.name,
               "--seed", str(seed), "--mode", mode]
    done = subprocess.run(command, capture_output=True, text=True, check=False,
                          timeout=SHARD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("shard {} of {} ({}) failed:\n{}".format(
            seed, workload.name, mode, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


# -- metrics --------------------------------------------------------------
def end_to_end(shards: List[Dict[str, object]], setups: List[float],
               failures: int, attempted: int) -> Dict[str, float]:
    """End-to-end metrics of the ``timed`` servings ``shards``."""
    latencies = [value for shard in shards for value in shard["latencies_s"]]
    requests = sum(shard["requests"] for shard in shards)
    answered = sum(shard["hits"] + shard["forwards"] for shard in shards)
    return {
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_p99_ms": 1000.0 * percentile(latencies, 99),
        "latency_mean_ms": 1000.0 * statistics.fmean(latencies),
        "miss_rate": 1.0 - sum(shard["hits"] for shard in shards) / answered,
        "origin_kb_per_request": sum(s["origin_bytes"] for s in shards) / 1024.0 / requests,
        "success_rate": 1.0 - failures / attempted,
        "wall_us_per_request": 1e6 * sum(shard["loop_s"] for shard in shards) / requests,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(shard["peak_rss_bytes"] for shard in shards) / 1e6,
    }


def per_layer(shards: List[Dict[str, object]], untraced: List[Dict[str, object]],
              ledger: Ledger) -> Dict[str, float]:
    requests = sum(shard["requests"] for shard in shards)
    issued = sum(shard["issued"] for shard in shards)
    traced_wall = sum(shard["wall_s"] for shard in shards)
    self_s = ledger.self_s
    calls = ledger.calls
    categories = ledger.by_category()
    attributed = sum(s for category, s in categories.items() if category != UNATTRIBUTED)
    build_calls = calls.get("instances.build", 0)
    submits = calls.get("prefetcher.submit", 0)
    demand = ledger.samples["proxy.demand"]

    def us(*keys: str) -> float:
        return 1e6 * sum(self_s.get(key, 0.0) for key in keys) / requests

    def category_us(*names: str) -> float:
        return 1e6 * sum(categories.get(name, 0.0) for name in names) / requests

    def total(field: str) -> int:
        return sum(shard[field] for shard in shards)

    return {
        "ledger.proxy_us_per_request": category_us(*PROXY_CATEGORIES),
        "ledger.demand_us_per_request": category_us(DEMAND),
        "ledger.prefetch_us_per_request": category_us(PREFETCH),
        "ledger.telemetry_us_per_request": category_us(TELEMETRY),
        "ledger.harness_us_per_request": category_us(HARNESS),
        "ledger.traced_wall_us_per_request": 1e6 * traced_wall / requests,
        "ledger.unattributed_share": (traced_wall - attributed) / traced_wall,
        "ledger.trace_overhead_ratio": traced_wall / sum(s["wall_s"] for s in untraced),
        "netsim.events_per_request": total("sim_events") / requests,
        "netsim.self_us_per_request": us(ROOT_KEY),
        "netsim.transport.self_us_per_request": us("netsim.transport"),
        "server.calls_per_request": calls.get("server", 0) / requests,
        "server.self_us_per_request": us("server"),
        "scale.replay.self_us_per_request": us("scale.replay"),
        "proxy.route.self_us_per_request": us("proxy.route"),
        "proxy.demand.self_us_per_request": us("proxy.demand"),
        "proxy.demand.p99_us": 1e6 * percentile(demand, 99) if demand else 0.0,
        "learning.dispatch.us_per_request": us("learning.dispatch"),
        "learning.observe.us_per_request": us("learning.observe"),
        "learning.observe.chain_us_per_request": us("learning.observe.chain"),
        "learning.drain.observations_per_request": total("drained") / requests,
        "learning.drain.self_us_per_request": us("learning.drain", "learning.pump"),
        "learning.queue_overflows": total("overflows"),
        "instances.build.calls_per_request": build_calls / requests,
        "instances.build.ready_share": (
            ledger.useful.get("instances.build", 0) / build_calls if build_calls else 0.0
        ),
        "instances.build.self_us_per_request": us("instances.build"),
        "prefetcher.submit.calls_per_request": submits / requests,
        "prefetcher.issued_per_request": issued / requests,
        "prefetcher.admitted_share": (
            ledger.useful.get("prefetcher.submit", 0) / submits if submits else 0.0
        ),
        "prefetcher.useful_share": total("hits") / issued if issued else 0.0,
        "prefetcher.fetch.self_us_per_request": us("prefetcher.fetch"),
        "cache.lookup.us_per_request": us("cache.lookup"),
        "cache.put.calls_per_request": calls.get("cache.put", 0) / requests,
        "cache.put.self_us_per_request": us("cache.put"),
        "cache.lru_evictions_per_request": total("lru_evictions") / requests,
        "cache.purge.self_us_per_request": us("cache.purge"),
        "cache.peak_entries": max(shard["peak_entries"] for shard in shards),
        "expiration.probes": total("probes"),
        "expiration.self_us_per_request": us("expiration"),
        "metrics.telemetry.self_us_per_request": us("metrics.telemetry"),
    }


# -- a whole run ----------------------------------------------------------
class RunResult:
    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        #: every serving of the run, in the order served
        self.shards: List[Dict[str, object]] = []
        self.drift: List[str] = []
        self.unattributed_keys: List[str] = []

    @property
    def attempted(self) -> int:
        return sum(shard["sent"] for shard in self.shards)

    @property
    def failed(self) -> int:
        return sum(failed(shard) for shard in self.shards)

    def verdict_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for shard in self.shards:
            for name, count in (shard.get("verdict") or {}).items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def compare(self, first: Dict[str, object], again: Dict[str, object]) -> None:
        if fingerprint(first) != fingerprint(again):
            self.drift.append("seed {}: the {} serving differs from the {} one".format(
                first["seed"], again["mode"], first["mode"]))


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    seeds = workload.shard_seeds(seed, seconds)
    result = RunResult()
    if not trace:
        timed = [serve_in_child(workload, s, "timed") for s in seeds]
        checked = serve_in_child(workload, seeds[0], "checked")
        result.compare(timed[0], checked)
        result.shards = timed + [checked]
        result.metrics = end_to_end(
            timed, [shard["setup_s"] for shard in result.shards],
            result.failed, result.attempted)
        return result
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    ledger = Ledger()
    for s in seeds[: max(1, len(seeds) // 2)]:
        plain.append(serve_in_child(workload, s, "plain"))
        traced.append(serve_in_child(workload, s, "traced"))
        result.compare(plain[-1], traced[-1])
        ledger.merge(traced[-1]["ledger"])
    checked = serve_in_child(workload, seeds[0], "checked")
    result.compare(plain[0], checked)
    result.shards = plain + traced + [checked]
    result.metrics = per_layer(traced, plain, ledger)
    result.unattributed_keys = sorted(
        key for key, category in ledger.categories.items() if category == UNATTRIBUTED
    )
    return result
