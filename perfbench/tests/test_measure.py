"""Serving modes, served-bytes check, determinism guard and ledger on a small real workload."""

import json
import os

import pytest

from perfbench.ledger import UNATTRIBUTED
from perfbench.measure import FAMILIES, end_to_end, failed, fingerprint, per_layer, serve_shard
from perfbench.served import ServedBytesCheck
from perfbench.workloads import CATALOG_SEED, Workload

TINY = Workload(
    "tiny", "test", apps=("wish", "doordash"), users=6, duration_s=6.0,
    rate_per_user=1.0, warm_start=True, admission_threshold=0.2,
    estimate_expiration=True, slo=True,
)


def benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_every_mode_serves_the_same_seed_identically_and_the_ledger_closes():
    from perfbench.ledger import Ledger

    plain = serve_shard(TINY, 3, "plain")
    timed = serve_shard(TINY, 3, "timed")
    checked = serve_shard(TINY, 3, "checked")
    traced = serve_shard(TINY, 3, "traced")

    assert fingerprint(plain) == fingerprint(timed) == fingerprint(checked) \
        == fingerprint(traced)
    assert plain["hits"] > 0 and plain["issued"] > 0 and plain["probes"] > 0
    assert failed(checked) == 0
    assert checked["verdict"]["hits"] == checked["hits"]
    assert checked["verdict"]["forwards"] == checked["forwards"]
    assert 0 < timed["loop_raw_s"] <= timed["wall_s"]
    assert timed["loop_s"] > 0 and timed["setup_s"] > 0

    ledger = Ledger()
    ledger.merge(traced["ledger"])
    assert [k for k, c in ledger.categories.items() if c == UNATTRIBUTED] == []
    # the root frame opens just inside run_scale's own wall clock, so only
    # a few clock reads (and whatever preempts them) fall outside it
    assert sum(ledger.self_s.values()) == pytest.approx(traced["wall_s"], rel=0.05)

    spec = benchmark_json()
    layers = per_layer([traced], [plain], ledger)
    assert set(layers) == {metric["name"] for metric in spec["per_layer"]}
    parts = sum(layers[name] for name in (
        "ledger.demand_us_per_request", "ledger.prefetch_us_per_request",
        "ledger.telemetry_us_per_request", "ledger.harness_us_per_request"))
    unattributed = layers["ledger.unattributed_share"] * layers["ledger.traced_wall_us_per_request"]
    assert parts + unattributed == pytest.approx(layers["ledger.traced_wall_us_per_request"])
    assert layers["metrics.telemetry.self_us_per_request"] > 0
    assert layers["expiration.probes"] == plain["probes"]

    metrics = end_to_end([timed], [timed["setup_s"]], 0, timed["sent"])
    assert set(metrics) == set(FAMILIES) == {metric["name"] for metric in spec["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_setup_time_has_the_largest_bound():
    bounds = {metric["name"]: metric["bound"] for metric in benchmark_json()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_wrong_bytes_are_counted_separately_for_hits_and_forwards():
    check = ServedBytesCheck()
    shard = serve_shard(TINY, 4, "checked", check)
    assert shard["verdict"]["wrong_hits"] == shard["verdict"]["wrong_forwards"] == 0
    # tamper with one served hit and one forward, then re-verify
    from repro.httpmsg.body import JsonBody

    tampered = []
    kinds = set()
    for request, user, response, at, from_cache in check.captured:
        if from_cache not in kinds:
            kinds.add(from_cache)
            response = response.copy()
            response.status = 503 if from_cache else response.status
            response.body = JsonBody({"stale": True})
        tampered.append((request, user, response, at, from_cache))
    assert kinds == {True, False}
    check.captured = tampered
    verdict = check.verify(TINY.apps, CATALOG_SEED)
    assert verdict["wrong_hits"] == 1
    assert verdict["wrong_forwards"] == 1
    assert verdict["server_errors"] == 1
    assert failed(dict(shard, verdict=verdict)) == 3
