"""Lazy epoch-stamped drain vs the seed's rebuild drain: same order.

The §5 scheduler's contract is "drain in priority order as of *now*,
FIFO within a site".  The seed re-sorted the whole waiting queue per
drain (O(W)); the lazy drain keeps per-site FIFOs plus a head-entry
heap invalidated by epoch stamps (amortized O(log W)).  These tests
drive both implementations with identical recorded workloads — queue
buildups, mid-flight priority moves, hit-rate updates, the priority
ablation toggle — and assert the origin observed the *identical*
issue order.  The seed's drain is :class:`RebuildDrainPrefetcher` in
``tests/oracles/rebuild_drain.py``.
"""

import random

import pytest

from repro.analysis.model import AnalysisResult
from repro.netsim.link import Link
from repro.netsim.sim import Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig
from repro.proxy.learning import DynamicLearner
from repro.proxy.prefetcher import Prefetcher

from tests.oracles.rebuild_drain import RebuildDrainPrefetcher
from tests.test_proxy_prefetcher import ORIGIN, SlowEndpoint, ready_for


def make_prefetcher(lazy_drain, max_concurrent=1):
    sim = Simulator()
    endpoint = SlowEndpoint()
    origins = OriginMap()
    origins.register(ORIGIN, endpoint, Link(rtt=0.02))
    cache = PrefetchCache()
    learner = DynamicLearner(AnalysisResult("t", [], []))
    prefetcher_class = Prefetcher if lazy_drain else RebuildDrainPrefetcher
    prefetcher = prefetcher_class(
        sim,
        origins,
        cache,
        ProxyConfig(),
        learner,
        max_concurrent=max_concurrent,
    )
    return sim, endpoint, cache, prefetcher


def replay(workload, lazy_drain, max_concurrent=1):
    """Apply one recorded op sequence; return the origin's issue order."""
    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain, max_concurrent)
    for op in workload:
        kind = op[0]
        if kind == "submit":
            _, site, path, user = op
            prefetcher.submit(ready_for(site, path, user=user))
        elif kind == "priority":
            _, site, value = op
            prefetcher.avg_response_time[site] = value
        elif kind == "hit":
            cache.record_hit(op[1])
        elif kind == "miss":
            cache.record_miss(op[1])
        elif kind == "toggle":
            prefetcher.priority_enabled = op[1]
        elif kind == "run":
            sim.run(until=sim.now + op[1])
    sim.run()
    return endpoint.order, prefetcher


def random_workload(seed, length=120):
    rng = random.Random(seed)
    sites = ["s{}#0".format(i) for i in range(6)]
    ops = []
    serial = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            # unique paths so the duplicate gate never hides ordering
            ops.append(
                (
                    "submit",
                    rng.choice(sites),
                    "/p{}".format(serial),
                    "u{}".format(rng.randrange(3)),
                )
            )
            serial += 1
        elif roll < 0.7:
            ops.append(("priority", rng.choice(sites), rng.random() * 2.0))
        elif roll < 0.8:
            ops.append((rng.choice(["hit", "miss"]), rng.choice(sites)))
        elif roll < 0.88:
            ops.append(("toggle", rng.random() < 0.5))
        else:
            ops.append(("run", rng.random() * 0.4))
    return ops


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_lazy_drain_order_matches_rebuild_oracle(seed):
    workload = random_workload(seed)
    lazy_order, lazy = replay(workload, lazy_drain=True)
    rebuild_order, rebuild = replay(workload, lazy_drain=False)
    assert lazy_order == rebuild_order
    assert lazy.issued == rebuild.issued


def test_lazy_drain_order_matches_with_concurrency():
    workload = random_workload(97, length=200)
    lazy_order, _ = replay(workload, lazy_drain=True, max_concurrent=4)
    rebuild_order, _ = replay(workload, lazy_drain=False, max_concurrent=4)
    assert lazy_order == rebuild_order


def test_priority_rise_while_queued_reorders_lazily():
    # a site whose priority RISES after enqueue must jump the queue —
    # the case plain re-push-on-pop lazy invalidation gets wrong
    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=True)
    prefetcher.submit(ready_for("hold#0", "/hold"))
    prefetcher.submit(ready_for("a#0", "/a"))
    prefetcher.submit(ready_for("b#0", "/b"))
    prefetcher.avg_response_time["b#0"] = 5.0
    sim.run()
    assert endpoint.order == ["/hold", "/b", "/a"]
    # b's outdated (pre-rise) head entry was never popped: it is the
    # leftover the epoch stamp guards against
    assert len(prefetcher._site_heap) > 0
    assert all(
        epoch != prefetcher._site_epoch.get(site, 0)
        for _, _, site, epoch in prefetcher._site_heap
    )


def test_priority_drop_while_queued_discards_stale_head():
    # a site whose priority DROPS keeps its old (higher) stamp at the
    # heap top; the pop must recognize it as stale and fall through to
    # the demoted fresh entry
    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=True)
    prefetcher.avg_response_time["a#0"] = 5.0
    prefetcher.avg_response_time["c#0"] = 1.0
    prefetcher.submit(ready_for("hold#0", "/hold"))
    prefetcher.submit(ready_for("a#0", "/a"))
    prefetcher.submit(ready_for("c#0", "/c"))
    prefetcher.avg_response_time["a#0"] = 0.0  # demote a below c
    sim.run()
    assert endpoint.order == ["/hold", "/c", "/a"]
    assert prefetcher.stale_heap_entries > 0


def test_hit_rate_update_bumps_epoch():
    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=True)
    prefetcher.submit(ready_for("hold#0", "/hold"))
    prefetcher.submit(ready_for("a#0", "/a"))
    epoch_before = prefetcher._site_epoch.get("a#0", 0)
    cache.record_miss("a#0")
    assert prefetcher._site_epoch["a#0"] == epoch_before + 1
    sim.run()
    assert endpoint.order == ["/hold", "/a"]


def test_waiting_count_tracks_queue_in_both_modes():
    for lazy in (True, False):
        sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=lazy)
        prefetcher.submit(ready_for("hold#0", "/hold"))
        for i in range(3):
            prefetcher.submit(ready_for("q#0", "/q{}".format(i)))
        assert prefetcher.waiting == 3
        sim.run()
        assert prefetcher.waiting == 0


def test_sample_request_copied_once_per_site():
    # the satellite fix: sample_requests.setdefault(site, req.copy())
    # used to pay a full request copy on *every* fetch
    from repro.httpmsg.message import Request

    copies = {"n": 0}
    original_copy = Request.copy

    def counting_copy(self):
        copies["n"] += 1
        return original_copy(self)

    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=True)
    Request.copy = counting_copy
    try:
        prefetcher.submit(ready_for("a#0", "/a1"))
        sim.run()
        first_fetch = copies["n"]
        prefetcher.submit(ready_for("a#0", "/a2"))
        sim.run()
        second_fetch = copies["n"] - first_fetch
    finally:
        Request.copy = original_copy
    # the second fetch for a known site skips the sample copy
    assert second_fetch == first_fetch - 1
    assert "a#0" in prefetcher.sample_requests
