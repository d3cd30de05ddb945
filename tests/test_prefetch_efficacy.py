"""Tests for the prefetch-efficacy machinery: hit-aware admission,
the wasted-prefetch counter, and the history-based baseline strategy.
"""

import random

from repro.httpmsg.body import JsonBody
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig
from repro.proxy.history import HistoryPrefetcher
from repro.proxy.prefetcher import Prefetcher
from repro.server.origin import OriginServer
from tests.oracles.flat_cache import FlatPrefetchCache

SITE = "Feed.load#1"


def make_request(path):
    return Request("GET", Uri.parse("https://eff.example" + path))


def make_response(payload):
    return Response(200, body=JsonBody(payload))


# ----------------------------------------------------------------------
# hit-aware admission (§4.4 threshold on *observed* hit probability)
# ----------------------------------------------------------------------
def build_prefetcher(threshold=0.3, min_issued=5, explore=0.0):
    sim = Simulator()
    config = ProxyConfig(
        admission_threshold=threshold,
        admission_min_issued=min_issued,
        admission_explore=explore,
    )
    cache = PrefetchCache()
    prefetcher = Prefetcher(sim, OriginMap(), cache, config, learner=None)
    return prefetcher, cache


def test_admission_allows_during_warmup():
    prefetcher, _ = build_prefetcher(min_issued=5)
    prefetcher.issued_by_site[SITE] = 4  # below warmup
    assert prefetcher._admitted(SITE)


def test_admission_blocks_cold_signatures():
    prefetcher, cache = build_prefetcher(threshold=0.3, explore=0.0)
    prefetcher.issued_by_site[SITE] = 10
    cache.hits[SITE] = 1  # observed probability 0.1 < 0.3
    assert not prefetcher._admitted(SITE)


def test_admission_passes_hot_signatures():
    prefetcher, cache = build_prefetcher(threshold=0.3)
    prefetcher.issued_by_site[SITE] = 10
    cache.hits[SITE] = 4  # 0.4 >= 0.3
    assert prefetcher._admitted(SITE)


def test_admission_explores_blocked_signatures():
    prefetcher, cache = build_prefetcher(threshold=0.3, explore=0.5)
    prefetcher.rng = random.Random(7)
    prefetcher.issued_by_site[SITE] = 100
    cache.hits[SITE] = 0
    admitted = sum(prefetcher._admitted(SITE) for _ in range(400))
    # the explore coin re-admits roughly its configured fraction
    assert 120 < admitted < 280


def test_admission_per_signature_override_beats_global():
    prefetcher, cache = build_prefetcher(threshold=0.9, explore=0.0)
    prefetcher.config.policy(SITE).min_hit_probability = 0.05
    prefetcher.issued_by_site[SITE] = 10
    cache.hits[SITE] = 1  # 0.1 >= the per-policy 0.05, < the global 0.9
    assert prefetcher._admitted(SITE)


def test_admission_disabled_when_no_threshold():
    prefetcher, cache = build_prefetcher(threshold=None)
    prefetcher.issued_by_site[SITE] = 1000
    cache.hits[SITE] = 0
    assert prefetcher._admitted(SITE)


# ----------------------------------------------------------------------
# wasted-prefetch accounting
# ----------------------------------------------------------------------
def test_lru_eviction_of_unserved_entry_counts_as_wasted():
    cache = PrefetchCache(max_entries_per_user=1)
    a, b = make_request("/a"), make_request("/b")
    cache.put("u0", a, make_response({"k": 1}), SITE, now=0.0, ttl=60.0)
    cache.put("u0", b, make_response({"k": 2}), SITE, now=1.0, ttl=60.0)
    assert cache.wasted == 1
    assert cache.wasted_by_site[SITE] == 1


def test_served_entry_is_not_wasted():
    cache = PrefetchCache(max_entries_per_user=1)
    a, b = make_request("/a"), make_request("/b")
    cache.put("u0", a, make_response({"k": 1}), SITE, now=0.0, ttl=60.0)
    entry = cache.get("u0", a, 0.5)
    entry.served = True
    cache.put("u0", b, make_response({"k": 2}), SITE, now=1.0, ttl=60.0)
    assert cache.wasted == 0


def test_expired_unserved_entry_counts_as_wasted():
    cache = PrefetchCache()
    cache.put(
        "u0", make_request("/a"), make_response({"k": 1}), SITE,
        now=0.0, ttl=5.0,
    )
    cache.purge_expired(10.0)
    assert cache.wasted == 1


def test_naive_cache_counts_wasted_identically():
    indexed = PrefetchCache()
    naive = FlatPrefetchCache()
    for cache in (indexed, naive):
        cache.put(
            "u0", make_request("/a"), make_response({"k": 1}), SITE,
            now=0.0, ttl=5.0,
        )
        cache.purge_expired(10.0)
    assert naive.wasted == indexed.wasted == 1


# ----------------------------------------------------------------------
# history-based baseline
# ----------------------------------------------------------------------
def build_history():
    sim = Simulator()
    server = OriginServer(sim, "https://eff.example")

    def echo(server, request, user):
        return Response(200, body=JsonBody({"path": request.uri.path}))

    server.route("GET", "/a", echo, name="a")
    server.route("GET", "/b", echo, name="b")
    origins = OriginMap()
    origins.register("https://eff.example", server, Link(rtt=0.02))
    cache = PrefetchCache()
    history = HistoryPrefetcher(sim, origins, cache, ttl=600.0)
    return sim, cache, history


def test_history_prefetches_most_frequent_successor():
    sim, cache, history = build_history()
    a, b = make_request("/a"), make_request("/b")

    def flow():
        # first cycle teaches the A -> B transition
        history.observe("u0", a, sim.now)
        history.observe("u0", b, sim.now)
        # second visit to A predicts B
        started = history.observe("u0", a, sim.now)
        assert started == 1
        yield Delay(1.0)
        return None

    sim.run_process(flow())
    assert history.issued == 1
    assert cache.get("u0", b, sim.now) is not None


def test_history_skips_fresh_duplicates():
    sim, cache, history = build_history()
    a, b = make_request("/a"), make_request("/b")

    def flow():
        history.observe("u0", a, sim.now)
        history.observe("u0", b, sim.now)
        history.observe("u0", a, sim.now)
        yield Delay(1.0)
        history.observe("u0", b, sim.now)
        started = history.observe("u0", a, sim.now)
        assert started == 0
        yield Delay(1.0)
        return None

    sim.run_process(flow())
    assert history.skipped_duplicate == 1
    # B was prefetched once (after the second A); the revisit of B also
    # predicted A from the learned B -> A transition
    assert history.issued == 2


def test_history_is_per_user():
    sim, cache, history = build_history()
    a, b = make_request("/a"), make_request("/b")

    def flow():
        history.observe("u0", a, sim.now)
        history.observe("u0", b, sim.now)
        # u1 visits A for the first time: no transition of their own
        started = history.observe("u1", a, sim.now)
        assert started == 0
        yield Delay(1.0)
        return None

    sim.run_process(flow())
    assert history.issued == 0
    assert cache.get("u1", b, sim.now) is None
