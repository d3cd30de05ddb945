"""Tests for the prefetch-efficacy machinery: outcome-aware admission,
the wasted-prefetch counter, and the history-based baseline strategy.
"""

import random

import pytest

from repro.httpmsg.body import JsonBody
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig
from repro.proxy.history import HistoryPrefetcher
from repro.server.origin import OriginServer
from tests.oracles.flat_cache import FlatPrefetchCache
from tests.test_prefetch_bound import SITE, make_prefetcher, ready, request, serve


def make_request(path):
    return Request("GET", Uri.parse("https://eff.example" + path))


def make_response(payload):
    return Response(200, body=JsonBody(payload))


# ----------------------------------------------------------------------
# outcome-aware admission (§4.4 threshold on what prefetches became)
# ----------------------------------------------------------------------
def build_prefetcher(threshold=0.3, min_issued=5, explore=0.0, bound=None, ttl=300.0):
    return make_prefetcher(
        bound,
        ttl=ttl,
        admission_threshold=threshold,
        admission_min_issued=min_issued,
        admission_explore=explore,
    )


def drive(sim, cache, prefetcher, used=0, wasted=0):
    """Give ``used + wasted`` prefetches of the site their outcomes, one
    user each: a first hit for ``used``, a failed fetch for ``wasted``."""
    first = prefetcher.issued
    users = ["o{}".format(first + i) for i in range(used + wasted)]
    for index, user in enumerate(users):
        path = "/ok" if index < used else "/err"
        assert prefetcher.submit(ready(path, user=user)) in ("started", "queued")
    sim.run()
    for user in users[:used]:
        serve(cache, sim, "/ok", user=user)


def test_admission_allows_during_warmup():
    sim, cache, prefetcher = build_prefetcher(min_issued=5)
    drive(sim, cache, prefetcher, wasted=4)  # below warmup
    assert prefetcher._admitted("u0", SITE)


def test_admission_blocks_cold_signatures():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, explore=0.0)
    drive(sim, cache, prefetcher, used=1, wasted=9)  # 0.1 < 0.3
    assert not prefetcher._admitted("u0", SITE)
    assert prefetcher.submit(ready("/next")) == "skipped_admission"


def test_admission_passes_hot_signatures():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3)
    drive(sim, cache, prefetcher, used=4, wasted=6)  # 0.4 >= 0.3
    assert prefetcher._admitted("u0", SITE)


def test_admission_explores_blocked_signatures():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, explore=0.5)
    drive(sim, cache, prefetcher, wasted=10)
    prefetcher.rng = random.Random(7)
    admitted = sum(prefetcher._admitted("u0", SITE) for _ in range(400))
    # the explore coin re-admits roughly its configured fraction
    assert 120 < admitted < 280


def test_admission_per_signature_override_beats_global():
    sim, cache, prefetcher = build_prefetcher(threshold=0.9, explore=0.0)
    prefetcher.config.policy(SITE).min_hit_probability = 0.05
    # 0.1 >= the per-policy 0.05, < the global 0.9
    drive(sim, cache, prefetcher, used=1, wasted=9)
    assert prefetcher._admitted("u0", SITE)


def test_admission_disabled_when_no_threshold():
    sim, cache, prefetcher = build_prefetcher(threshold=None, min_issued=2)
    drive(sim, cache, prefetcher, wasted=20)
    assert prefetcher._admitted("u0", SITE)
    # nor is there a warm-up cap: one user opens any number
    outcomes = {prefetcher.submit(ready("/p{}".format(i))) for i in range(20)}
    assert outcomes == {"started", "queued"}


def test_admission_needs_a_warmup_of_at_least_one():
    with pytest.raises(ValueError):
        ProxyConfig(admission_threshold=0.3, admission_min_issued=0)


def test_a_used_entry_counts_once_however_often_hit():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, min_issued=5)
    drive(sim, cache, prefetcher, used=1, wasted=4)
    for _ in range(5):
        serve(cache, sim, "/ok", user="o0")
    assert cache.used == 1 and cache.used_by_site == {SITE: 1}
    # judged 1 used of 5 decided (0.2 < 0.3), not 5 hits on 5 issues
    assert not prefetcher._admitted("u0", SITE)


def test_a_hit_credits_the_entry_site_not_the_request_site():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, min_issued=2)
    other = "b#0"
    prefetcher.submit(ready("/a"))
    prefetcher.submit(ready("/b"))
    sim.run()
    for path in ("/a", "/b"):
        entry, _ = cache.lookup("u0", request(path), sim.now)
        # a demand request matched to another signature hits the entry
        cache.serve("u0", entry)
        cache.record_hit(other)
    assert cache.used_by_site == {SITE: 2}
    assert cache.hits == {other: 2}
    assert prefetcher.open_prefetches("u0") == 0
    assert prefetcher._admitted("u0", SITE)  # 2 of 2 used


def _wait(seconds):
    yield Delay(seconds)


def one_waste_frees_one_slot(cache, prefetcher, waste):
    """u1 holds the warm-up cap (3) of open prefetches; ``waste()``
    decides exactly one of them wasted, which frees exactly one slot."""
    assert prefetcher.open_prefetches("u1", SITE) == 3
    assert prefetcher.submit(ready("/d", user="u1")) == "skipped_admission"
    wasted = cache.wasted + prefetcher.errors
    waste()
    assert cache.wasted + prefetcher.errors == wasted + 1
    assert prefetcher.open_prefetches("u1", SITE) == 2
    assert prefetcher.submit(ready("/d", user="u1")) == "started"


def test_a_failed_fetch_decides_one_waste_and_frees_a_slot():
    sim, cache, prefetcher = build_prefetcher(min_issued=3)
    for path in ("/err", "/b", "/c"):
        assert prefetcher.submit(ready(path, user="u1")) == "started"
    one_waste_frees_one_slot(cache, prefetcher, sim.run)
    assert prefetcher.errors == 1


def test_an_eviction_decides_one_waste_and_frees_a_slot():
    sim, cache, prefetcher = build_prefetcher(min_issued=3, bound=3)
    prefetcher.submit(ready("/a", user="u1"))
    sim.run()
    # a served "/s" fills a cache slot but holds no open one
    prefetcher.submit(ready("/s", user="u1"))
    sim.run()
    serve(cache, sim, "/s", user="u1")
    for path in ("/b", "/c"):
        assert prefetcher.submit(ready(path, user="u1")) == "started"

    def evict():
        sim.run()  # storing "/c" evicts the least recent entry, "/a"
        assert cache.lru_evictions == 1

    one_waste_frees_one_slot(cache, prefetcher, evict)


def test_an_expiry_decides_one_waste_and_frees_a_slot():
    sim, cache, prefetcher = build_prefetcher(min_issued=3, ttl=1.0)
    prefetcher.submit(ready("/a", user="u1"))
    sim.run()
    prefetcher.config.policy(SITE).expiration_time = 300.0
    for path in ("/b", "/c"):
        prefetcher.submit(ready(path, user="u1"))
    sim.run()

    def expire():
        sim.run_process(_wait(2.0))
        assert cache.purge_expired(sim.now) == 1

    one_waste_frees_one_slot(cache, prefetcher, expire)


def test_an_overwrite_decides_one_waste_and_frees_a_slot():
    sim, cache, prefetcher = build_prefetcher(min_issued=3, ttl=1.0)
    prefetcher.submit(ready("/a", user="u1"))
    sim.run()
    prefetcher.config.policy(SITE).expiration_time = 300.0
    prefetcher.submit(ready("/b", user="u1"))
    sim.run_process(_wait(2.0))
    # "/a" expired unread and is not purged: a new prefetch of it opens
    # a third slot, and storing it replaces the old entry
    assert prefetcher.submit(ready("/a", user="u1")) == "started"
    one_waste_frees_one_slot(cache, prefetcher, sim.run)
    assert len(cache.entries_for_user("u1")) == 2


def test_warmup_caps_open_prefetches_per_user():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, min_issued=2)
    assert prefetcher.submit(ready("/a", user="A")) == "started"
    assert prefetcher.submit(ready("/b", user="A")) == "started"
    assert prefetcher.submit(ready("/c", user="A")) == "skipped_admission"
    assert prefetcher.submit(ready("/a", user="B")) == "started"
    sim.run()
    # stored unread, A's two still hold its warm-up slots
    assert prefetcher.submit(ready("/c", user="A")) == "skipped_admission"
    serve(cache, sim, "/a", user="A")
    assert prefetcher.submit(ready("/c", user="A")) == "started"


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
    entry = cache.lookup("u0", a, 0.5)[0]
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
    assert cache.lookup("u0", b, sim.now)[0] is not None


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
    assert cache.lookup("u1", b, sim.now)[0] is None
