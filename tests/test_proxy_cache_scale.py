"""Sharded cache + expiry heap vs the flat full-scan oracle."""

import random

import pytest

from repro.httpmsg.body import JsonBody
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.proxy.cache import PrefetchCache
from tests.oracles.flat_cache import FlatPrefetchCache


def request(cid="1"):
    return Request("GET", Uri.parse("https://a.com/x?cid={}".format(cid)))


def response(payload=0):
    return Response(200, body=JsonBody({"v": payload}))


# -- boundary + overwrite semantics ------------------------------------------
@pytest.mark.parametrize("sharded", [True, False])
def test_boundary_now_equals_expires_at(sharded):
    cache = PrefetchCache() if sharded else FlatPrefetchCache()
    cache.put("u1", request(), response(), "s#0", now=0.0, ttl=5.0)
    assert cache.lookup("u1", request(), now=4.999)[0] is not None
    assert cache.lookup("u1", request(), now=5.0)[0] is None
    assert len(cache) == 0


@pytest.mark.parametrize("sharded", [True, False])
def test_boundary_purge_at_exact_expiry(sharded):
    cache = PrefetchCache() if sharded else FlatPrefetchCache()
    cache.put("u1", request(), response(), "s#0", now=0.0, ttl=5.0)
    assert cache.purge_expired(now=4.999) == 0
    assert cache.purge_expired(now=5.0) == 1
    assert len(cache) == 0


def test_overwrite_unexpired_entry_survives_stale_wheel_schedule():
    cache = PrefetchCache()
    cache.put("u1", request(), response(1), "s#0", now=0.0, ttl=1.0)
    # refresh before the first expiry comes due; the heap still holds
    # the old (expires_at=1.0, entry) record, which must be recognized
    # as stale (entry identity mismatch), not evict the replacement
    cache.put("u1", request(), response(2), "s#0", now=0.5, ttl=100.0)
    assert cache.purge_expired(now=2.0) == 0
    entry = cache.lookup("u1", request(), now=50.0)[0]
    assert entry is not None
    assert entry.response.body.value == {"v": 2}
    assert cache.purged == 0


@pytest.mark.parametrize("sharded", [True, False])
def test_overwriting_an_unread_entry_counts_it_wasted(sharded):
    cache = PrefetchCache() if sharded else FlatPrefetchCache()
    decided = []
    cache.on_decided = lambda user, site: decided.append((user, site))

    def put(value, now, ttl):
        cache.put(
            "u1", request("a"), response(value), "s#a",
            now=now, ttl=ttl, holds_slot=True,
        )

    put(1, now=0.0, ttl=1.0)
    # expired but not yet purged: the store replaces it unread
    put(2, now=2.0, ttl=60.0)
    assert cache.wasted == 1 and cache.wasted_by_site == {"s#a": 1}
    assert decided == [("u1", "s#a")]
    # a served entry that is overwritten (a refresh) was used, not wasted
    cache.serve("u1", cache.lookup("u1", request("a"), now=3.0)[0])
    assert cache.used_by_site == {"s#a": 1} and len(decided) == 2
    put(3, now=4.0, ttl=60.0)
    assert cache.wasted == 1 and len(decided) == 2
    # the stale heap records of both replaced entries waste nothing more
    assert cache.purge_expired(now=100.0) == 1
    assert cache.wasted == 2
    assert decided == [("u1", "s#a")] * 3


def test_refresh_same_expiry_tick_not_double_purged():
    cache = PrefetchCache()
    cache.put("u1", request(), response(1), "s#0", now=0.0, ttl=10.0)
    cache.put("u1", request(), response(2), "s#0", now=0.0, ttl=10.0)
    # two heap records point at one live entry; only one eviction happens
    assert cache.purge_expired(now=10.0) == 1
    assert len(cache) == 0
    assert cache.expired_evictions == 1


# -- differential: sharded/heap vs flat full scan -----------------------------
def test_sharded_matches_naive_under_randomized_ttls():
    rng = random.Random(2018)
    indexed = PrefetchCache()
    naive = FlatPrefetchCache()
    users = ["u{}".format(i) for i in range(8)]
    now = last_purge = 0.0
    for step in range(2000):
        now += rng.random() * 0.7
        op = rng.random()
        user = rng.choice(users)
        req = request(cid=str(rng.randrange(40)))
        if op < 0.55:
            ttl = rng.choice([0.1, 0.5, 1.0, 7.0, 60.0, 600.0, 1e4, 1e5])
            site = "s#{}".format(step)
            for cache in (indexed, naive):
                cache.put(user, req, response(step), site, now, ttl)
        elif op < 0.6:
            # a purge at a clock earlier than the previous purge's
            earlier = last_purge - rng.random() * 30.0
            assert indexed.purge_expired(earlier) == naive.purge_expired(earlier)
        elif op < 0.85:
            got_indexed = indexed.lookup(user, req, now)[0]
            got_naive = naive.lookup(user, req, now)[0]
            assert (got_indexed is None) == (got_naive is None)
            if got_indexed is not None:
                assert got_indexed.site == got_naive.site
                assert got_indexed.expires_at == got_naive.expires_at
        else:
            assert indexed.purge_expired(now) == naive.purge_expired(now)
            last_purge = now
        assert len(indexed) == len(naive)
    # drain everything: both stores must agree they are empty
    now += 1e6
    assert indexed.purge_expired(now) == naive.purge_expired(now) > 0
    assert len(indexed) == len(naive) == 0
    assert indexed.purged > 0
    # overwrites included, both count every entry that left unread
    assert indexed.wasted == naive.wasted == indexed.stored


def test_entries_for_user_deterministic_insertion_order():
    indexed = PrefetchCache()
    naive = FlatPrefetchCache()
    for i in (3, 1, 2):
        for cache in (indexed, naive):
            cache.put("u1", request(cid=str(i)), response(i), "s#{}".format(i), 0.0, 60.0)
            cache.put("u2", request(cid=str(i)), response(i), "other#0", 0.0, 60.0)
    assert [e.site for e in indexed.entries_for_user("u1")] == ["s#3", "s#1", "s#2"]
    assert [e.site for e in indexed.entries_for_user("u1")] == [
        e.site for e in naive.entries_for_user("u1")
    ]
    assert indexed.entries_for_user("nobody") == []
    assert indexed.user_count == naive.user_count == 2


# -- LRU bounds ---------------------------------------------------------------
def test_max_entries_per_user_evicts_least_recently_used():
    cache = PrefetchCache(max_entries_per_user=2)
    cache.put("u1", request(cid="a"), response(), "s#a", 0.0, 60.0)
    cache.put("u1", request(cid="b"), response(), "s#b", 1.0, 60.0)
    # touch "a" so "b" becomes the least recently used
    assert cache.lookup("u1", request(cid="a"), 2.0)[0] is not None
    cache.put("u1", request(cid="c"), response(), "s#c", 3.0, 60.0)
    assert cache.lru_evictions == 1
    assert cache.lookup("u1", request(cid="b"), 4.0)[0] is None
    assert cache.lookup("u1", request(cid="a"), 4.0)[0] is not None
    assert cache.lookup("u1", request(cid="c"), 4.0)[0] is not None


def test_max_entries_per_user_is_per_shard():
    cache = PrefetchCache(max_entries_per_user=1)
    cache.put("u1", request(cid="a"), response(), "s#a", 0.0, 60.0)
    cache.put("u2", request(cid="b"), response(), "s#b", 0.0, 60.0)
    assert cache.lru_evictions == 0
    assert len(cache) == 2


def test_bounded_overwrite_keeps_its_lru_slot():
    cache = PrefetchCache(max_entries_per_user=2)
    cache.put("u1", request(cid="a"), response(0), "s#a", 0.0, 60.0)
    cache.put("u1", request(cid="b"), response(0), "s#b", 1.0, 60.0)
    cache.put("u1", request(cid="a"), response(1), "s#a", 2.0, 60.0)  # overwrite
    cache.put("u1", request(cid="c"), response(0), "s#c", 3.0, 60.0)
    # the overwrite stayed in the oldest slot, so "a" is the one evicted
    assert cache.lru_evictions == 1
    assert [e.site for e in cache.entries_for_user("u1")] == ["s#b", "s#c"]
    assert len(cache) == 2


def test_unbounded_indexed_cache_skips_lru_tracking():
    cache = PrefetchCache()
    cache.put("u1", request(cid="a"), response(), "s#a", 0.0, 60.0)
    cache.put("u1", request(cid="b"), response(), "s#b", 0.0, 60.0)
    # a hit does not re-file the entry: insertion order stays the order
    assert cache.lookup("u1", request(cid="a"), 1.0)[0] is not None
    assert [e.site for e in cache.entries_for_user("u1")] == ["s#a", "s#b"]
    assert cache.lru_evictions == 0


# -- lookups for users without entries -----------------------------------------
class _CountingRequest(Request):
    """A request that counts how often its exact key is computed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exact_key_calls = 0

    def exact_key(self):
        self.exact_key_calls += 1
        return super().exact_key()


def counting_request(cid="1"):
    return _CountingRequest("GET", Uri.parse("https://a.com/x?cid={}".format(cid)))


def test_lookup_for_a_user_with_no_entries_computes_no_key():
    cache = PrefetchCache()
    cache.put("u1", request(), response(), "s#0", now=0.0, ttl=5.0)
    probe = counting_request()
    assert cache.lookup("u2", probe, now=1.0) == (None, "miss_absent")
    assert probe.exact_key_calls == 0


def test_lookup_after_the_last_entry_was_evicted_computes_no_key():
    cache = PrefetchCache(max_entries_per_user=4)
    cache.put("u1", request("1"), response(), "s#0", now=0.0, ttl=5.0)
    cache.put("u2", request("2"), response(), "s#0", now=1.0, ttl=50.0)
    # the sweep evicts u1's only entry once it has expired
    assert cache.purge_expired(now=6.0) == 1
    assert cache.user_count == 1
    probe = counting_request("1")
    assert cache.lookup("u1", probe, now=7.0) == (None, "miss_absent")
    assert probe.exact_key_calls == 0
    # a user holding entries still digests the request
    held = counting_request("2")
    entry, outcome = cache.lookup("u2", held, now=7.0)
    assert outcome == "hit" and held.exact_key_calls == 1


def test_flat_oracle_always_digests_and_agrees():
    sharded, flat = PrefetchCache(), FlatPrefetchCache()
    for cache in (sharded, flat):
        cache.put("u1", request(), response(), "s#0", now=0.0, ttl=5.0)
    for user in ("u1", "u2"):
        probes = counting_request(), counting_request()
        assert sharded.lookup(user, probes[0], now=1.0)[1] == flat.lookup(
            user, probes[1], now=1.0
        )[1]
        assert probes[1].exact_key_calls == 1
