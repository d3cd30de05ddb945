"""The per-user open-prefetch bound.

A bounded cache (``max_entries_per_user``) makes the prefetcher refuse
a prefetch for a user who already holds that many *open* prefetches:
queued, awaiting the origin, or stored and not yet served.  These tests
pin when a slot is taken and when it is given back.
"""

from repro.analysis.model import AnalysisResult
from repro.httpmsg.body import JsonBody
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import Endpoint, OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig
from repro.proxy.instances import RequestInstance
from repro.proxy.learning import DynamicLearner, ReadyPrefetch
from repro.proxy.prefetcher import Prefetcher
from tests.test_proxy_prefetcher import ORIGIN, make_signature

SITE = "a#0"


class _Origin(Endpoint):
    """Answers 200, or 500 for paths starting ``/err``."""

    def handle(self, request, user):
        yield Delay(0.05)
        status = 500 if request.uri.path.startswith("/err") else 200
        return Response(status, body=JsonBody({"p": request.uri.path}))


def make_prefetcher(bound, max_concurrent=8, ttl=300.0, **config_kwargs):
    sim = Simulator()
    origins = OriginMap()
    origins.register(ORIGIN, _Origin(), Link(rtt=0.02))
    cache = PrefetchCache(max_entries_per_user=bound)
    config = ProxyConfig(**config_kwargs)
    config.policy(SITE).expiration_time = ttl
    prefetcher = Prefetcher(
        sim, origins, cache, config, DynamicLearner(AnalysisResult("t", [], [])),
        max_concurrent=max_concurrent,
    )
    return sim, cache, prefetcher


def request(path):
    return Request("GET", Uri.parse(ORIGIN + path))


def ready(path, user="u0"):
    instance = RequestInstance(make_signature(SITE, path), user, depth=1)
    return ReadyPrefetch(instance, request(path))


def serve(cache, sim, path, user="u0"):
    entry, outcome = cache.lookup(user, request(path), sim.now)
    assert outcome == "hit"
    cache.serve(user, entry)  # what the proxy does on a hit


# -- the prefetcher gate ----------------------------------------------------
def test_a_user_at_the_bound_is_refused_and_others_are_not():
    sim, cache, prefetcher = make_prefetcher(bound=2)
    assert prefetcher.submit(ready("/a")) == "started"
    assert prefetcher.submit(ready("/b")) == "started"
    assert prefetcher.submit(ready("/c")) == "skipped_bound"
    assert prefetcher.submit(ready("/a", user="u1")) == "started"
    sim.run()
    # stored and unread, the two still hold u0's slots
    assert prefetcher.submit(ready("/c")) == "skipped_bound"
    assert prefetcher.skipped_bound == 2
    assert prefetcher.stats()["skipped_bound"] == 2
    assert prefetcher.issued == 3
    assert cache.lru_evictions == 0


def test_a_served_hit_reopens_exactly_one_slot():
    sim, cache, prefetcher = make_prefetcher(bound=2)
    prefetcher.submit(ready("/a"))
    prefetcher.submit(ready("/b"))
    sim.run()
    serve(cache, sim, "/a")
    serve(cache, sim, "/a")  # a second hit on the same entry frees nothing
    assert prefetcher.open_prefetches("u0") == 1
    assert prefetcher.submit(ready("/c")) == "started"
    assert prefetcher.submit(ready("/d")) == "skipped_bound"


def test_a_failed_fetch_frees_its_slot():
    sim, cache, prefetcher = make_prefetcher(bound=1)
    assert prefetcher.submit(ready("/err")) == "started"
    assert prefetcher.submit(ready("/b")) == "skipped_bound"  # in flight
    sim.run()
    assert prefetcher.errors == 1
    assert prefetcher.submit(ready("/b")) == "started"


def test_an_expired_entry_frees_its_slot_on_purge_and_on_lookup():
    sim, cache, prefetcher = make_prefetcher(bound=1, ttl=1.0)
    prefetcher.submit(ready("/a"))
    sim.run()
    assert prefetcher.submit(ready("/b")) == "skipped_bound"
    assert cache.purge_expired(sim.now + 1.0) == 1
    assert prefetcher.open_prefetches("u0") == 0 and cache.wasted == 1
    assert prefetcher.submit(ready("/b")) == "started"
    sim.run()
    assert cache.lookup("u0", request("/b"), sim.now + 1.0)[1] == "miss_expired"
    assert prefetcher.open_prefetches("u0") == 0 and cache.wasted == 2
    assert prefetcher.submit(ready("/c")) == "started"


def test_an_evicted_entry_frees_its_slot():
    sim, cache, prefetcher = make_prefetcher(bound=2)
    prefetcher.submit(ready("/a"))
    prefetcher.submit(ready("/b"))
    sim.run()
    serve(cache, sim, "/b")  # "/b" is now the most recently used
    prefetcher.submit(ready("/c"))
    sim.run()
    # "/c" took the freed slot; storing it evicted the oldest, unread "/a"
    assert cache.lru_evictions == 1 and cache.wasted == 1
    assert prefetcher.open_prefetches("u0") == 1
    assert prefetcher.submit(ready("/d")) == "started"


def test_queued_requests_count_as_open():
    sim, cache, prefetcher = make_prefetcher(bound=2, max_concurrent=1)
    assert prefetcher.submit(ready("/a")) == "started"
    assert prefetcher.submit(ready("/b")) == "queued"
    assert prefetcher.submit(ready("/c")) == "skipped_bound"
    sim.run()
    assert prefetcher.issued == 2


def test_an_unbounded_cache_never_refuses():
    sim, cache, prefetcher = make_prefetcher(bound=None, max_concurrent=4)
    outcomes = {prefetcher.submit(ready("/p{}".format(i))) for i in range(50)}
    sim.run()
    assert outcomes == {"started", "queued"}
    assert prefetcher.skipped_bound == 0
    assert prefetcher.issued == 50
    assert prefetcher.open_prefetches("u0") == 50
