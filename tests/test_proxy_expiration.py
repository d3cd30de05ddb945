"""Tests for the §4.3 online expiration estimator.

A synthetic origin with a known ``rotation_period`` gives the probes a
ground-truth content lifetime to converge on; fault injection exercises
disable-on-error; a wired-up prefetcher shows learned TTLs reaching the
cache's expiry.
"""

import pytest

from repro.httpmsg.body import JsonBody
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.config import ProxyConfig
from repro.proxy.expiration import ExpirationEstimator, ttl_from_headers
from repro.server.origin import OriginServer

ORIGIN = "https://ttl.example"
SITE = "Feed.load#0"


def build(rotation=16.0, max_ttl=600.0, headers=None, **kwargs):
    sim = Simulator()
    server = OriginServer(sim, ORIGIN)
    server.rotation_period = rotation

    def rotating(server, request, user):
        extra = Headers()
        for name, value in (headers or []):
            extra.set(name, value)
        return Response(
            200, headers=extra, body=JsonBody({"v": server.content_version()})
        )

    server.route("GET", "/feed", rotating, name="feed")
    origins = OriginMap()
    origins.register(ORIGIN, server, Link(rtt=0.02))
    config = ProxyConfig()
    estimator = ExpirationEstimator(
        sim, origins, config, max_ttl=max_ttl, **kwargs
    )
    request = Request("GET", Uri.parse(ORIGIN + "/feed"))
    return sim, server, config, estimator, request


# ----------------------------------------------------------------------
# ttl_from_headers
# ----------------------------------------------------------------------
def test_ttl_from_headers_parses_max_age():
    response = Response(200)
    response.headers.set("Cache-Control", "public, max-age=120")
    assert ttl_from_headers(response) == 120.0


def test_ttl_from_headers_no_store_wins():
    response = Response(200)
    response.headers.set("Cache-Control", "no-store, max-age=120")
    assert ttl_from_headers(response) == 0.0


def test_ttl_from_headers_absent():
    assert ttl_from_headers(Response(200)) is None


# ----------------------------------------------------------------------
# probe convergence
# ----------------------------------------------------------------------
def test_probes_converge_near_known_rotation_period():
    sim, _, _, estimator, request = build(rotation=16.0)
    value = sim.run_process(estimator.probe_site(SITE, request))
    estimate = estimator.estimate(SITE)
    assert estimate.converged
    assert not estimate.disabled
    # the estimate is conservative: a proven-unchanged gap can never
    # exceed the real rotation period (probes that span a rotation
    # boundary observe a change and cap ``hi``)
    assert value is not None
    assert estimator.min_ttl <= value <= 16.0
    assert estimate.lo == value
    assert estimate.hi is not None and estimate.hi <= 16.0 * 2
    # probing is deterministic: a fresh identical deployment agrees
    sim2, _, _, estimator2, request2 = build(rotation=16.0)
    value2 = sim2.run_process(estimator2.probe_site(SITE, request2))
    assert value2 == value
    assert estimator2.probes_issued == estimator.probes_issued


def test_static_content_saturates_at_max_ttl():
    sim, _, _, estimator, request = build(rotation=0.0, max_ttl=64.0)
    value = sim.run_process(estimator.probe_site(SITE, request))
    assert value == 64.0
    assert estimator.estimate(SITE).converged


def test_converged_estimate_feeds_config_expiration():
    sim, _, config, estimator, request = build(rotation=16.0)
    before = config.policy(SITE).expiration_time
    value = sim.run_process(estimator.probe_site(SITE, request))
    assert config.policy(SITE).expiration_time == pytest.approx(value)
    assert config.policy(SITE).expiration_time != before


def test_origin_cache_headers_short_circuit_probing():
    sim, _, _, estimator, request = build(
        rotation=16.0, headers=[("Cache-Control", "max-age=42")]
    )
    value = sim.run_process(estimator.probe_site(SITE, request))
    estimate = estimator.estimate(SITE)
    assert value == 42.0
    assert estimate.from_headers
    # one baseline fetch was enough — no wait-and-compare cycles ran
    assert estimate.probes == 0


def test_ttl_for_honors_response_headers_without_probing():
    sim, _, _, estimator, _ = build()
    response = Response(200)
    response.headers.set("Cache-Control", "max-age=90")
    assert estimator.ttl_for(SITE, response) == 90.0
    # the learned value persists for header-less follow-ups
    assert estimator.ttl_for(SITE) == 90.0


# ----------------------------------------------------------------------
# disable-on-error
# ----------------------------------------------------------------------
def test_repeated_probe_errors_disable_the_signature():
    sim, server, config, estimator, request = build(error_limit=3)
    server.force_error("feed", 503)
    value = sim.run_process(estimator.probe_site(SITE, request))
    estimate = estimator.estimate(SITE)
    assert estimate.disabled
    assert estimate.consecutive_errors == 3
    assert value is None
    assert not config.policy(SITE).prefetch
    assert SITE in estimator.disabled_sites
    assert estimator.ttl_for(SITE) is None


def test_transient_errors_below_limit_do_not_disable():
    sim, server, config, estimator, request = build(
        rotation=16.0, error_limit=3
    )
    server.force_error("feed", 503)

    def flow():
        probe = sim.spawn(estimator.probe_site(SITE, request))
        # let exactly one probe fetch fail, then heal the origin
        yield Delay(0.1)
        server.clear_faults()
        value = yield probe
        return value

    value = sim.run_process(flow())
    estimate = estimator.estimate(SITE)
    assert not estimate.disabled
    assert estimate.errors >= 1
    assert estimate.consecutive_errors == 0
    assert estimate.converged
    assert value is not None
    assert config.policy(SITE).prefetch


# ----------------------------------------------------------------------
# wired into the serving path
# ----------------------------------------------------------------------
def test_prefetcher_stores_entries_under_learned_ttl():
    from repro.proxy.cache import PrefetchCache
    from repro.proxy.prefetcher import Prefetcher

    sim, _, config, estimator, request = build(rotation=16.0)
    learned = sim.run_process(estimator.probe_site(SITE, request))
    cache = PrefetchCache()
    prefetcher = Prefetcher(
        sim, estimator.origins, cache, config, learner=None
    )
    prefetcher.expiration = estimator
    assert prefetcher.ttl_for(SITE) == pytest.approx(learned)
    response = Response(200, body=JsonBody({"v": 1}))
    cache.put(
        "u0", request, response, SITE, now=sim.now,
        ttl=prefetcher.ttl_for(SITE),
    )
    entry = cache.lookup("u0", request, sim.now)[0]
    assert entry is not None
    assert entry.expires_at == pytest.approx(sim.now + learned)
    # ...and the cache expires it right after the learned TTL
    assert cache.lookup("u0", request, sim.now + learned + 1.0)[0] is None


def test_run_spawns_probers_for_sampled_sites():
    sim, _, _, estimator, request = build(rotation=16.0)
    samples = {}

    def flow():
        run = sim.spawn(estimator.run(samples, poll_interval=1.0, duration=200.0))
        yield Delay(2.0)
        samples[SITE] = request
        yield run
        return None

    sim.run_process(flow())
    assert estimator.estimate(SITE).converged
    assert estimator.probes_issued > 0
