"""End-to-end proxy tests: Fig. 10 behavior on the Wish app."""

import pytest

from repro.analysis import analyze_apk
from repro.apps.wish import SPEC as WISH
from repro.device.runtime import AppRuntime
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import DirectTransport
from repro.proxy import AccelerationProxy, ProxiedTransport, default_config
from repro.server.content import Catalog


@pytest.fixture(scope="module")
def analysis():
    return analyze_apk(WISH.build_apk())


def build(analysis, config=None, user="u1"):
    sim = Simulator()
    origins, servers = WISH.build_origin_map(sim, Catalog())
    proxy = AccelerationProxy(sim, origins, analysis, config=config)
    transport = ProxiedTransport(sim, Link(rtt=0.055, shared=True), proxy)
    runtime = AppRuntime(WISH.build_apk(), transport, sim, WISH.default_profile(user))
    return sim, proxy, runtime, servers


def browse(sim, runtime, think=6.0, index=3):
    def flow():
        launch = yield sim.spawn(runtime.launch())
        yield Delay(think)
        select = yield sim.spawn(runtime.dispatch("select_item", index))
        return launch, select

    return sim.run_process(flow())


def test_prefetched_responses_served(analysis):
    sim, proxy, runtime, _ = build(analysis)
    _, select = browse(sim, runtime)
    assert proxy.served_prefetched >= 3  # product/get, related/get, image
    paths = {t.request.uri.path for t in select.transactions}
    assert "/product/get" in paths


def test_served_responses_identical_to_origin(analysis):
    sim_p, proxy, runtime_p, _ = build(analysis)
    _, select_proxied = browse(sim_p, runtime_p)

    sim_d = Simulator()
    origins, _ = WISH.build_origin_map(sim_d, Catalog())
    transport = DirectTransport(sim_d, Link(rtt=0.055, shared=True), origins)
    runtime_d = AppRuntime(
        WISH.build_apk(), transport, sim_d, WISH.default_profile("u1")
    )
    _, select_direct = browse(sim_d, runtime_d)

    # R3: the proxy must not alter app behavior — same bodies either way
    proxied = {
        t.request.uri.path: t.response.body.to_wire()
        for t in select_proxied.transactions
    }
    direct = {
        t.request.uri.path: t.response.body.to_wire()
        for t in select_direct.transactions
    }
    assert proxied == direct


def test_acceleration_reduces_latency(analysis):
    sim_p, _, runtime_p, _ = build(analysis)
    _, select_proxied = browse(sim_p, runtime_p)

    sim_d = Simulator()
    origins, _ = WISH.build_origin_map(sim_d, Catalog())
    transport = DirectTransport(sim_d, Link(rtt=0.055, shared=True), origins)
    runtime_d = AppRuntime(WISH.build_apk(), transport, sim_d, WISH.default_profile())
    _, select_direct = browse(sim_d, runtime_d)

    assert select_proxied.latency < select_direct.latency * 0.75


def test_side_effect_transaction_never_prefetched(analysis):
    sim, proxy, runtime, servers = build(analysis)

    def flow():
        yield sim.spawn(runtime.launch())
        yield Delay(6.0)
        yield sim.spawn(runtime.dispatch("select_item", 1))
        yield Delay(2.0)
        yield sim.spawn(runtime.dispatch("buy"))
        return None

    sim.run_process(flow())
    api = servers["https://api.wish.com"]
    # exactly the one client purchase; the proxy never fired /cart/add
    assert api.requests_by_route.get("cart-adds") == 1
    assert proxy.prefetcher.skipped_policy > 0


def test_prefetch_disabled_entirely(analysis):
    config = default_config(analysis)
    for site in list(config.policies):
        config.disable(site, "test")
    sim, proxy, runtime, _ = build(analysis, config=config)
    browse(sim, runtime)
    assert proxy.prefetcher.issued == 0
    assert proxy.served_prefetched == 0


def test_probability_zero_disables_prefetch(analysis):
    config = default_config(analysis)
    config.global_probability = 0.0
    sim, proxy, runtime, _ = build(analysis, config=config)
    browse(sim, runtime)
    assert proxy.prefetcher.issued == 0
    assert proxy.prefetcher.skipped_probability > 0


def test_data_budget_caps_prefetching(analysis):
    config = default_config(analysis)
    config.data_budget_bytes = 500_000
    sim, proxy, runtime, _ = build(analysis, config=config)
    browse(sim, runtime)
    assert proxy.prefetcher.skipped_budget > 0
    # budget is a high-water cutoff: one in-flight batch may overshoot,
    # but issuing stops right after crossing it
    assert proxy.prefetcher.issued < 120


def test_expired_prefetch_not_served(analysis):
    config = default_config(analysis)
    for site in config.policies:
        config.policies[site].expiration_time = 0.5  # everything stale fast
    sim, proxy, runtime, _ = build(analysis, config=config)
    _, select = browse(sim, runtime, think=30.0)
    # the detail-page entries expired during the 30 s think time: the
    # client's select-item requests all went to the origin (launch
    # thumbnails may still hit — they are consumed within the TTL)
    detail_site = next(s.site for s in analysis.signatures if "postDetail" in s.site)
    assert proxy.cache.hits.get(detail_site) is None
    assert proxy.cache.expired_evictions > 0
    assert select.transactions[0].response.status == 200


def test_add_header_marks_prefetch_requests(analysis, origin_requests):
    config = default_config(analysis)
    for site in config.policies:
        config.policies[site].add_header = [("X-Moz", "prefetch")]
    sim, proxy, runtime, servers = build(analysis, config=config)
    browse(sim, runtime)
    api_log = origin_requests["https://api.wish.com"]
    marked = [
        req for req, _ in api_log if req.headers.get("X-Moz") == "prefetch"
    ]
    unmarked = [req for req, _ in api_log if "X-Moz" not in req.headers]
    assert marked, "prefetch requests must carry the indicator header"
    assert unmarked, "client requests must not"
    # and the marked requests still hit the cache for the client
    assert proxy.served_prefetched >= 1


def test_condition_policy_gates_prefetch(analysis):
    from repro.proxy.config import Condition

    config = default_config(analysis)
    detail_site = next(s for s in config.policies if "postDetail" in s)
    config.policies[detail_site].condition = Condition("price", "gt", "1000000")
    sim, proxy, runtime, _ = build(analysis, config=config)
    browse(sim, runtime)
    assert proxy.prefetcher.skipped_condition > 0
    assert proxy.prefetcher.success_by_site.get(detail_site) is None


def test_proxy_counts_bytes(analysis):
    sim, proxy, runtime, _ = build(analysis)
    browse(sim, runtime)
    assert proxy.client_bytes > 0
    assert proxy.server_bytes > 0
    assert proxy.total_server_bytes() > proxy.server_bytes  # prefetch traffic


def test_per_user_cache_isolation(analysis):
    sim = Simulator()
    origins, _ = WISH.build_origin_map(sim, Catalog())
    proxy = AccelerationProxy(sim, origins, analysis)
    link1 = Link(rtt=0.055, shared=True)
    link2 = Link(rtt=0.055, shared=True)
    r1 = AppRuntime(
        WISH.build_apk(), ProxiedTransport(sim, link1, proxy), sim,
        WISH.default_profile("alice"),
    )
    r2 = AppRuntime(
        WISH.build_apk(), ProxiedTransport(sim, link2, proxy), sim,
        WISH.default_profile("bob"),
    )

    def flow():
        yield sim.spawn(r1.launch())
        yield sim.spawn(r2.launch())
        yield Delay(6.0)
        a = yield sim.spawn(r1.dispatch("select_item", 2))
        b = yield sim.spawn(r2.dispatch("select_item", 2))
        return a, b

    a, b = sim.run_process(flow())
    # both accelerated, with distinct (personalized) feeds and cookies
    cookie_a = next(
        t for t in a.transactions if t.request.uri.path == "/product/get"
    ).request.headers.get("Cookie")
    cookie_b = next(
        t for t in b.transactions if t.request.uri.path == "/product/get"
    ).request.headers.get("Cookie")
    assert cookie_a != cookie_b
    assert proxy.served_prefetched >= 4
