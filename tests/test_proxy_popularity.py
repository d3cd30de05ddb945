"""Tests for popularity-guided prefetching (§6.3 extension)."""

import pytest

from repro.analysis import analyze_apk
from repro.apps.wish import SPEC as WISH
from repro.device.runtime import AppRuntime
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.proxy import AccelerationProxy, ProxiedTransport, default_config
from repro.proxy.popularity import PopularityTracker
from repro.server.content import Catalog


# -- tracker unit tests ---------------------------------------------------------
def key(value):
    return (("body.cid", value),)


def test_counts_accumulate():
    tracker = PopularityTracker()
    tracker.record("s#0", key("a"))
    tracker.record("s#0", key("a"))
    tracker.record("s#0", key("b"))
    assert tracker.count("s#0", key("a")) == 2
    assert tracker.count("s#0", key("b")) == 1
    assert tracker.count("s#0", key("zzz")) == 0
    assert tracker.distinct_items("s#0") == 2


def test_rank_orders_by_count():
    tracker = PopularityTracker()
    for _ in range(3):
        tracker.record("s#0", key("hot"))
    tracker.record("s#0", key("cold"))
    assert tracker.rank("s#0", key("hot")) == 1
    assert tracker.rank("s#0", key("cold")) == 2
    assert tracker.rank("s#0", key("unseen")) is None


def test_allows_cold_start():
    tracker = PopularityTracker()
    # fewer distinct items than K: everything allowed
    assert tracker.allows("s#0", key("anything"), top_k=5)


def test_allows_top_k_cutoff():
    tracker = PopularityTracker()
    for index in range(5):
        for _ in range(5 - index):
            tracker.record("s#0", key("item{}".format(index)))
    assert tracker.allows("s#0", key("item0"), top_k=2)
    assert tracker.allows("s#0", key("item1"), top_k=2)
    assert not tracker.allows("s#0", key("item4"), top_k=2)
    assert not tracker.allows("s#0", key("unseen"), top_k=2)


def test_sites_independent():
    tracker = PopularityTracker()
    tracker.record("a#0", key("x"))
    assert tracker.count("b#0", key("x")) == 0


# -- end-to-end: the policy trims prefetch volume -------------------------------
@pytest.fixture(scope="module")
def analysis():
    return analyze_apk(WISH.build_apk())


def browse_session(analysis, top_k):
    sim = Simulator()
    origins, _ = WISH.build_origin_map(sim, Catalog())
    config = default_config(analysis)
    if top_k is not None:
        for signature in analysis.signatures:
            if signature.is_successor():
                config.policy(signature.site).popularity_top_k = top_k
    proxy = AccelerationProxy(sim, origins, analysis, config=config)
    runtime = AppRuntime(
        WISH.build_apk(),
        ProxiedTransport(sim, Link(rtt=0.055, shared=True), proxy),
        sim,
        WISH.default_profile(),
    )

    def flow():
        yield sim.spawn(runtime.launch())
        for index in range(4):
            yield Delay(5.0)
            yield sim.spawn(runtime.dispatch("select_item", index))
            yield Delay(3.0)
            yield sim.spawn(runtime.dispatch("select_related", 0))
            # back to the feed for the next item
            yield sim.spawn(runtime.launch())
        return None

    sim.run_process(flow())
    return proxy


def test_top_k_reduces_prefetch_volume(analysis):
    unrestricted = browse_session(analysis, top_k=None)
    restricted = browse_session(analysis, top_k=3)
    assert restricted.prefetcher.skipped_popularity > 0
    assert restricted.prefetcher.issued < unrestricted.prefetcher.issued
    assert (
        restricted.prefetcher.prefetch_bytes
        < unrestricted.prefetcher.prefetch_bytes
    )


def test_top_k_policy_round_trips_in_config(analysis):
    from repro.proxy.config import ProxyConfig

    config = default_config(analysis)
    site = analysis.prefetchable()[0].site
    config.policy(site).popularity_top_k = 7
    restored = ProxyConfig.from_json(config.to_json())
    assert restored.policy(site).popularity_top_k == 7


def test_popularity_recorded_from_client_traffic(analysis):
    proxy = browse_session(analysis, top_k=None)
    detail_site = next(s.site for s in analysis.signatures if "postDetail" in s.site)
    assert proxy.prefetcher.popularity.distinct_items(detail_site) >= 1


# -- plan-driven item keys against the seed's template walk ----------------------
def test_plan_driven_item_key_matches_seed_walk_on_recorded_sessions():
    from repro.analysis.pipeline import AnalysisOptions
    from repro.apps import all_apps
    from repro.apps.registry import get_app
    from repro.experiments.scale import record_session_transactions
    from repro.proxy.instances import SignatureMatcher, build_runtime_signatures
    from repro.proxy.popularity import item_key_for_request
    from tests.oracles.template_walk import seed_item_key_for_request

    checked = keyed = 0
    for name in all_apps():
        spec = get_app(name)
        analysis = analyze_apk(spec.build_apk(), AnalysisOptions(run_slicing=False))
        matcher = SignatureMatcher(build_runtime_signatures(analysis))
        for transaction in record_session_transactions(name):
            request = transaction.request
            signature = matcher.match(request)
            if signature is None:
                continue
            key = item_key_for_request(signature, request)
            assert key == seed_item_key_for_request(signature, request), (
                name,
                signature.site,
            )
            checked += 1
            keyed += bool(key)
    assert checked and keyed
