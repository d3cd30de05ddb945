"""Behavioral tests for the four non-Wish apps (transaction content)."""

import pytest

from repro.apps import get_app
from repro.device.runtime import AppRuntime
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import DirectTransport
from repro.server.content import Catalog


def run_flow(spec, steps, user="user-1"):
    sim = Simulator()
    origins, servers = spec.build_origin_map(sim, Catalog())
    transport = DirectTransport(sim, Link(rtt=0.055, shared=True), origins)
    runtime = AppRuntime(spec.build_apk(), transport, sim, spec.default_profile(user))

    def flow():
        results = [(yield sim.spawn(runtime.launch()))]
        for event, index in steps:
            yield Delay(2.0)
            results.append((yield sim.spawn(runtime.dispatch(event, index))))
        return results

    results = sim.run_process(flow())
    return runtime, servers, results


# -- Geek ---------------------------------------------------------------------
def test_geek_detail_combines_product_and_reviews_via_rx():
    spec = get_app("geek")
    runtime, _, results = run_flow(spec, [("select_item", 2)])
    detail = results[-1]
    paths = [t.request.uri.path for t in detail.transactions]
    assert "/api/product" in paths
    assert "/api/reviews" in paths
    assert "/api/related" in paths
    assert "/p" in paths  # the 315 KB product image
    product = next(t for t in detail.transactions if t.request.uri.path == "/api/product")
    assert product.request.body.get("_app") == "geek"
    # vip flag is off: the branch-dependent field is absent
    assert product.request.body.get("vip_tier") is None


def test_geek_related_navigation_reuses_detail_sites():
    spec = get_app("geek")
    runtime, _, results = run_flow(
        spec, [("select_item", 0), ("select_related", 1)]
    )
    related_view = results[-1]
    product = next(
        t for t in related_view.transactions if t.request.uri.path == "/api/product"
    )
    first_detail = next(
        t for t in results[1].transactions if t.request.uri.path == "/api/product"
    )
    assert product.request.body.get("pid") != first_detail.request.body.get("pid")


# -- DoorDash --------------------------------------------------------------------
def test_doordash_menu_uses_store_id_path_segment():
    spec = get_app("doordash")
    runtime, _, results = run_flow(spec, [("select_store", 1)])
    store_view = results[-1]
    menu = next(t for t in store_view.transactions if t.request.uri.path.endswith("/menu"))
    schedule = next(
        t for t in store_view.transactions if t.request.uri.path.endswith("/schedule")
    )
    stores = results[0].transactions[0].response.body.value["stores"]
    expected = stores[1]["id"]
    assert menu.request.uri.path == "/v2/store/{}/menu".format(expected)
    assert schedule.request.uri.path == "/v2/store/{}/schedule".format(expected)


def test_doordash_drilldown_chain_to_suggestions():
    spec = get_app("doordash")
    runtime, _, results = run_flow(
        spec, [("select_store", 0), ("select_menu_item", 2)]
    )
    item_view = results[-1]
    paths = [t.request.uri.path for t in item_view.transactions]
    assert "/v2/menu-item" in paths
    assert "/v2/options" in paths
    assert "/v2/suggestions" in paths
    options = next(t for t in item_view.transactions if t.request.uri.path == "/v2/options")
    detail = next(t for t in item_view.transactions if t.request.uri.path == "/v2/menu-item")
    group = detail.response.body.value["item"]["option_group"]
    assert options.request.uri.query_get("gid") == group


def test_doordash_add_to_cart_side_effect(origin_requests):
    spec = get_app("doordash")
    run_flow(
        spec, [("select_store", 0), ("select_menu_item", 1), ("add_to_cart", None)]
    )
    cart_requests = [
        req for req, _ in origin_requests["https://api.doordash.com"]
        if req.uri.path == "/v2/menu-item" and req.body.kind == "form"
        and req.body.get("cart") == "1"
    ]
    assert len(cart_requests) == 1


# -- Purple Ocean -----------------------------------------------------------------
def test_purple_ocean_advisor_page_three_transactions():
    spec = get_app("purple_ocean")
    runtime, _, results = run_flow(spec, [("select_advisor", 3)])
    advisor_view = results[-1]
    paths = [t.request.uri.path for t in advisor_view.transactions]
    assert paths[0] == "/api/advisor"
    assert any(p.startswith("/media/profile/") for p in paths)
    assert any(p.startswith("/media/still/") for p in paths)
    assert len(advisor_view.transactions) == 3  # exactly Table 2's rows


def test_purple_ocean_media_paths_keyed_by_advisor_id():
    spec = get_app("purple_ocean")
    runtime, _, results = run_flow(spec, [("select_advisor", 0)])
    advisor_view = results[-1]
    info = advisor_view.transactions[0]
    advisor_id = info.response.body.value["advisor"]["id"]
    profile = next(
        t for t in advisor_view.transactions
        if t.request.uri.path.startswith("/media/profile/")
    )
    assert profile.request.uri.path == "/media/profile/{}.png".format(advisor_id)


def test_purple_ocean_processing_delay_largest():
    spec = get_app("purple_ocean")
    runtime, _, results = run_flow(spec, [("select_advisor", 1)])
    assert results[-1].processing_delay == pytest.approx(0.8)


# -- Postmates ---------------------------------------------------------------------
def test_postmates_restaurant_page_contents():
    spec = get_app("postmates")
    runtime, _, results = run_flow(spec, [("select_restaurant", 2)])
    view = results[-1]
    paths = [t.request.uri.path for t in view.transactions]
    assert "/v1/restaurant" in paths
    assert "/v1/eta" in paths
    assert any(p.startswith("/store-img/") for p in paths)
    restaurant = next(t for t in view.transactions if t.request.uri.path == "/v1/restaurant")
    # the menu & info response is small (~7 KB class)
    assert restaurant.response.body.wire_size() < 20_000


def test_postmates_deep_drilldown_pairings_cycle():
    spec = get_app("postmates")
    runtime, _, results = run_flow(
        spec,
        [("select_restaurant", 0), ("select_item", 1), ("select_pairing", 0)],
    )
    pairing_view = results[-1]
    paths = [t.request.uri.path for t in pairing_view.transactions]
    assert "/v1/item" in paths
    assert "/v1/pairings" in paths
    assert runtime.current_screen == "item"


def test_postmates_feed_images_are_large():
    spec = get_app("postmates")
    runtime, _, results = run_flow(spec, [])
    images = [
        t for t in results[0].transactions
        if t.request.uri.path.startswith("/store-img/")
    ]
    assert images
    for image in images:
        assert image.response.body.wire_size() > 100_000  # ~168 KB class
