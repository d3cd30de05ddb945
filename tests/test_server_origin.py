"""Tests for the origin-server framework and content catalogs."""

import pytest

from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri
from repro.netsim.sim import Simulator
from repro.server.content import Catalog, filler, stable_id, stable_name
from repro.server.origin import OriginServer, Route


def make_server():
    sim = Simulator()
    server = OriginServer(sim, "https://api.test.com", Catalog())

    def echo(server, request, user):
        return server.json({"path": request.uri.path, "user": user})

    def captured(server, request, user):
        return server.json({"sid": request._captures["sid"]})

    server.route("GET", "/echo", echo, service_time=0.01, name="echo")
    server.route("GET", "/store/<sid>/menu", captured, service_time=0.01, name="menu")
    return sim, server


def call(sim, server, request, user="u1"):
    return sim.run_process(server.handle(request, user))


def test_route_dispatch_and_service_time():
    sim, server = make_server()
    response = call(sim, server, Request("GET", Uri.parse("https://api.test.com/echo")))
    assert response.status == 200
    assert response.body.value["path"] == "/echo"
    assert sim.now == pytest.approx(0.01)


def test_path_captures():
    sim, server = make_server()
    response = call(
        sim, server, Request("GET", Uri.parse("https://api.test.com/store/ab12/menu"))
    )
    assert response.body.value["sid"] == "ab12"


def test_route_match_with_and_without_presplit_segments(monkeypatch):
    route = Route("GET", "/store/<sid>/menu", lambda *args: None)
    for url, expected in (
        ("https://api.test.com/store/ab12/menu", {"sid": "ab12"}),
        ("https://api.test.com/store/ab12", None),
        ("https://api.test.com/shop/ab12/menu", None),
    ):
        request = Request("GET", Uri.parse(url))
        assert route.match(request) == expected
        assert route.match(request, request.uri.path_segments()) == expected
    assert route.match(Request("POST", Uri.parse("https://api.test.com/store/a/menu"))) is None

    # the server splits the path once per request, not once per route
    sim, server = make_server()
    splits = []
    split = Uri.path_segments
    monkeypatch.setattr(Uri, "path_segments", lambda uri: splits.append(1) or split(uri))
    response = call(
        sim, server, Request("GET", Uri.parse("https://api.test.com/store/ab12/menu"))
    )
    assert response.body.value["sid"] == "ab12"
    assert len(server.routes) == 2 and len(splits) == 1


def test_unknown_path_404():
    sim, server = make_server()
    response = call(sim, server, Request("GET", Uri.parse("https://api.test.com/nope")))
    assert response.status == 404


def test_method_mismatch_404():
    sim, server = make_server()
    response = call(sim, server, Request("POST", Uri.parse("https://api.test.com/echo")))
    assert response.status == 404


def test_forced_error_and_clear():
    sim, server = make_server()
    server.force_error("echo", 503)
    response = call(sim, server, Request("GET", Uri.parse("https://api.test.com/echo")))
    assert response.status == 503
    server.clear_faults()
    response = call(sim, server, Request("GET", Uri.parse("https://api.test.com/echo")))
    assert response.status == 200


def test_hang_returns_gateway_timeout_late():
    sim, server = make_server()
    server.hang("echo")
    response = call(sim, server, Request("GET", Uri.parse("https://api.test.com/echo")))
    assert response.status == 504
    assert sim.now >= 30.0


def test_session_cookie_issued_once_and_stable():
    sim, server = make_server()
    first = call(sim, server, Request("GET", Uri.parse("https://api.test.com/echo")))
    issued = first.headers.get("Set-Cookie")
    assert issued and issued.startswith("bsid=u1-")
    # same user, still cookie-less request: identical session id
    second = call(sim, server, Request("GET", Uri.parse("https://api.test.com/echo")))
    assert second.headers.get("Set-Cookie") == issued
    # request presenting the session: no new Set-Cookie
    with_cookie = Request(
        "GET", Uri.parse("https://api.test.com/echo"),
        Headers([("Cookie", issued.split("=", 1)[0] + "=" + issued.split("=", 1)[1])]),
    )
    third = call(sim, server, with_cookie)
    assert third.headers.get("Set-Cookie") is None


def test_request_accounting():
    sim, server = make_server()
    for _ in range(3):
        call(sim, server, Request("GET", Uri.parse("https://api.test.com/echo")))
    assert server.request_count == 3
    assert server.requests_by_route["echo"] == 3


def test_content_version_rotates():
    sim, server = make_server()
    assert server.content_version() == 0
    sim._now = server.rotation_period + 1
    assert server.content_version() == 1
    server.rotation_period = 0
    assert server.content_version() == 0


# -- catalog -----------------------------------------------------------------------
def test_stable_id_deterministic_and_short():
    assert stable_id("a", 1) == stable_id("a", 1)
    assert stable_id("a", 1) != stable_id("a", 2)
    assert len(stable_id("x")) == 4


def test_stable_name_deterministic():
    assert stable_name("m", 3) == stable_name("m", 3)
    assert " " in stable_name("m", 3)


def test_filler_size_and_determinism():
    assert len(filler("x", 1000)) == 1000
    assert filler("x", 100) == filler("x", 100)
    assert filler("x", 100) != filler("y", 100)
    assert filler("x", 0) == ""


def test_catalog_feed_rotation_changes_items():
    catalog = Catalog()
    v0 = catalog.product_ids("wish", 0, user="u1")
    v1 = catalog.product_ids("wish", 1, user="u1")
    assert v0 != v1
    assert catalog.product_ids("wish", 0, user="u1") == v0


def test_catalog_feeds_personalized_per_user():
    catalog = Catalog()
    assert catalog.product_ids("wish", 0, user="u1") != catalog.product_ids(
        "wish", 0, user="u2"
    )


def test_catalog_product_consistent():
    catalog = Catalog()
    product_id = catalog.product_ids("wish", 0)[0]
    assert catalog.product("wish", product_id) == catalog.product("wish", product_id)


def test_catalog_image_sizes_bounded():
    catalog = Catalog()
    size = catalog.image_size("wish", "product-x", 315_000)
    assert 315_000 * 0.7 < size < 315_000 * 1.3


def test_catalog_different_seeds_differ():
    assert Catalog(seed=1).product_ids("wish", 0) != Catalog(seed=2).product_ids(
        "wish", 0
    )
