"""The simulated origin's per-record memo in ``Catalog``.

``product``, ``related_product_ids`` and ``image_size`` are memoised per
``Catalog`` instance.  The memo must be invisible: every call returns
what a fresh catalog of the same seed generates, two catalogs never
share records, and a caller that mutates a returned record cannot change
what the origin serves afterwards.
"""

import random

import pytest

from repro.httpmsg.body import FormBody
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri
from repro.netsim.sim import Simulator
from repro.server.backends.geek import build_geek_api
from repro.server.backends.wish import build_wish_api
from repro.server.content import Catalog, stable_id

APPS = ("wish", "geek", "doordash", "postmates", "purple_ocean")


def calls(seed=3, count=400):
    """A shuffled, repeating mix of memoised calls over several apps."""
    rng = random.Random(seed)
    ids = [stable_id(app, "product", n) for app in APPS for n in range(8)]
    made = []
    for _ in range(count):
        app = rng.choice(APPS)
        pid = rng.choice(ids)
        kind = rng.randrange(3)
        if kind == 0:
            made.append(("product", (app, pid)))
        elif kind == 1:
            made.append(("related_product_ids", (app, pid, rng.choice((3, 6)))))
        else:
            label = rng.choice(("thumb-", "product-", "merchant-")) + pid
            mean = rng.choice((24_000, 42_000, 315_000))
            made.append(("image_size", (app, label, mean, rng.choice((0.25, 0.4)))))
    return made


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_every_call_matches_a_fresh_generation(seed):
    warm = Catalog(seed)
    plan = calls()
    for method, args in plan + plan:  # the second pass is all memo hits
        got = getattr(warm, method)(*args)
        expected = getattr(Catalog(seed), method)(*args)
        assert got == expected, (method, args)
        assert type(got) is type(expected)
        if isinstance(got, dict):
            assert list(got) == list(expected)  # same key order on the wire


def test_catalogs_do_not_share_a_memo():
    first, second = Catalog(0), Catalog(0)
    first.product("wish", "09cf")
    first.related_product_ids("wish", "09cf")
    first.image_size("wish", "thumb-09cf", 42_000)
    assert first._memo
    assert not second._memo
    assert Catalog(1).product("wish", "09cf") != first.product("wish", "09cf")


def post(origin, path, **fields):
    return Request("POST", Uri.parse(origin + path), body=FormBody(list(fields.items())))


def serve(server, request, user="u1"):
    return server.sim.run_process(server.handle(request, user))


@pytest.mark.parametrize(
    "build,origin,feed,related,field",
    [
        (build_wish_api, "https://api.wish.com", "/api/get-feed", "/related/get", "cid"),
        (build_geek_api, "https://api.geek.com", "/api/feed", "/api/related", "pid"),
    ],
)
def test_mutating_a_returned_record_does_not_leak(build, origin, feed, related, field):
    app = origin.split(".")[1]
    server = build(Simulator(), Catalog(0))
    pristine = build(Simulator(), Catalog(0))
    feed_ids = server.catalog.product_ids(app, 0, user="u1")
    anchor = feed_ids[0]
    related_ids = server.catalog.related_product_ids(app, anchor)

    for pid in feed_ids + related_ids:
        record = server.catalog.product(app, pid)
        record["name"] = "tampered"
        record["price"] = -1
        record.clear()
    server.catalog.related_product_ids(app, anchor).clear()

    for request in (post(origin, feed), post(origin, related, **{field: anchor})):
        got = serve(server, request.copy())
        expected = serve(pristine, request.copy())
        assert got.status == expected.status == 200
        assert got.body.to_wire() == expected.body.to_wire()
    assert "tampered" not in serve(server, post(origin, feed)).body.to_wire()
