"""Request.exact_key() and wire-size memoization: cached, and
invalidated on mutation.

The memo contract: ``exact_key()`` may serve a cached digest only while
the (method, headers, uri, body) version stamp is unchanged; any
mutation — through the component mutators or through
``FieldPath.assign`` — must produce the same key a fresh, uncached
request would.  The wire sizes keep the same discipline per component:
``Uri.path_and_query()``, ``Headers.wire_size()`` and
``Body.wire_size()`` each memoise on their own component's stamp.
"""

import json

from repro.httpmsg import body as body_module
from repro.httpmsg import message as message_module
from repro.httpmsg.body import BlobBody, FormBody, JsonBody, TextBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri, quote


def make_request():
    return Request(
        method="POST",
        uri=Uri.parse("https://api.wish.com/product/get?v=2"),
        headers=Headers([("Cookie", "bsid=1")]),
        body=FormBody([("cid", "09cf")]),
    )


def fresh_key(request):
    """The key an uncached request with this exact content computes."""
    return request.copy().exact_key()


def test_key_is_cached_until_mutation():
    request = make_request()
    first = request.exact_key()
    assert request._key_cache is not None
    assert request.exact_key() == first == fresh_key(request)


def test_copy_does_not_share_the_memo():
    request = make_request()
    request.exact_key()
    duplicate = request.copy()
    duplicate.body.set("cid", "ffff")
    assert duplicate.exact_key() != request.exact_key()
    assert request.exact_key() == fresh_key(request)


def test_header_mutations_invalidate():
    request = make_request()
    before = request.exact_key()
    request.headers.add("X-Extra", "1")
    assert request.exact_key() != before
    assert request.exact_key() == fresh_key(request)
    request.headers.remove("X-Extra")
    assert request.exact_key() == fresh_key(request)


def test_uri_and_body_mutations_invalidate():
    request = make_request()
    before = request.exact_key()
    request.uri.query_set("v", "3")
    after_query = request.exact_key()
    assert after_query != before
    request.body.set("cid", "beef")
    assert request.exact_key() != after_query
    assert request.exact_key() == fresh_key(request)


def test_method_change_invalidates():
    request = make_request()
    before = request.exact_key()
    request.method = "GET"
    assert request.exact_key() != before
    assert request.exact_key() == fresh_key(request)


def test_fieldpath_assign_invalidates_query_body_and_method():
    request = make_request()
    for path, value in (
        ("query.v", "9"),
        ("body.cid", "feed"),
        ("method", "PUT"),
        ("uri.host", "api2.wish.com"),
    ):
        before = request.exact_key()
        assert FieldPath.parse(path).assign(request, value)
        assert request.exact_key() != before, path
        assert request.exact_key() == fresh_key(request), path


def test_fieldpath_assign_invalidates_nested_json_body():
    request = Request(
        method="POST",
        uri=Uri.parse("https://api.wish.com/cart/update"),
        body=JsonBody({"item": {"id": "1", "qty": 2}}),
    )
    before = request.exact_key()
    assert FieldPath.parse("body.item.id").assign(request, "42")
    assert request.exact_key() != before
    assert request.exact_key() == fresh_key(request)


# -- JsonBody.wire_size ------------------------------------------------------

def true_size(body):
    return len(body.to_wire().encode("utf-8"))


def test_wire_size_serialises_an_untouched_body_once(monkeypatch):
    body = JsonBody({"data": {"name": "Silk lantern \u00e9", "ids": [1, 2, 3]}})
    calls = []
    dumps = json.dumps

    def counting(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(body_module._json, "dumps", counting)
    size = body.wire_size()
    assert len(calls) == 1
    for _ in range(3):
        assert body.wire_size() == size
    assert len(calls) == 1
    monkeypatch.undo()
    assert size == true_size(body)


def test_wire_size_follows_fieldpath_writes_and_touch():
    request = Request(
        method="POST",
        uri=Uri.parse("https://api.wish.com/cart/update"),
        body=JsonBody({"item": {"id": "1", "qty": 2}, "tags": ["a"]}),
    )
    body = request.body
    assert body.wire_size() == true_size(body)
    for path, value in (
        ("body.item.id", "4242"),
        ("body.tags[0]", "a-much-longer-tag"),
        ("body.extra.deep", {"k": "v" * 50}),
    ):
        assert FieldPath.parse(path).assign(request, value), path
        assert body.wire_size() == true_size(body), path
    # a write that creates an intermediate object but finds no slot
    assert not FieldPath.parse("body.missing[0]").assign(request, "x")
    assert body.wire_size() == true_size(body)
    # a write straight into the value counts once touch() records it
    body.value["item"]["qty"] = 123456789
    body.touch()
    assert body.wire_size() == true_size(body)


def test_wire_size_of_a_copy():
    body = JsonBody({"a": [1, 2, {"b": "c"}], "name": "\u00fcber"})
    assert body.wire_size() == true_size(body)
    duplicate = body.copy()
    assert duplicate.wire_size() == body.wire_size() == true_size(duplicate)
    duplicate.value["a"].append("grown")
    duplicate.touch()
    assert duplicate.wire_size() == true_size(duplicate)
    assert body.wire_size() == true_size(body) < duplicate.wire_size()
    duplicate.value["a"].append("grown")
    duplicate.touch()
    assert duplicate.wire_size() == true_size(duplicate) > body.wire_size()
    assert body.wire_size() == true_size(body)


# -- Request/Response.wire_size: memoised vs a fresh sum ---------------------

def fresh_body_size(body):
    if isinstance(body, BlobBody):
        return body.size
    return len(body.to_wire().encode("utf-8"))


def fresh_header_size(headers):
    return sum(len(name) + len(value) + 4 for name, value in headers.items())


def fresh_path_and_query(uri):
    target = uri.path
    if uri.query:
        target += "?" + "&".join(
            "{}={}".format(quote(name), quote(value)) for name, value in uri.query
        )
    return target


def fresh_request_size(request):
    """The request's wire size summed from its raw fields, no memo."""
    return (
        message_module._REQUEST_LINE_OVERHEAD
        + len(request.method)
        + len(fresh_path_and_query(request.uri))
        + fresh_header_size(request.headers)
        + 2
        + fresh_body_size(request.body)
    )


def fresh_response_size(response):
    return (
        message_module._STATUS_LINE_OVERHEAD
        + fresh_header_size(response.headers)
        + 2
        + fresh_body_size(response.body)
    )


REQUEST_MUTATORS = (
    ("headers.add", lambda r: r.headers.add("X-Extra", "1" * 20)),
    ("headers.set", lambda r: r.headers.set("Cookie", "bsid=a-longer-session")),
    ("headers.remove", lambda r: r.headers.remove("X-Extra")),
    ("Uri.query_set existing", lambda r: r.uri.query_set("v", "12345")),
    ("Uri.query_set new", lambda r: r.uri.query_set("page", "2")),
    ("Uri.query_add", lambda r: r.uri.query_add("tag", "a b&c")),
    ("assign method", lambda r: FieldPath.parse("method").assign(r, "PATCH")),
    ("assign uri", lambda r: FieldPath.parse("uri").assign(
        r, "https://cdn.wish.com/a/b/c?x=1&y=two")),
    ("assign uri.host", lambda r: FieldPath.parse("uri.host").assign(r, "api2.wish.com")),
    ("assign uri.scheme", lambda r: FieldPath.parse("uri.scheme").assign(r, "http")),
    ("assign uri.origin", lambda r: FieldPath.parse("uri.origin").assign(
        r, "https://eu.wish.com:8443")),
    ("assign uri.path", lambda r: FieldPath.parse("uri.path").assign(r, "/product/get")),
    ("assign uri.path[1]", lambda r: FieldPath.parse("uri.path[1]").assign(r, "put-longer")),
    ("assign query", lambda r: FieldPath.parse("query.x").assign(r, "longer value")),
    ("assign header", lambda r: FieldPath.parse("header.Cookie").assign(r, "bsid=z")),
    ("assign header new", lambda r: FieldPath.parse("header.X-New").assign(r, "v")),
    ("assign body form", lambda r: FieldPath.parse("body.cid").assign(r, "ffffffff")),
    ("form set", lambda r: r.body.set("cid", "\u00e9t\u00e9")),
    ("form add", lambda r: r.body.add("_cap[]", "12")),
    ("form remove", lambda r: r.body.remove("cid")),
    ("replace body json", lambda r: setattr(
        r, "body", JsonBody({"item": {"id": "1"}, "tags": ["a"]}))),
    ("assign body json", lambda r: FieldPath.parse("body.item.id").assign(r, "4242")),
    ("assign body json deep", lambda r: FieldPath.parse("body.extra.deep").assign(
        r, {"k": "v" * 30})),
    ("replace body text", lambda r: setattr(r, "body", TextBody("plain \u00fc"))),
    ("replace body blob", lambda r: setattr(r, "body", BlobBody("img", 4096))),
    ("replace body form", lambda r: setattr(r, "body", FormBody([("a", "1")]))),
    ("replace headers", lambda r: setattr(r, "headers", Headers([("Accept", "*/*")]))),
    ("replace uri", lambda r: setattr(r, "uri", Uri.parse("https://x.com/y?z=1"))),
)


def test_request_wire_size_tracks_every_mutator():
    request = make_request()
    assert request.wire_size() == fresh_request_size(request)
    for name, mutate in REQUEST_MUTATORS:
        request.wire_size()  # memoise the sizes before the write
        mutate(request)
        assert request.wire_size() == fresh_request_size(request), name
        assert request.uri.path_and_query() == fresh_path_and_query(request.uri), name
        assert request.wire_size() == request.copy().wire_size(), name


def test_response_wire_size_tracks_every_mutator():
    response = Response(200, Headers([("Content-Type", "application/json")]),
                        JsonBody({"data": {"ids": [1, 2]}}))
    for name, mutate in (
        ("headers.add", lambda r: r.headers.add("Set-Cookie", "bsid=2; Path=/")),
        ("headers.set", lambda r: r.headers.set("Content-Type", "text/plain")),
        ("headers.remove", lambda r: r.headers.remove("Set-Cookie")),
        ("body touch", lambda r: (r.body.value["data"]["ids"].append(3), r.body.touch())),
        ("replace body", lambda r: setattr(r, "body", BlobBody("img", 315_000))),
    ):
        response.wire_size()
        mutate(response)
        assert response.wire_size() == fresh_response_size(response), name
