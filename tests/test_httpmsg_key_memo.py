"""Request.exact_key() and JsonBody.wire_size() memoization: cached,
and invalidated on mutation.

The memo contract: ``exact_key()`` may serve a cached digest only while
the (method, headers, uri, body) version stamp is unchanged; any
mutation — through the component mutators or through
``FieldPath.assign`` — must produce the same key a fresh, uncached
request would.  ``JsonBody.wire_size()`` keeps the same discipline on
the body's own stamp.
"""

import json

from repro.httpmsg import body as body_module
from repro.httpmsg.body import FormBody, JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri


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
