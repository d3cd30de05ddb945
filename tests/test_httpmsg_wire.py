"""Tests for the HTTP/1.1 wire-format oracle (round trips)."""

from repro.httpmsg.body import BlobBody, EmptyBody, FormBody, JsonBody, TextBody
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from tests.oracles.wire import (
    parse_request,
    parse_response,
    serialize_request,
    serialize_response,
)


def round_trip_request(request):
    return parse_request(serialize_request(request), scheme=request.uri.scheme)


def test_get_request_round_trip():
    request = Request(
        "GET",
        Uri.parse("https://img.wish.com/img?cid=09cf"),
        Headers([("User-Agent", "UA")]),
    )
    assert round_trip_request(request) == request


def test_form_request_round_trip():
    request = Request(
        "POST",
        Uri.parse("https://api.wish.com/product/get"),
        Headers([("Cookie", "bsid=1")]),
        FormBody([("cid", "09cf"), ("_cap[]", "2"), ("_cap[]", "4")]),
    )
    assert round_trip_request(request) == request


def test_json_request_round_trip():
    request = Request(
        "POST",
        Uri.parse("https://a.com/x"),
        body=JsonBody({"k": [1, 2], "n": None}),
    )
    assert round_trip_request(request) == request


def test_request_with_port_round_trip():
    uri = Uri.parse("https://a.com:8443/x")
    request = Request("GET", uri)
    parsed = round_trip_request(request)
    assert parsed.uri.port == 8443


def test_response_round_trips():
    for body in (
        JsonBody({"data": {"id": "x"}}),
        FormBody([("a", "1")]),
        TextBody("hello"),
        BlobBody("img wish-1", 315_000),
        EmptyBody(),
    ):
        response = Response(200, Headers([("Set-Cookie", "bsid=2")]), body)
        assert parse_response(serialize_response(response)) == response


def test_blob_round_trip_preserves_size_not_content():
    response = Response(200, body=BlobBody("thumb-a", 42_000, "image/png"))
    parsed = parse_response(serialize_response(response))
    assert parsed.body.size == 42_000
    assert parsed.body.label == "thumb-a"
    assert parsed.body.media_type == "image/png"


def test_error_response_reason_phrases():
    for status in (200, 404, 500, 504, 599):
        response = Response(status)
        text = serialize_response(response)
        assert text.startswith("HTTP/1.1 {} ".format(status))
        assert parse_response(text).status == status


def test_serialized_request_contains_host_header():
    request = Request("GET", Uri.parse("https://api.wish.com/x"))
    assert "Host: api.wish.com" in serialize_request(request)


def test_content_length_matches_body():
    request = Request(
        "POST", Uri.parse("https://a.com/x"), body=FormBody([("k", "v")])
    )
    text = serialize_request(request)
    assert "Content-Length: {}".format(len("k=v")) in text
