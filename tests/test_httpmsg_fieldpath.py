"""Tests for repro.httpmsg.fieldpath."""

import pytest

from repro.httpmsg.body import FormBody, JsonBody
from repro.httpmsg.fieldpath import ALL, FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri


def make_request():
    return Request(
        method="POST",
        uri=Uri.parse("https://api.wish.com/product/get?v=2"),
        headers=Headers([("Cookie", "bsid=1"), ("User-Agent", "UA")]),
        body=FormBody([("cid", "09cf"), ("_cap[]", "2"), ("_cap[]", "4")]),
    )


# -- parsing / formatting -------------------------------------------------
def test_parse_round_trip_simple():
    for text in ("header.Cookie", "query.cid", "body.cid", "uri.host", "method"):
        assert FieldPath.parse(text).to_string() == text


def test_parse_array_paths():
    path = FieldPath.parse("body.data.products[].product_info.id")
    assert path.parts == ("data", "products", ALL, "product_info", "id")
    assert path.to_string() == "body.data.products[].product_info.id"


def test_parse_indexed_path():
    path = FieldPath.parse("uri.path[2]")
    assert path.parts == ("path", 2)
    assert path.to_string() == "uri.path[2]"


def test_parse_occurrence_suffix():
    path = FieldPath.parse("body.k~1")
    assert path.occurrence == 1
    assert path.to_string() == "body.k~1"


def test_literal_brackets_in_form_key_escape_round_trip():
    path = FieldPath("body", ("_cap[]",), occurrence=2)
    text = path.to_string()
    assert text == "body._cap%5B%5D~2"
    assert FieldPath.parse(text) == path


def test_unknown_root_rejected():
    with pytest.raises(ValueError):
        FieldPath("bogus")


# -- extraction ------------------------------------------------------------
def test_extract_header():
    assert FieldPath.parse("header.Cookie").extract(make_request()) == ["bsid=1"]


def test_extract_query():
    assert FieldPath.parse("query.v").extract(make_request()) == ["2"]


def test_extract_form_field():
    assert FieldPath.parse("body.cid").extract(make_request()) == ["09cf"]


def test_extract_form_occurrence():
    request = make_request()
    assert FieldPath("body", ("_cap[]",), 0).extract(request) == ["2"]
    assert FieldPath("body", ("_cap[]",), 1).extract(request) == ["4"]
    assert FieldPath("body", ("_cap[]",), 5).extract(request) == []


def test_extract_method_and_uri():
    request = make_request()
    assert FieldPath.parse("method").extract(request) == ["POST"]
    assert FieldPath.parse("uri.host").extract(request) == ["api.wish.com"]
    assert FieldPath.parse("uri.path[0]").extract(request) == ["product"]


def test_extract_json_all_elements():
    response = Response(
        body=JsonBody({"data": {"products": [{"id": "a"}, {"id": "b"}]}})
    )
    path = FieldPath.parse("body.data.products[].id")
    assert path.extract(response) == ["a", "b"]


def test_extract_json_missing_path():
    response = Response(body=JsonBody({"data": {}}))
    assert FieldPath.parse("body.data.nope[].id").extract(response) == []


def test_extract_status():
    assert FieldPath.parse("status").extract(Response(404)) == [404]


def test_extract_json_index():
    response = Response(body=JsonBody({"items": ["x", "y", "z"]}))
    assert FieldPath.parse("body.items[1]").extract(response) == ["y"]
    assert FieldPath.parse("body.items[9]").extract(response) == []


# -- assignment -------------------------------------------------------------
def test_assign_header():
    request = make_request()
    FieldPath.parse("header.Cookie").assign(request, "bsid=9")
    assert request.headers.get("Cookie") == "bsid=9"


def test_assign_form_occurrence():
    request = make_request()
    FieldPath("body", ("_cap[]",), 1).assign(request, "8")
    assert request.body.get_all("_cap[]") == ["2", "8"]


def test_assign_query_appends_when_missing():
    request = make_request()
    FieldPath.parse("query.new").assign(request, "1")
    assert request.uri.query_get("new") == "1"


def test_assign_uri_host():
    request = make_request()
    FieldPath.parse("uri.host").assign(request, "other.com")
    assert request.uri.host == "other.com"


def test_assign_uri_path_segment():
    request = make_request()
    FieldPath.parse("uri.path[1]").assign(request, "put")
    assert request.uri.path == "/product/put"


def test_assign_json_nested():
    request = Request(body=JsonBody({}))
    FieldPath.parse("body.a.b").assign(request, 7)
    assert request.body.value == {"a": {"b": 7}}


def test_assign_through_all_rejected():
    request = make_request()
    with pytest.raises(ValueError):
        FieldPath.parse("body.items[].id").assign(request, "x")


def test_assign_method():
    request = make_request()
    FieldPath.parse("method").assign(request, "GET")
    assert request.method == "GET"


# -- identity ---------------------------------------------------------------
def test_equality_includes_occurrence():
    assert FieldPath.parse("body.k") != FieldPath.parse("body.k~1")
    assert FieldPath.parse("body.k") == FieldPath("body", ("k",))


def test_hashable():
    paths = {FieldPath.parse("body.k"), FieldPath.parse("body.k~1")}
    assert len(paths) == 2


def test_child_keeps_occurrence():
    path = FieldPath("body", ("a",), occurrence=1)
    assert path.child("b").occurrence == 1


# -- the memoised textual form ------------------------------------------------
def plan_paths():
    """Every path the five apps' build plans and dependency edges hold."""
    from repro.analysis.pipeline import AnalysisOptions, analyze_apk
    from repro.apps.registry import all_apps, get_app
    from repro.proxy.instances import build_runtime_signatures

    for name in all_apps():
        analysis = analyze_apk(
            get_app(name).build_apk(), AnalysisOptions(run_slicing=False)
        )
        for signature in build_runtime_signatures(analysis):
            plan = signature.build_plan
            for row in [plan.uri] + plan.rows:
                yield row.path
        for edge in analysis.dependencies:
            yield edge.pred_path
            yield edge.succ_path


def test_memoised_text_equals_a_fresh_format_for_every_plan_path():
    paths = list(plan_paths())
    assert len(paths) > 100
    for path in paths:
        text = path.to_string()
        fresh = FieldPath(path.root, path.parts, path.occurrence)
        assert text == fresh._format() == fresh.to_string()
        assert path.to_string() is text  # formatted once
        assert FieldPath.parse(text) == path


def test_memoised_text_survives_a_pickle_round_trip():
    import pickle

    path = FieldPath.parse("body.items[].id~1")
    path.to_string()
    copy = pickle.loads(pickle.dumps(path))
    assert copy == path
    assert copy.to_string() == "body.items[].id~1"
