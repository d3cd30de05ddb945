"""Property-based tests (hypothesis) on core invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.httpmsg.body import FormBody, JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri, quote, unquote
from repro.httpmsg.wire import (
    parse_request,
    parse_response,
    serialize_request,
    serialize_response,
)
from repro.metrics.stats import cdf_points, mean, median, percentile
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.proxy.cache import PrefetchCache

# -- strategies ---------------------------------------------------------------
printable_text = st.text(
    alphabet=string.ascii_letters + string.digits + " -_.~%&=+/:;",
    min_size=0,
    max_size=40,
)
token = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12)
#: the wire layer owns Host/Content-Type/Content-Length; apps never set
#: them directly, so the strategy avoids those reserved names
_RESERVED_HEADERS = {"host", "content-type", "content-length"}
header_name = st.text(
    alphabet=string.ascii_letters + "-", min_size=1, max_size=16
).filter(lambda name: name.lower() not in _RESERVED_HEADERS)

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        printable_text,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(token, children, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def uris(draw):
    host = draw(
        st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12)
    )
    segments = draw(st.lists(token, min_size=0, max_size=4))
    query = draw(st.lists(st.tuples(token, printable_text), max_size=4))
    return Uri(
        scheme=draw(st.sampled_from(["http", "https"])),
        host=host + ".com",
        path="/" + "/".join(segments),
        query=query,
    )


@st.composite
def requests(draw):
    method = draw(st.sampled_from(["GET", "POST"]))
    headers = Headers(
        draw(st.lists(st.tuples(header_name, printable_text), max_size=4))
    )
    kind = draw(st.sampled_from(["empty", "form", "json"]))
    if kind == "form":
        body = FormBody(draw(st.lists(st.tuples(token, printable_text), max_size=5)))
    elif kind == "json":
        body = JsonBody(draw(json_values))
    else:
        body = None
    return Request(method, draw(uris()), headers, body)


# -- URI / quoting --------------------------------------------------------------
@given(printable_text)
def test_quote_unquote_round_trip(text):
    assert unquote(quote(text)) == text


@given(uris())
def test_uri_string_round_trip(uri):
    assert Uri.parse(uri.to_string()) == uri


@given(uris())
def test_origin_is_prefix_of_uri(uri):
    assert uri.to_string().startswith(uri.origin())


# -- wire round trips -------------------------------------------------------------
@given(requests())
@settings(max_examples=60)
def test_request_wire_round_trip(request):
    parsed = parse_request(serialize_request(request), scheme=request.uri.scheme)
    assert parsed == request


@given(st.integers(min_value=100, max_value=599), json_values)
@settings(max_examples=60)
def test_response_wire_round_trip(status, payload):
    response = Response(status, body=JsonBody(payload))
    assert parse_response(serialize_response(response)) == response


@given(requests())
@settings(max_examples=60)
def test_exact_key_stable_and_copy_invariant(request):
    assert request.exact_key() == request.copy().exact_key()
    assert request.copy() == request


# -- field paths --------------------------------------------------------------------
@given(st.lists(token, min_size=1, max_size=4))
def test_fieldpath_parse_format_round_trip(parts):
    path = FieldPath("body", tuple(parts))
    assert FieldPath.parse(path.to_string()) == path


@given(token, printable_text)
def test_fieldpath_assign_then_extract(key, value):
    request = Request("POST", Uri.parse("https://a.com/x"), body=FormBody())
    path = FieldPath("body", (key,))
    path.assign(request, value)
    assert path.extract(request) == [value]


@given(json_values, st.lists(token, min_size=1, max_size=3), printable_text)
def test_json_assign_respects_structure(payload, parts, value):
    request = Request("POST", Uri.parse("https://a.com/x"), body=JsonBody({}))
    path = FieldPath("body", tuple(parts))
    assert path.assign(request, value)
    assert path.extract(request) == [value]


# -- statistics -----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_subnormal=False), min_size=1, max_size=50))
def test_percentile_bounds(values):
    assert min(values) <= percentile(values, 50) <= max(values)
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_subnormal=False), min_size=1, max_size=50))
def test_percentile_monotone_in_q(values):
    qs = [0, 25, 50, 75, 90, 100]
    points = [percentile(values, q) for q in qs]
    tolerance = 1e-9 * (1 + max(values))  # interpolation float jitter
    assert all(a <= b + tolerance for a, b in zip(points, points[1:]))


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_subnormal=False), min_size=1, max_size=50))
def test_cdf_properties(values):
    points = cdf_points(values)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert xs == sorted(xs)
    assert ys[-1] == 1.0
    assert all(0 < y <= 1 for y in ys)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_subnormal=False), min_size=1, max_size=50))
def test_mean_median_within_range(values):
    slack = 1e-9 * (1 + max(values))  # float summation jitter
    assert min(values) - slack <= mean(values) <= max(values) + slack
    assert min(values) <= median(values) <= max(values)


# -- link timing --------------------------------------------------------------------
@given(
    st.floats(min_value=0, max_value=1.0),
    st.floats(min_value=1e3, max_value=1e9),
    st.integers(min_value=0, max_value=10_000_000),
)
def test_one_way_delay_positive_and_additive(rtt, bandwidth, size):
    link = Link(rtt=rtt, bandwidth_bps=bandwidth)
    assert link.one_way(size) >= rtt / 2
    assert link.one_way(size) >= link.one_way(0)


@given(st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=20))
def test_shared_link_conserves_serialization(sizes):
    shared = Link(rtt=0.0, bandwidth_bps=8e6, shared=True)
    total = sum(shared.transfer_delay(0.0, s) for s in sizes)
    serial = sum(s * 8 / 8e6 for s in sizes)
    # queueing can only add delay, and the final finish time equals the
    # serial sum (work conservation)
    last_finish = shared._busy_until
    assert abs(last_finish - serial) < 1e-9
    assert total >= serial - 1e-9


# -- simulator ordering -----------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
def test_events_fire_in_time_order(delays):
    sim = Simulator()
    fired = []

    def make(delay):
        def process():
            yield Delay(delay)
            fired.append(sim.now)

        return process()

    for delay in delays:
        sim.spawn(make(delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- cache ---------------------------------------------------------------------------------
@given(requests(), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=40)
def test_cache_never_serves_expired(request, ttl):
    cache = PrefetchCache()
    cache.put("u", request, Response(200), "s#0", now=0.0, ttl=ttl)
    assert cache.lookup("u", request, now=ttl * 0.99)[0] is not None
    assert cache.lookup("u", request, now=ttl)[0] is None


@given(requests(), requests())
@settings(max_examples=40)
def test_cache_exact_match_only(a, b):
    cache = PrefetchCache()
    cache.put("u", a, Response(200), "s#0", now=0.0, ttl=60.0)
    hit = cache.lookup("u", b, now=1.0)[0]
    if a == b:
        assert hit is not None
    else:
        assert hit is None
