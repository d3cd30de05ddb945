"""Tests for request-lifecycle tracing and the labeled metric registry."""

import json

import pytest

from repro.analysis import analyze_apk
from repro.apps import get_app
from repro.device.runtime import AppRuntime
from repro.experiments.scale import run_scale
from repro.httpmsg.body import JsonBody
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.metrics.perf import PerfCounters
from repro.metrics.registry import (
    Histogram,
    MetricRegistry,
    parse_series_key,
    series_key,
)
from repro.metrics.trace import (
    LOOKUP_OUTCOMES,
    TRACER,
    TraceContext,
    Tracer,
    aggregate_records,
    read_jsonl,
    registry_from_records,
    validate_record,
)
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import Endpoint, OriginMap
from repro.proxy import AccelerationProxy, ProxiedTransport
from repro.proxy.cache import PrefetchCache
from repro.proxy.multiapp import MultiAppProxy, MultiAppTransport
from repro.server.content import Catalog


# ======================================================================
# registry
# ======================================================================
def test_series_key_round_trip():
    key = series_key("span_wall_seconds", {"stage": "match", "app": "wish"})
    assert key == 'span_wall_seconds{app="wish",stage="match"}'
    name, labels = parse_series_key(key)
    assert name == "span_wall_seconds"
    assert labels == {"app": "wish", "stage": "match"}
    assert parse_series_key("plain") == ("plain", {})


def test_histogram_percentiles_bracket_samples():
    histogram = Histogram()
    for value in (0.001, 0.002, 0.004, 0.008, 0.100):
        histogram.observe(value)
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(0.115)
    p50 = histogram.percentile(50)
    # the median sample is 0.004; the estimate lands inside its bucket
    assert 0.002 <= p50 <= 0.008
    assert histogram.percentile(99) >= 0.05
    assert histogram.mean == pytest.approx(0.023)


def test_histogram_merge_requires_same_buckets():
    left = Histogram()
    right = Histogram()
    left.observe(0.5)
    right.observe(0.25)
    left.merge(right.snapshot())
    assert left.count == 2
    assert left.sum == pytest.approx(0.75)
    with pytest.raises(ValueError):
        left.merge(Histogram(bounds=(1.0, 2.0)).snapshot())


def test_registry_cardinality_guard_folds_overflow():
    registry = MetricRegistry(max_series_per_metric=3)
    for index in range(10):
        registry.inc("hits", labels={"user": "u{}".format(index)})
    labeled = [k for k in registry.counters if k.startswith("hits{")]
    assert len(labeled) == 4  # 3 real series + the overflow fold
    assert registry.counters['hits{overflow="true"}'] == 7
    assert registry.overflow_series == 7


def test_registry_prometheus_exposition():
    registry = MetricRegistry()
    registry.inc("requests", 3, labels={"app": "wish"})
    registry.set_gauge("active", 2)
    registry.observe("span_wall_seconds", 0.004, labels={"stage": "match"})
    text = registry.render_prometheus()
    assert '# TYPE repro_requests_total counter' in text
    assert 'repro_requests_total{app="wish"} 3' in text
    assert "repro_active 2" in text
    assert "# TYPE repro_span_wall_seconds histogram" in text
    assert 'le="+Inf"' in text
    assert 'repro_span_wall_seconds_count{stage="match"} 1' in text


# ======================================================================
# PERF facade
# ======================================================================
def test_perf_facade_aliases_registry_stores():
    perf = PerfCounters()
    perf.enabled = True
    perf.incr("x")
    assert perf.registry.counters["x"] == 1
    assert perf.counters is perf.registry.counters
    perf.reset()
    # reset clears in place, the alias stays live
    assert perf.counters is perf.registry.counters
    assert perf.counters == {}


# ======================================================================
# tracer
# ======================================================================
def test_tracer_disabled_begin_returns_none():
    tracer = Tracer()
    assert tracer.begin("alice") is None
    assert tracer.stats()["started"] == 0


def test_tracer_sampling_is_deterministic_under_fixed_seed():
    def sampled_set(seed):
        tracer = Tracer().configure(sample_rate=0.5, seed=seed)
        tracer.enable()
        picked = []
        for index in range(200):
            context = tracer.begin("u{}".format(index))
            if context is not None:
                picked.append(index)
                tracer.finish(context)
        return picked

    first = sampled_set(seed=42)
    second = sampled_set(seed=42)
    assert first == second
    assert 0 < len(first) < 200
    assert sampled_set(seed=7) != first


def test_tracer_ring_buffer_drops_oldest():
    tracer = Tracer().configure(capacity=3)
    tracer.enable()
    for index in range(5):
        context = tracer.begin("u")
        context.tag("index", index)
        tracer.finish(context)
    records = tracer.records()
    assert len(records) == 3
    assert [r["tags"]["index"] for r in records] == [2, 3, 4]
    assert tracer.stats()["dropped"] == 2


def test_tracer_feeds_registry_span_histograms():
    registry = MetricRegistry()
    tracer = Tracer().configure(registry=registry)
    tracer.enable()
    context = tracer.begin("alice")
    span = context.start_span("cache_lookup")
    context.end_span(span, outcome="miss_absent", shard="alice")
    tracer.finish(context)
    histogram = registry.histogram("span_wall_seconds", {"stage": "cache_lookup"})
    assert histogram is not None and histogram.count == 1
    assert registry.counters[
        'span_outcomes{outcome="miss_absent",stage="cache_lookup"}'
    ] == 1


def test_trace_context_records_sim_time():
    clock = [10.0]
    context = TraceContext("t1", "alice", sim_clock=lambda: clock[0])
    span = context.start_span("origin_fetch")
    clock[0] = 10.25
    context.end_span(span, bytes=512)
    record = context.to_record()
    assert record["spans"][0]["sim_ms"] == pytest.approx(250.0)
    assert record["spans"][0]["tags"]["bytes"] == 512


def test_export_jsonl_round_trips_through_validation(tmp_path):
    tracer = Tracer().configure()
    tracer.enable()
    context = tracer.begin("alice", app="wish")
    with context.span("match"):
        pass
    span = context.start_span("cache_lookup")
    context.end_span(span, outcome="hit", signature="s#0", shard="alice")
    tracer.finish(context)
    path = str(tmp_path / "trace.jsonl")
    assert tracer.export_jsonl(path) == 1
    records = read_jsonl(path, validate=True)
    assert records[0]["app"] == "wish"
    assert [s["name"] for s in records[0]["spans"]] == ["match", "cache_lookup"]

    summary = aggregate_records(records)
    assert summary["records"] == 1
    assert summary["stages"]["cache_lookup"]["count"] == 1
    assert summary["by_signature"]["s#0"]["hits"] == 1

    rebuilt = registry_from_records(records)
    assert 'traces{kind="request"}' in rebuilt.counters


def test_validate_record_flags_schema_violations():
    assert validate_record("nope") == ["record is not an object"]
    bad = {
        "trace_id": "t1",
        "user": "alice",
        "kind": "request",
        "spans": [
            {"name": "warp", "wall_us": 1.0},
            {"name": "match", "wall_us": -2.0},
            {"name": "cache_lookup", "wall_us": 1.0, "tags": {"outcome": "??"}},
        ],
    }
    errors = validate_record(bad)
    assert any("spans[0].name" in e for e in errors)
    assert any("spans[1].wall_us" in e for e in errors)
    assert any("spans[2].tags.outcome" in e for e in errors)
    from repro.metrics.catalog import TRACE_KINDS

    assert validate_record({"trace_id": "t", "user": "u", "kind": "bogus",
                            "spans": []}) == [
        "kind: 'bogus' not in {}".format(TRACE_KINDS)
    ]


def test_read_jsonl_rejects_invalid_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"trace_id": "t", "user": "u",
                                "kind": "request", "spans": [{}]}) + "\n")
    with pytest.raises(ValueError):
        read_jsonl(str(path))
    path.write_text("{not json\n")
    with pytest.raises(ValueError):
        read_jsonl(str(path))


# ======================================================================
# cache lookup outcomes
# ======================================================================
def test_cache_lookup_reports_miss_cause():
    cache = PrefetchCache()
    request = Request("GET", Uri.parse("https://a.example/1"))
    entry, outcome = cache.lookup("u1", request, now=0.0)
    assert entry is None and outcome == "miss_absent"
    cache.put("u1", request, Response(200), "s#0", now=0.0, ttl=5.0)
    entry, outcome = cache.lookup("u1", request, now=1.0)
    assert entry is not None and outcome == "hit"
    entry, outcome = cache.lookup("u1", request, now=9.0)
    assert entry is None and outcome == "miss_expired"
    # get() keeps its historical entry-only shape
    assert cache.lookup("u1", request, now=9.0)[0] is None


# ======================================================================
# propagation across the multi-app boundary
# ======================================================================
class PlainEndpoint(Endpoint):
    def handle(self, request, user):
        yield Delay(0.01)
        return Response(200, body=JsonBody({"plain": True}))


@pytest.fixture()
def env():
    sim = Simulator()
    shared_origins = OriginMap()
    proxies = {}
    apks = {}
    for name in ("wish", "doordash"):
        spec = get_app(name)
        app_origins, _ = spec.build_origin_map(sim, Catalog())
        for origin, endpoint in app_origins.origins().items():
            shared_origins.register(
                origin, endpoint, app_origins.link_for(
                    Request("GET", Uri.parse(origin + "/"))
                )
            )
        analysis = analyze_apk(spec.build_apk())
        proxies[name] = AccelerationProxy(sim, app_origins, analysis)
        apks[name] = spec
    shared_origins.register(
        "https://other.example", PlainEndpoint(), Link(rtt=0.08)
    )
    multi = MultiAppProxy(sim, shared_origins)
    for name, proxy in proxies.items():
        multi.register_app(name, proxy)
    return sim, multi, proxies, apks


def run_app(sim, multi, spec, user):
    runtime = AppRuntime(
        spec.build_apk(),
        MultiAppTransport(sim, Link(rtt=0.055, shared=True), multi),
        sim,
        spec.default_profile(user),
    )

    def flow():
        yield sim.spawn(runtime.launch())
        yield Delay(6.0)
        result = yield sim.spawn(runtime.dispatch(*spec.main_flow[-1]))
        return result

    return sim.run_process(flow())


def test_trace_propagates_across_app_boundary(env):
    sim, multi, proxies, apks = env
    with TRACER.capture(sim_clock=lambda: sim.now):
        run_app(sim, multi, apks["wish"], "alice")
    records = TRACER.records()
    assert records, "tracing produced no records"
    for record in records:
        assert validate_record(record) == []
    requests = [r for r in records if r["kind"] == "request"]
    assert requests, "no request-kind records"
    # the boundary stamped the routed app; the inner proxy's stages
    # landed on the same trace the boundary began
    wish = [r for r in requests if r.get("app") == "wish"]
    assert wish, "no records attributed to the wish app"
    stages = {s["name"] for r in wish for s in r["spans"]}
    assert "match" in stages and "cache_lookup" in stages
    for record in wish:
        for span in record["spans"]:
            if span["name"] == "cache_lookup":
                assert span["tags"]["outcome"] in LOOKUP_OUTCOMES
                assert span["tags"]["shard"] == "alice"
    # the session warms the cache, so at least one lookup resolved hit
    outcomes = [
        s["tags"]["outcome"]
        for r in wish
        for s in r["spans"]
        if s["name"] == "cache_lookup"
    ]
    assert "hit" in outcomes
    # background prefetch traffic traces under its own kind
    assert any(r["kind"] == "prefetch" for r in records)


def test_trace_passthrough_records_the_reserved_app(env):
    sim, multi, _, _ = env
    request = Request("GET", Uri.parse("https://other.example/ping"))

    def flow():
        response = yield sim.spawn(multi.handle_request(request, "u1"))
        return response

    with TRACER.capture(sim_clock=lambda: sim.now):
        sim.run_process(flow())
    records = TRACER.records()
    assert len(records) == 1
    record = records[0]
    assert validate_record(record) == []
    assert record["app"] == "_passthrough"
    lookups = [s for s in record["spans"] if s["name"] == "cache_lookup"]
    assert lookups and lookups[0]["tags"]["outcome"] == "passthrough"
    assert any(s["name"] == "origin_fetch" for s in record["spans"])


def test_trace_spans_carry_virtual_time(env):
    sim, multi, proxies, apks = env
    with TRACER.capture(sim_clock=lambda: sim.now):
        run_app(sim, multi, apks["wish"], "alice")
    fetches = [
        span
        for record in TRACER.records()
        for span in record["spans"]
        if span["name"] == "origin_fetch"
    ]
    assert fetches
    # origin round trips take simulated RTTs, not wall time
    assert any(span.get("sim_ms", 0) > 1.0 for span in fetches)


def test_one_sampling_draw_per_routed_request():
    # routing draws the request's sampling decision and the app proxy
    # serves under what it is handed, so a request behind MultiAppProxy
    # is sampled at the configured rate, not at 1 - (1 - r)^2
    row = run_scale(
        users=40, duration=10, apps=("wish",), strategy="none", trace_sample=0.25
    )
    stats = row["trace"]
    assert row["requests"] > 100
    assert stats["started"] == row["requests"]
    assert 0 < stats["sampled"] < row["requests"]


def test_single_app_transport_traces_each_request_once():
    spec = get_app("wish")
    sim = Simulator()
    origins, _ = spec.build_origin_map(sim, Catalog())
    proxy = AccelerationProxy(sim, origins, analyze_apk(spec.build_apk()))
    runtime = AppRuntime(
        spec.build_apk(),
        ProxiedTransport(sim, Link(rtt=0.055, shared=True), proxy),
        sim,
        spec.default_profile("alice"),
    )
    with TRACER.capture(sim_clock=lambda: sim.now):
        sim.run_process(runtime.launch())
        requests = [r for r in TRACER.records() if r["kind"] == "request"]
        prefetches = [r for r in TRACER.records() if r["kind"] == "prefetch"]
        assert TRACER.started == len(requests) + len(prefetches)
    assert len(requests) == proxy.forwarded + proxy.served_prefetched > 0
    for record in requests:
        assert validate_record(record) == []
        assert record["tags"]["served"] in ("origin", "prefetched")
