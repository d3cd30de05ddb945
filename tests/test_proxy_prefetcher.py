"""Unit tests for the prefetcher (priority scheduling, gating, stats)."""

import pytest

from repro.analysis.model import (
    AnalysisResult,
    ConstAtom,
    RequestTemplate,
    ResponseTemplate,
    TransactionSignature,
    ValueTemplate,
)
from repro.httpmsg.body import JsonBody
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import Endpoint, OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import Condition, ProxyConfig
from repro.proxy.instances import RequestInstance, RuntimeSignature
from repro.proxy.learning import DynamicLearner, ReadyPrefetch
from repro.proxy.prefetcher import Prefetcher

ORIGIN = "https://api.test.com"


class SlowEndpoint(Endpoint):
    def __init__(self, service_time=0.05):
        self.service_time = service_time
        self.order = []

    def handle(self, request, user):
        self.order.append(request.uri.path_and_query())
        yield Delay(self.service_time)
        return Response(200, body=JsonBody({"p": request.uri.path}))


def make_signature(site, path="/x"):
    return RuntimeSignature(
        TransactionSignature(
            site,
            RequestTemplate("GET", ValueTemplate([ConstAtom(ORIGIN + path)])),
            ResponseTemplate(),
        )
    )


def make_environment(max_concurrent=1):
    sim = Simulator()
    endpoint = SlowEndpoint()
    origins = OriginMap()
    origins.register(ORIGIN, endpoint, Link(rtt=0.02))
    cache = PrefetchCache()
    config = ProxyConfig()
    analysis = AnalysisResult("t", [], [])
    learner = DynamicLearner(analysis)
    prefetcher = Prefetcher(
        sim, origins, cache, config, learner, max_concurrent=max_concurrent
    )
    return sim, endpoint, cache, config, prefetcher


def ready_for(site, path, user="u1", depth=1):
    signature = make_signature(site, path)
    instance = RequestInstance(signature, user, depth=depth)
    request = Request("GET", Uri.parse(ORIGIN + path))
    return ReadyPrefetch(instance, request)


def test_fetch_populates_cache():
    sim, endpoint, cache, config, prefetcher = make_environment()
    prefetcher.submit(ready_for("a#0", "/a"))
    sim.run()
    assert prefetcher.issued == 1
    assert cache.contains_fresh("u1", Request("GET", Uri.parse(ORIGIN + "/a")), sim.now)


def test_disabled_policy_skipped():
    sim, endpoint, cache, config, prefetcher = make_environment()
    config.disable("a#0", "off")
    prefetcher.submit(ready_for("a#0", "/a"))
    sim.run()
    assert prefetcher.issued == 0
    assert prefetcher.skipped_policy == 1


def test_depth_gate():
    sim, endpoint, cache, config, prefetcher = make_environment()
    config.max_chain_depth = 1
    assert prefetcher.spawn_gate("a#0", 1, "u1")
    # a chain past the bound is never spawned, and no refusal is counted
    assert not prefetcher.spawn_gate("a#0", 2, "u1")
    assert prefetcher.skipped_policy == 0


def test_duplicate_and_inflight_gate():
    sim, endpoint, cache, config, prefetcher = make_environment()
    prefetcher.submit(ready_for("a#0", "/a"))
    prefetcher.submit(ready_for("a#0", "/a"))  # in flight: skipped
    sim.run()
    prefetcher.submit(ready_for("a#0", "/a"))  # cached: skipped
    sim.run()
    assert prefetcher.issued == 1
    assert prefetcher.skipped_duplicate == 2


def test_probability_gate_deterministic_seed():
    sim, endpoint, cache, config, prefetcher = make_environment()
    config.global_probability = 0.0
    for i in range(5):
        prefetcher.submit(ready_for("a#0", "/a{}".format(i)))
    sim.run()
    assert prefetcher.issued == 0
    assert prefetcher.skipped_probability == 5


def test_condition_gate_uses_pred_context():
    sim, endpoint, cache, config, prefetcher = make_environment()
    config.policy("a#0").condition = Condition("price", "gt", "100")
    cheap = ready_for("a#0", "/cheap")
    cheap.instance.pred_context = {"price": 50}
    pricey = ready_for("a#0", "/pricey")
    pricey.instance.pred_context = {"price": 500}
    prefetcher.submit(cheap)
    prefetcher.submit(pricey)
    sim.run()
    assert prefetcher.issued == 1
    assert prefetcher.skipped_condition == 1
    assert endpoint.order == ["/pricey"]


def test_budget_gate_stops_after_highwater():
    sim, endpoint, cache, config, prefetcher = make_environment()
    config.data_budget_bytes = 1  # anything crosses it
    prefetcher.submit(ready_for("a#0", "/a"))
    sim.run()
    prefetcher.submit(ready_for("a#0", "/b"))
    sim.run()
    assert prefetcher.issued == 1
    assert prefetcher.skipped_budget == 1


def test_error_responses_not_cached():
    sim, endpoint, cache, config, prefetcher = make_environment()

    class FailingEndpoint(Endpoint):
        def handle(self, request, user):
            yield Delay(0.01)
            return Response(500, body=JsonBody({"error": 500}))

    prefetcher.origins.register(ORIGIN, FailingEndpoint(), Link(rtt=0.02))
    prefetcher.submit(ready_for("a#0", "/a"))
    sim.run()
    assert prefetcher.errors == 1
    assert prefetcher.error_by_site["a#0"] == 1
    assert len(cache) == 0


def test_priority_orders_waiting_queue():
    sim, endpoint, cache, config, prefetcher = make_environment(max_concurrent=1)
    # teach the scheduler that site "slow#0" takes long to complete
    prefetcher.avg_response_time["slow#0"] = 1.0
    prefetcher.avg_response_time["fast#0"] = 0.001
    prefetcher.submit(ready_for("x#0", "/first"))  # occupies the slot
    prefetcher.submit(ready_for("fast#0", "/fast"))
    prefetcher.submit(ready_for("slow#0", "/slow"))
    sim.run()
    # the slow-origin signature jumped the fast one in the queue (§5)
    assert endpoint.order == ["/first", "/slow", "/fast"]


def test_fifo_when_priority_disabled():
    sim, endpoint, cache, config, prefetcher = make_environment(max_concurrent=1)
    prefetcher.priority_enabled = False
    prefetcher.avg_response_time["slow#0"] = 1.0
    prefetcher.submit(ready_for("x#0", "/first"))
    prefetcher.submit(ready_for("fast#0", "/fast"))
    prefetcher.submit(ready_for("slow#0", "/slow"))
    sim.run()
    assert endpoint.order == ["/first", "/fast", "/slow"]


def test_concurrency_limit_respected():
    sim, endpoint, cache, config, prefetcher = make_environment(max_concurrent=2)
    for i in range(6):
        prefetcher.submit(ready_for("a#0", "/r{}".format(i)))
    sim.run()
    assert prefetcher.issued == 6
    assert len(cache) == 6


def test_response_time_running_average():
    sim, endpoint, cache, config, prefetcher = make_environment()
    prefetcher._record_response_time("s#0", 1.0)
    prefetcher._record_response_time("s#0", 3.0)
    assert prefetcher.avg_response_time["s#0"] == pytest.approx(2.0)


def test_add_header_only_on_wire_copy():
    sim, endpoint, cache, config, prefetcher = make_environment()
    config.policy("a#0").add_header = [("X-APPx", "prefetch")]
    ready = ready_for("a#0", "/a")
    prefetcher.submit(ready)
    sim.run()
    # the cache key is the unmarked request, so the client's (unmarked)
    # request will match
    assert cache.contains_fresh("u1", ready.request, sim.now)
    assert "X-APPx" not in ready.request.headers


def test_drain_reranks_from_current_priorities():
    # enqueue three sites while all priorities are equal (no samples
    # yet), then move the running averages before anything drains: the
    # queue must drain in *today's* order, not the enqueue-time order
    sim, endpoint, cache, config, prefetcher = make_environment(max_concurrent=1)
    prefetcher.submit(ready_for("hold#0", "/hold"))  # occupies the slot
    prefetcher.submit(ready_for("a#0", "/a"))
    prefetcher.submit(ready_for("b#0", "/b"))
    prefetcher.submit(ready_for("c#0", "/c"))
    prefetcher.avg_response_time["c#0"] = 1.0
    prefetcher.avg_response_time["b#0"] = 0.5
    prefetcher.avg_response_time["a#0"] = 0.1
    sim.run()
    assert endpoint.order == ["/hold", "/c", "/b", "/a"]


def test_drain_rerank_keeps_fifo_ties():
    sim, endpoint, cache, config, prefetcher = make_environment(max_concurrent=1)
    prefetcher.submit(ready_for("hold#0", "/hold"))
    for i in range(4):
        prefetcher.submit(ready_for("tie#0", "/t{}".format(i)))
    sim.run()
    assert endpoint.order == ["/hold", "/t0", "/t1", "/t2", "/t3"]


def test_queue_peak_perf_counter():
    from repro.metrics.perf import PERF

    sim, endpoint, cache, config, prefetcher = make_environment(max_concurrent=1)
    with PERF.capture():
        prefetcher.submit(ready_for("hold#0", "/hold"))
        for i in range(3):
            prefetcher.submit(ready_for("q#0", "/q{}".format(i)))
        peak = PERF.get("prefetch.queue_peak")
        sim.run()
        assert PERF.get("prefetch.queue_peak") == peak == 3
