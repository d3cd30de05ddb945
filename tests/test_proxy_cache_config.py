"""Tests for the prefetch cache and the configuration model."""

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
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import Condition, ProxyConfig, SignaturePolicy, default_config


def request(path="/x", cid="1"):
    return Request("GET", Uri.parse("https://a.com{}?cid={}".format(path, cid)))


# -- cache ----------------------------------------------------------------
def test_exact_match_hit():
    cache = PrefetchCache()
    cache.put("u1", request(), Response(200), "s#0", now=0.0, ttl=60.0)
    entry = cache.lookup("u1", request(), now=10.0)[0]
    assert entry is not None
    assert entry.site == "s#0"


def test_different_query_value_misses():
    cache = PrefetchCache()
    cache.put("u1", request(cid="1"), Response(200), "s#0", now=0.0, ttl=60.0)
    assert cache.lookup("u1", request(cid="2"), now=1.0)[0] is None


def test_user_isolation():
    cache = PrefetchCache()
    cache.put("u1", request(), Response(200), "s#0", now=0.0, ttl=60.0)
    assert cache.lookup("u2", request(), now=1.0)[0] is None


def test_expiry_evicts():
    cache = PrefetchCache()
    cache.put("u1", request(), Response(200), "s#0", now=0.0, ttl=5.0)
    assert cache.lookup("u1", request(), now=4.9)[0] is not None
    assert cache.lookup("u1", request(), now=5.0)[0] is None
    assert cache.expired_evictions == 1
    assert len(cache) == 0


def test_contains_fresh():
    cache = PrefetchCache()
    cache.put("u1", request(), Response(200), "s#0", now=0.0, ttl=5.0)
    assert cache.contains_fresh("u1", request(), now=1.0)
    assert not cache.contains_fresh("u1", request(), now=9.0)


def test_hit_rate_accounting():
    cache = PrefetchCache()
    cache.record_hit("s#0")
    cache.record_hit("s#0")
    cache.record_miss("s#0")
    assert cache.hit_rate("s#0") == pytest.approx(2 / 3)
    assert cache.hit_rate("unknown") == 0.0


def test_purge_expired():
    cache = PrefetchCache()
    for i in range(5):
        cache.put("u1", request(cid=str(i)), Response(200), "s#0", now=0.0, ttl=1.0)
    assert cache.purge_expired(now=2.0) == 5
    assert len(cache) == 0


def test_newer_put_replaces():
    cache = PrefetchCache()
    cache.put("u1", request(), Response(200, body=JsonBody({"v": 1})), "s#0", 0.0, 60.0)
    cache.put("u1", request(), Response(200, body=JsonBody({"v": 2})), "s#0", 1.0, 60.0)
    assert cache.lookup("u1", request(), 2.0)[0].response.body.value == {"v": 2}
    assert len(cache) == 1


# -- config ------------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        SignaturePolicy(hash="x", probability=1.5)


def test_condition_operators():
    assert Condition("price", "gt", "1000").evaluate({"price": 2000})
    assert not Condition("price", "gt", "1000").evaluate({"price": 500})
    assert Condition("price", "lt", "10").evaluate({"price": 5})
    assert Condition("tier", "eq", "gold").evaluate({"tier": "gold"})
    assert Condition("tier", "ne", "gold").evaluate({"tier": "silver"})
    assert not Condition("missing", "eq", "x").evaluate({})


def test_condition_unknown_operator_rejected():
    with pytest.raises(ValueError):
        Condition("f", "contains", "x")


def test_config_json_round_trip():
    config = ProxyConfig(global_probability=0.5, data_budget_bytes=1_000_000)
    config.policies["s#0"] = SignaturePolicy(
        hash="abc",
        uri=".*/product/get",
        expiration_time=86400.0,
        prefetch=True,
        probability=0.8,
        add_header=[("proxy", "prefetch")],
        condition=Condition("price", "gt", "1000"),
    )
    restored = ProxyConfig.from_json(config.to_json())
    assert restored.global_probability == 0.5
    assert restored.data_budget_bytes == 1_000_000
    policy = restored.policies["s#0"]
    assert policy.probability == 0.8
    assert policy.add_header == [("proxy", "prefetch")]
    assert policy.condition.evaluate({"price": 1500})
    assert policy.expiration_time == 86400.0


def test_effective_probability_multiplies():
    config = ProxyConfig(global_probability=0.5)
    config.policies["s#0"] = SignaturePolicy(hash="x", probability=0.5)
    assert config.effective_probability("s#0") == pytest.approx(0.25)


def test_policy_autocreated_with_defaults():
    config = ProxyConfig(default_expiration=120.0)
    policy = config.policy("new#0")
    assert policy.prefetch
    assert policy.expiration_time == 120.0


def test_disable_records_reason():
    config = ProxyConfig()
    config.disable("s#0", "verification failed")
    assert not config.policy("s#0").prefetch
    assert config.policy("s#0").disabled_reason == "verification failed"


def test_default_config_disables_side_effects():
    side_effect = TransactionSignature(
        "Buy.onClick#0",
        RequestTemplate("POST", ValueTemplate([ConstAtom("https://a.com/buy")])),
        ResponseTemplate(),
        side_effect=True,
    )
    normal = TransactionSignature(
        "Feed.onStart#0",
        RequestTemplate("GET", ValueTemplate([ConstAtom("https://a.com/feed")])),
        ResponseTemplate(),
    )
    config = default_config(AnalysisResult("t", [side_effect, normal], []))
    assert not config.policy("Buy.onClick#0").prefetch
    assert "side-effect" in config.policy("Buy.onClick#0").disabled_reason
    assert config.policy("Feed.onStart#0").prefetch
