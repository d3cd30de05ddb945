"""Tests for dynamic learning (Fig. 6/7 workflows)."""


from repro.analysis.model import (
    AltAtom,
    AnalysisResult,
    ConstAtom,
    DepAtom,
    DependencyEdge,
    RequestTemplate,
    ResponseTemplate,
    TransactionSignature,
    UnknownAtom,
    ValueTemplate,
)
from repro.httpmsg.body import FormBody, JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response, Transaction
from repro.httpmsg.uri import Uri
from repro.proxy.learning import DynamicLearner
from tests.learn_helpers import learn_now


def host():
    return UnknownAtom("env:config:api_host")


def make_analysis():
    """Feed (predecessor) + detail (successor, incl. env fields)."""
    feed = TransactionSignature(
        "Feed.onStart#0",
        RequestTemplate(
            method="GET",
            uri=ValueTemplate([host(), ConstAtom("/feed")]),
            fields={
                FieldPath.parse("header.Cookie"): ValueTemplate(
                    [UnknownAtom("env:cookie")]
                )
            },
        ),
        ResponseTemplate(paths={FieldPath.parse("body.items[].id")}),
    )
    dep = DepAtom("Feed.onStart#0", FieldPath.parse("body.items[].id"))
    detail = TransactionSignature(
        "Detail.fetch#0",
        RequestTemplate(
            method="POST",
            uri=ValueTemplate([host(), ConstAtom("/detail")]),
            fields={
                FieldPath.parse("header.Cookie"): ValueTemplate(
                    [UnknownAtom("env:cookie")]
                ),
                FieldPath.parse("body.cid"): ValueTemplate([dep]),
                FieldPath.parse("body._ver"): ValueTemplate(
                    [UnknownAtom("env:config:version")]
                ),
            },
            body_kind="form",
        ),
        ResponseTemplate(),
    )
    edges = [
        DependencyEdge(
            "Feed.onStart#0",
            FieldPath.parse("body.items[].id"),
            "Detail.fetch#0",
            FieldPath.parse("body.cid"),
        )
    ]
    return AnalysisResult("com.test", [feed, detail], edges)


def feed_transaction(cookie="", item_ids=("a1", "b2"), with_set_cookie=True):
    request = Request(
        "GET",
        Uri.parse("https://api.test.com/feed"),
        Headers([("Cookie", cookie)]),
    )
    headers = Headers()
    if with_set_cookie:
        headers.add("Set-Cookie", "bsid=fresh")
    response = Response(
        200, headers, JsonBody({"items": [{"id": i, "price": 10} for i in item_ids]})
    )
    return Transaction(request, response)


def detail_transaction(cid="a1", version="9.9"):
    request = Request(
        "POST",
        Uri.parse("https://api.test.com/detail"),
        Headers([("Cookie", "bsid=fresh")]),
        FormBody([("cid", cid), ("_ver", version)]),
    )
    return Transaction(request, Response(200, body=JsonBody({"ok": True})))


def test_unmatched_transaction_is_ignored():
    learner = DynamicLearner(make_analysis())
    other = Transaction(
        Request("GET", Uri.parse("https://elsewhere.com/x")), Response(200)
    )
    assert learn_now(learner, other, "u1") == []


def test_predecessor_spawns_pending_instances():
    learner = DynamicLearner(make_analysis())
    ready = learn_now(learner, feed_transaction(), "u1")
    # _ver (env:config:version) has never been observed → still pending
    assert ready == []
    assert learner.pending_count == 2  # one per item id


def test_successor_observation_completes_pending():
    learner = DynamicLearner(make_analysis())
    learn_now(learner, feed_transaction(item_ids=("a1", "b2", "c3")), "u1")
    ready = learn_now(learner, detail_transaction(cid="a1"), "u1")
    # remaining items become prefetchable using the learned _ver
    cids = sorted(r.request.body.get("cid") for r in ready)
    assert cids == ["a1", "b2", "c3"]
    for r in ready:
        assert r.request.body.get("_ver") == "9.9"
        assert r.request.headers.get("Cookie") == "bsid=fresh"
        assert r.request.uri.to_string() == "https://api.test.com/detail"


def test_learned_values_enable_future_first_sight_prefetch():
    learner = DynamicLearner(make_analysis())
    learn_now(learner, feed_transaction(item_ids=("a1",)), "u1")
    learn_now(learner, detail_transaction(), "u1")
    # a NEW feed for the same user completes instantly
    ready = learn_now(learner, feed_transaction(item_ids=("zz",)), "u1")
    assert [r.request.body.get("cid") for r in ready] == ["zz"]


def test_cookie_tracked_from_set_cookie_not_stale_request():
    learner = DynamicLearner(make_analysis())
    learn_now(learner, detail_transaction(), "u1")  # learn _ver globally
    # the feed request carried an EMPTY cookie, but its response sets one
    ready = learn_now(learner, feed_transaction(cookie=""), "u1")
    assert ready, "instances must complete"
    assert ready[0].request.headers.get("Cookie") == "bsid=fresh"


def test_per_user_isolation_of_cookies():
    learner = DynamicLearner(make_analysis())
    learn_now(learner, detail_transaction(), "u1")  # global _ver learned
    # u2's feed: u2 gets their own cookie, not u1's
    ready = learn_now(learner, feed_transaction(cookie=""), "u2")
    assert ready
    assert ready[0].instance.user == "u2"


def test_global_config_shared_across_users():
    learner = DynamicLearner(make_analysis())
    learn_now(learner, detail_transaction(version="1.2.3"), "u1")
    ready = learn_now(learner, feed_transaction(), "u2")
    assert ready
    assert ready[0].request.body.get("_ver") == "1.2.3"


def test_duplicate_pending_instances_deduped():
    learner = DynamicLearner(make_analysis())
    learn_now(learner, feed_transaction(item_ids=("a1",)), "u1")
    learn_now(learner, feed_transaction(item_ids=("a1",)), "u1")
    assert learner.pending_count == 1


def test_error_responses_do_not_spawn_instances():
    learner = DynamicLearner(make_analysis())
    request = Request("GET", Uri.parse("https://api.test.com/feed"))
    transaction = Transaction(request, Response(500, body=JsonBody({"error": 500})))
    learn_now(learner, transaction, "u1")
    assert learner.pending_count == 0


def test_depth_bound_blocks_spawning():
    learner = DynamicLearner(make_analysis())
    learner.spawn_gate = lambda site, depth, user: depth <= 1  # max_chain_depth=1
    learn_now(learner, feed_transaction(), "u1", depth=1)  # would create depth 2
    assert learner.pending_count == 0


def test_pred_context_captured_for_conditions():
    learner = DynamicLearner(make_analysis())
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    contexts = [i.pred_context for i in learner._pending]
    assert all(c.get("price") == 10 for c in contexts)
    assert sorted(c["id"] for c in contexts) == ["a1", "b2"]


def test_variant_learned_from_observation():
    analysis = make_analysis()
    learner = DynamicLearner(analysis)
    learn_now(learner, detail_transaction(), "u1")
    variant = learner.preferred_variant.get(("u1", "Detail.fetch#0"))
    assert variant == frozenset({"header.Cookie", "body.cid", "body._ver"})


# -- alternation fields: the learn action looks inside the options -----------
def alternation_analysis():
    """Search sends ``body.who``, the per-user cookie on one branch and a
    constant on the other, and ``body.ref``, a Feed item id on one
    branch and a constant on the other (the analyzer merges
    branch-dependent values into such alternations)."""
    dep = DepAtom("Feed.onStart#0", FieldPath.parse("body.items[].id"))
    search = TransactionSignature(
        "Search.run#0",
        RequestTemplate(
            method="POST",
            uri=ValueTemplate([host(), ConstAtom("/search")]),
            fields={
                FieldPath.parse("body.who"): ValueTemplate(
                    [AltAtom([ValueTemplate.unknown("env:cookie"),
                              ValueTemplate.const("x")])]
                ),
                FieldPath.parse("body.ref"): ValueTemplate(
                    [AltAtom([ValueTemplate([dep]), ValueTemplate.const("home")])]
                ),
            },
            body_kind="form",
        ),
        ResponseTemplate(),
    )
    analysis = make_analysis()
    return AnalysisResult(
        "com.test", analysis.signatures + [search], analysis.dependencies
    )


def search_transaction(who, ref):
    request = Request(
        "POST",
        Uri.parse("https://api.test.com/search"),
        body=FormBody([("who", who), ("ref", ref)]),
    )
    return Transaction(request, Response(200, body=JsonBody({"ok": True})))


def test_alternation_with_per_user_option_is_learned_per_user():
    learner = DynamicLearner(alternation_analysis())
    learn_now(learner, search_transaction("bsid=secret-u1", "home"), "u1")
    store = learner.store
    assert store.field_value("u1", "Search.run#0", "body.who") == "bsid=secret-u1"
    # another user's prefetches must never carry u1's value
    assert store.field_value("u2", "Search.run#0", "body.who") is None


def test_alternation_with_dependency_option_is_never_cached():
    learner = DynamicLearner(alternation_analysis())
    fired = []
    learner.store.add_listener(fired.append)
    learn_now(learner, search_transaction("x", "a1"), "u1")
    store = learner.store
    assert store.field_value("u1", "Search.run#0", "body.ref") is None
    assert store.field_value("u2", "Search.run#0", "body.ref") is None
    assert not [key for key in fired if key[-1] == "body.ref"]
    # the sibling field is still learned, for u1 only
    assert store.field_value("u1", "Search.run#0", "body.who") == "x"
    assert store.field_value("u2", "Search.run#0", "body.who") is None
