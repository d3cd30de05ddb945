"""Tests for runtime signatures, template matching, and instances."""


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
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri
from repro.proxy.instances import (
    RequestInstance,
    RuntimeSignature,
    SignatureMatcher,
    TemplateMatcher,
    ValueStore,
    build_runtime_signatures,
    is_per_user_tag,
)
from tests.oracles.naive_build import build_naive


def host_atom():
    return UnknownAtom("env:config:api_host")


def dep_atom(site="pred#0", path="body.items[].id"):
    return DepAtom(site, FieldPath.parse(path))


def make_signature(site="succ#0", uri_suffix="/detail", method="POST", fields=None):
    request = RequestTemplate(
        method=method,
        uri=ValueTemplate([host_atom(), ConstAtom(uri_suffix)]),
        fields=fields if fields is not None else {},
        body_kind="form" if fields else "empty",
    )
    return TransactionSignature(site, request, ResponseTemplate())


# -- TemplateMatcher ----------------------------------------------------------
def test_matcher_captures_wildcards():
    template = ValueTemplate([host_atom(), ConstAtom("/img?cid="), dep_atom()])
    matcher = TemplateMatcher(template)
    captures = matcher.match("https://img.wish.com/img?cid=09cf")
    assert captures is not None
    values = {type(atom).__name__: value for atom, value in captures}
    assert values["UnknownAtom"] == "https://img.wish.com"
    assert values["DepAtom"] == "09cf"


def test_matcher_rejects_non_matching_text():
    template = ValueTemplate([host_atom(), ConstAtom("/detail")])
    assert TemplateMatcher(template).match("https://a.com/other") is None


def test_matcher_with_alternation_groups():
    template = ValueTemplate(
        [
            AltAtom([ValueTemplate.const("30"), ValueTemplate.const("1")]),
        ]
    )
    matcher = TemplateMatcher(template)
    assert matcher.match("30") is not None
    assert matcher.match("2") is None


# -- SignatureMatcher ---------------------------------------------------------
def test_signature_matcher_prefers_specific():
    generic = RuntimeSignature(make_signature("generic#0", uri_suffix="/"))
    # generic URI: host wildcard + "/" — matches nearly everything
    generic.signature.request.uri = ValueTemplate([host_atom(), UnknownAtom("x")])
    generic = RuntimeSignature(generic.signature)
    specific = RuntimeSignature(make_signature("specific#0", uri_suffix="/product/get"))
    matcher = SignatureMatcher([generic, specific])
    request = Request("POST", Uri.parse("https://api.wish.com/product/get"))
    assert matcher.match(request).site == "specific#0"


def test_signature_matcher_respects_method():
    signature = RuntimeSignature(make_signature(method="POST"))
    matcher = SignatureMatcher([signature])
    get_request = Request("GET", Uri.parse("https://api.wish.com/detail"))
    assert matcher.match(get_request) is None


def test_build_runtime_signatures_wires_edges():
    pred = make_signature("pred#0", uri_suffix="/feed", method="GET")
    succ = make_signature(
        "succ#0",
        fields={FieldPath.parse("body.cid"): ValueTemplate([dep_atom()])},
    )
    edges = [
        DependencyEdge(
            "pred#0", FieldPath.parse("body.items[].id"), "succ#0",
            FieldPath.parse("body.cid"),
        )
    ]
    result = AnalysisResult("test", [pred, succ], edges)
    runtime = build_runtime_signatures(result)
    by_site = {s.site: s for s in runtime}
    assert by_site["pred#0"].is_predecessor
    assert by_site["succ#0"].is_successor
    assert not by_site["pred#0"].is_successor


# -- ValueStore ---------------------------------------------------------------
def test_per_user_tags():
    assert is_per_user_tag("env:cookie")
    assert is_per_user_tag("env:userAgent")
    assert not is_per_user_tag("env:config:api_host")


def test_store_user_isolation():
    store = ValueStore()
    store.learn_tag("u1", "env:cookie", "bsid=1")
    assert store.tag_value("u1", "env:cookie") == "bsid=1"
    assert store.tag_value("u2", "env:cookie") is None


def test_store_global_tags_shared():
    store = ValueStore()
    store.learn_tag("u1", "env:config:api_host", "https://a.com")
    assert store.tag_value("u2", "env:config:api_host") == "https://a.com"


def test_store_version_bumps_only_on_change():
    store = ValueStore()
    v0 = store.version
    store.learn_tag("u1", "env:config:x", "1")
    v1 = store.version
    store.learn_tag("u1", "env:config:x", "1")  # unchanged
    assert v1 > v0
    assert store.version == v1
    store.learn_tag("u1", "env:config:x", "2")
    assert store.version > v1


def test_store_field_precedence_user_over_global():
    store = ValueStore()
    store.learn_field("u1", "s#0", "body.k", "global", per_user=False)
    store.learn_field("u1", "s#0", "body.k", "mine", per_user=True)
    assert store.field_value("u1", "s#0", "body.k") == "mine"
    assert store.field_value("u2", "s#0", "body.k") == "global"


def test_global_snapshot_drops_user_values():
    store = ValueStore()
    store.learn_tag("u1", "env:cookie", "bsid=1")
    store.learn_tag("u1", "env:config:host", "https://a.com")
    snapshot = store.global_snapshot()
    assert snapshot.tag_value("u1", "env:cookie") is None
    assert snapshot.tag_value("anyone", "env:config:host") == "https://a.com"


# -- RequestInstance ----------------------------------------------------------
def successor_signature():
    fields = {
        FieldPath.parse("header.Cookie"): ValueTemplate([UnknownAtom("env:cookie")]),
        FieldPath.parse("body.cid"): ValueTemplate([dep_atom()]),
        FieldPath.parse("body.v"): ValueTemplate.const("7"),
    }
    return RuntimeSignature(make_signature(fields=fields))


def test_instance_incomplete_without_values():
    instance = RequestInstance(successor_signature(), "u1")
    assert instance.build(ValueStore()) is None


def test_instance_builds_once_values_known():
    signature = successor_signature()
    instance = RequestInstance(signature, "u1")
    instance.fill(FieldPath.parse("body.cid"), "09cf")
    store = ValueStore()
    store.learn_tag("u1", "env:config:api_host", "https://api.wish.com")
    store.learn_tag("u1", "env:cookie", "bsid=9")
    request = instance.build(store)
    assert request is not None
    assert request.uri.to_string() == "https://api.wish.com/detail"
    assert request.headers.get("Cookie") == "bsid=9"
    assert request.body.get("cid") == "09cf"
    assert request.body.get("v") == "7"


def test_instance_uses_other_users_globals_but_not_cookies():
    signature = successor_signature()
    instance = RequestInstance(signature, "u2")
    instance.fill(FieldPath.parse("body.cid"), "x")
    store = ValueStore()
    store.learn_tag("u1", "env:config:api_host", "https://api.wish.com")
    store.learn_tag("u1", "env:cookie", "bsid=other-user")
    assert instance.build(store) is None  # u2's cookie unknown


def test_try_build_skips_until_new_knowledge():
    signature = successor_signature()
    instance = RequestInstance(signature, "u1")
    instance.fill(FieldPath.parse("body.cid"), "x")
    store = ValueStore()
    assert instance.try_build(store) is None
    # no new knowledge: returns None fast (cached failure)
    assert instance.try_build(store) is None
    store.learn_tag("u1", "env:config:api_host", "https://a.com")
    store.learn_tag("u1", "env:cookie", "bsid=1")
    assert instance.try_build(store) is not None


def test_fill_after_failed_try_build_allows_retry():
    signature = successor_signature()
    instance = RequestInstance(signature, "u1")
    store = ValueStore()
    store.learn_tag("u1", "env:config:api_host", "https://a.com")
    store.learn_tag("u1", "env:cookie", "bsid=1")
    # only the dependency binding is missing: the attempt fails
    assert instance.try_build(store) is None
    # the binding arrives without any store change; the failed-attempt
    # marker must not hide the now-complete build
    instance.fill(FieldPath.parse("body.cid"), "x")
    request = instance.try_build(store)
    assert request is not None
    assert request.body.get("cid") == "x"


def test_variant_adaptation_prefers_observed():
    fields = {
        FieldPath.parse("body.a"): ValueTemplate.const("1"),
        FieldPath.parse("body.b"): ValueTemplate.const("2"),
    }
    request = RequestTemplate(
        method="POST",
        uri=ValueTemplate([ConstAtom("https://a.com/x")]),
        fields=fields,
        body_kind="form",
    )
    signature = TransactionSignature(
        "s#0",
        request,
        ResponseTemplate(),
        variants=[frozenset({"body.a", "body.b"}), frozenset({"body.a"})],
    )
    runtime = RuntimeSignature(signature)
    instance = RequestInstance(runtime, "u1")
    store = ValueStore()
    # default: largest resolvable variant
    built = instance.build(store)
    assert built.body.get("b") == "2"
    # observed condition says the app sends only `a`
    built = instance.build(store, preferred_variant=frozenset({"body.a"}))
    assert built.body.get("b") is None


def test_dedupe_key_reflects_bindings():
    signature = successor_signature()
    a = RequestInstance(signature, "u1")
    a.fill(FieldPath.parse("body.cid"), "1")
    b = RequestInstance(signature, "u1")
    b.fill(FieldPath.parse("body.cid"), "1")
    c = RequestInstance(signature, "u1")
    c.fill(FieldPath.parse("body.cid"), "2")
    assert a.dedupe_key() == b.dedupe_key()
    assert a.dedupe_key() != c.dedupe_key()


# -- SignatureBuildPlan (copy-on-write instantiation) -------------------------
def test_build_plan_shared_across_replicas():
    signature = successor_signature()
    instances = [RequestInstance(signature, "u1") for _ in range(5)]
    plans = {id(i.signature.build_plan) for i in instances}
    assert len(plans) == 1  # one plan per signature, not per replica
    assert signature.build_plan is signature.build_plan


def test_plan_build_matches_naive_oracle_complete():
    from repro.httpmsg.wire import serialize_request

    signature = successor_signature()
    store = ValueStore()
    store.learn_tag("u1", "env:config:api_host", "https://api.wish.com")
    store.learn_tag("u1", "env:cookie", "bsid=9")
    for cid in ("09cf", "a1", "zz"):
        instance = RequestInstance(signature, "u1")
        instance.fill(FieldPath.parse("body.cid"), cid)
        planned = instance.build(store)
        naive = build_naive(instance, store)
        assert planned is not None and naive is not None
        assert serialize_request(planned) == serialize_request(naive)


def test_plan_build_matches_naive_oracle_incomplete():
    signature = successor_signature()
    instance = RequestInstance(signature, "u1")
    instance.fill(FieldPath.parse("body.cid"), "x")
    store = ValueStore()  # host + cookie unknown: both paths must fail
    assert instance.build(store) is None
    assert build_naive(instance, store) is None


def test_plan_memo_tracks_store_version():
    signature = successor_signature()
    instance = RequestInstance(signature, "u1")
    instance.fill(FieldPath.parse("body.cid"), "x")
    store = ValueStore()
    store.learn_tag("u1", "env:config:api_host", "https://a.com")
    store.learn_tag("u1", "env:cookie", "bsid=1")
    assert instance.build(store).headers.get("Cookie") == "bsid=1"
    # a re-learned value must not be served from a stale memo
    store.learn_tag("u1", "env:cookie", "bsid=2")
    assert instance.build(store).headers.get("Cookie") == "bsid=2"


def test_plan_variant_choice_matches_naive():
    from repro.httpmsg.wire import serialize_request

    fields = {
        FieldPath.parse("body.a"): ValueTemplate.const("1"),
        FieldPath.parse("body.b"): ValueTemplate.const("2"),
    }
    request = RequestTemplate(
        method="POST",
        uri=ValueTemplate([ConstAtom("https://a.com/x")]),
        fields=fields,
        body_kind="form",
    )
    signature = TransactionSignature(
        "s#0",
        request,
        ResponseTemplate(),
        variants=[frozenset({"body.a", "body.b"}), frozenset({"body.a"})],
    )
    runtime = RuntimeSignature(signature)
    store = ValueStore()
    for preferred in (None, frozenset({"body.a"})):
        instance = RequestInstance(runtime, "u1")
        planned = instance.build(store, preferred_variant=preferred)
        naive = build_naive(instance, store, preferred)
        assert serialize_request(planned) == serialize_request(naive)
