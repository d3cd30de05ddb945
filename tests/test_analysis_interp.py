"""Tests for the abstract interpreter and signature builder.

Built around a small synthetic app exercising each §4.1 mechanism:
constants, environment wildcards, response-derived dependencies,
Intents, Rx chains, aliased heap objects, and branch variants.
"""

import pytest

from repro.analysis.model import AltAtom, DepAtom, UnknownAtom
from repro.analysis.pipeline import AnalysisOptions, analyze_apk
from repro.apk.builder import AppBuilder, Lit, MethodBuilder
from repro.httpmsg.fieldpath import FieldPath


def build_test_app():
    app = AppBuilder("com.test.interp")
    app.config_default("api_host", "https://api.test.com")

    m = MethodBuilder("onStart", params=["this", "intent"])
    url = m.concat(m.config("api_host"), m.const("/feed"))
    req = m.new_request("GET", url)
    m.add_header(req, "Cookie", m.cookie())
    resp = m.execute(req)
    feed = m.body_json(resp)
    items = m.json_get(feed, "items")
    m.put_field("this", "items", items)
    with m.foreach(items) as item:
        iid = m.json_get(item, "id")
        iurl = m.concat(m.config("api_host"), m.const("/thumb?tid="), iid)
        ireq = m.new_request("GET", iurl)
        m.invoke("Http.bodyBlob", m.execute(ireq))
    m.render(feed)
    app.method("Home", m)

    m = MethodBuilder("onClick", params=["this", "index"])
    items = m.get_field("this", "items")
    item = m.invoke("Json.index", items, "index")
    iid = m.json_get(item, "id")
    intent = m.intent_new()
    m.intent_put(intent, "key_id", iid)
    m.start_component(intent, "detail")
    app.method("Home", m)

    # Detail: Rx chain + aliased heap object + branch-dependent field
    m = MethodBuilder("onStart", params=["this", "intent"])
    iid = m.intent_get("intent", "key_id")
    holder = m.new("Holder")
    m.put_field(holder, "the_id", iid)
    alias = m.move(holder)
    m.put_field("this", "ctx", alias)
    obs = m.rx_defer("Detail.fetch")
    m.rx_subscribe(obs, "Detail.show")
    app.method("Detail", m)

    m = MethodBuilder("fetch", params=["this"])
    ctx = m.get_field("this", "ctx")
    iid = m.get_field(ctx, "the_id")
    url = m.concat(m.config("api_host"), m.const("/detail"))
    req = m.new_request("POST", url)
    m.add_form_field(req, "id", iid)
    m.add_form_field(req, "v", Lit("7"))
    premium = m.flag("premium")
    with m.if_(premium):
        m.add_form_field(req, "tier", m.config("tier"))
        m.add_form_field(req, "limit", Lit("100"))
    with m.else_():
        m.add_form_field(req, "limit", Lit("10"))
    resp = m.execute(req)
    m.ret(m.body_json(resp))
    app.method("Detail", m)

    m = MethodBuilder("show", params=["this", "body"])
    m.render("body")
    app.method("Detail", m)

    app.component("home", "Home", screen="home", main=True)
    app.component("detail", "Detail", screen="detail")
    app.screen("home")
    app.event("home", "click", "Home.onClick", takes_index=True)
    app.screen("detail")
    return app.build()


@pytest.fixture(scope="module")
def result():
    return analyze_apk(build_test_app())


def site(result, fragment):
    matches = [s for s in result.signatures if fragment in s.site]
    assert matches, "no signature matching {}".format(fragment)
    return matches[0]


def test_all_three_sites_found(result):
    assert len(result.signatures) == 3


def test_feed_request_has_cookie_wildcard(result):
    feed = site(result, "Home.onStart#0")
    template = feed.request.fields[FieldPath.parse("header.Cookie")]
    assert isinstance(template.atoms[0], UnknownAtom)
    assert template.atoms[0].tag == "env:cookie"


def test_feed_response_paths_recorded(result):
    feed = site(result, "Home.onStart#0")
    paths = {p.to_string() for p in feed.response.paths}
    assert "body.items" in paths
    assert "body.items[].id" in paths


def test_thumbnail_uri_split_into_query_dependency(result):
    thumb = site(result, "Home.onStart#1")
    template = thumb.request.fields[FieldPath.parse("query.tid")]
    atom = template.atoms[0]
    assert isinstance(atom, DepAtom)
    assert atom.pred_site == "Home.onStart#0"
    assert atom.pred_path.to_string() == "body.items[].id"


def test_detail_dependency_flows_through_intent_alias_and_rx(result):
    detail = site(result, "Detail.fetch#0")
    template = detail.request.fields[FieldPath.parse("body.id")]
    deps = template.dep_atoms()
    assert deps and deps[0].pred_site == "Home.onStart#0"


def test_detail_const_field(result):
    detail = site(result, "Detail.fetch#0")
    template = detail.request.fields[FieldPath.parse("body.v")]
    assert template.is_const()
    assert template.const_value() == "7"


def test_branch_variants_enumerated(result):
    detail = site(result, "Detail.fetch#0")
    variant_sets = {frozenset(v) for v in detail.variants}
    assert len(variant_sets) == 2
    with_tier = {v for v in variant_sets if "body.tier" in v}
    assert len(with_tier) == 1


def test_branch_value_alternation(result):
    detail = site(result, "Detail.fetch#0")
    template = detail.request.fields[FieldPath.parse("body.limit")]
    assert any(isinstance(atom, AltAtom) for atom in template.atoms)
    assert template.matches("100")
    assert template.matches("10")
    assert not template.matches("55")


def test_dependencies_extracted(result):
    pairs = {(e.pred_site, e.succ_site) for e in result.dependencies}
    assert ("Home.onStart#0", "Home.onStart#1") in pairs
    assert ("Home.onStart#0", "Detail.fetch#0") in pairs


def test_prefetchable_signatures(result):
    prefetchable = {s.site for s in result.prefetchable()}
    assert prefetchable == {"Home.onStart#1", "Detail.fetch#0"}


# ---------------------------------------------------------------------
# ablations: disabling the §4.1 extensions loses dependencies
# ---------------------------------------------------------------------
def test_intent_ablation_loses_detail_dependency():
    result = analyze_apk(build_test_app(), AnalysisOptions(intent_support=False))
    detail = site(result, "Detail.fetch#0")
    template = detail.request.fields[FieldPath.parse("body.id")]
    assert not template.dep_atoms()


def test_rx_ablation_loses_detail_site_entirely():
    result = analyze_apk(build_test_app(), AnalysisOptions(rx_support=False))
    assert not any("Detail.fetch" in s.site for s in result.signatures)


def test_heap_ablation_loses_alias_routed_dependency():
    result = analyze_apk(build_test_app(), AnalysisOptions(precise_heap=False))
    detail = site(result, "Detail.fetch#0")
    template = detail.request.fields[FieldPath.parse("body.id")]
    assert not template.dep_atoms()


def build_field_chain_app():
    """``this.ctx.child.token`` stored in onStart, read in another method."""
    app = AppBuilder("com.test.chain")
    app.config_default("api_host", "https://a.com")
    m = MethodBuilder("onStart", params=["this", "intent"])
    inner = m.new("Inner")
    m.put_field(inner, "token", m.const("secret"))
    outer = m.new("Outer")
    m.put_field(outer, "child", inner)
    m.put_field("this", "ctx", outer)
    m.call("Main.use", "this")
    app.method("Main", m)

    m = MethodBuilder("use", params=["this"])
    outer = m.get_field("this", "ctx")
    inner = m.get_field(outer, "child")
    token = m.get_field(inner, "token")
    url = m.concat(m.config("api_host"), m.const("/x?t="), token)
    m.execute(m.new_request("GET", url))
    app.method("Main", m)
    app.component("main", "Main", screen="home", main=True)
    app.screen("home")
    return app.build()


def test_three_level_field_chain_resolved():
    """The chain resolves through shared heap objects; the ablation loses it."""
    for precise_heap, expected in (
        (True, "ValueTemplate(C:'secret')"),
        (False, "ValueTemplate(U:field:token)"),
    ):
        result = analyze_apk(
            build_field_chain_app(), AnalysisOptions(precise_heap=precise_heap)
        )
        (signature,) = result.signatures
        template = signature.request.fields[FieldPath.parse("query.t")]
        assert repr(template) == expected


def test_full_analysis_beats_every_ablation():
    full = analyze_apk(build_test_app()).summary()["dependencies"]
    for options in (
        AnalysisOptions(intent_support=False),
        AnalysisOptions(rx_support=False),
        AnalysisOptions(precise_heap=False),
    ):
        ablated = analyze_apk(build_test_app(), options).summary()["dependencies"]
        assert ablated < full
