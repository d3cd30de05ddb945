"""Deeper dynamic-learning scenarios: URI hosts, alternations, header
dependencies, and unstable (nonce) fields."""


from repro.analysis import analyze_apk
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
from repro.apk.builder import AppBuilder, MethodBuilder
from repro.httpmsg.body import JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response, Transaction
from repro.httpmsg.uri import Uri
from repro.proxy.learning import DynamicLearner
from tests.learn_helpers import learn_now


def host():
    return UnknownAtom("env:config:host")


def make_analysis(succ_uri_atoms=None, succ_fields=None, edges=None):
    feed = TransactionSignature(
        "P#0",
        RequestTemplate("GET", ValueTemplate([host(), ConstAtom("/list")])),
        ResponseTemplate(paths={FieldPath.parse("body.ids[]")}),
    )
    succ = TransactionSignature(
        "S#0",
        RequestTemplate(
            "GET",
            ValueTemplate(succ_uri_atoms or [host(), ConstAtom("/item")]),
            succ_fields or {},
        ),
        ResponseTemplate(),
    )
    return AnalysisResult("t", [feed, succ], edges or [])


def list_transaction(ids=("x1", "y2"), host_text="https://api.test.com"):
    request = Request("GET", Uri.parse(host_text + "/list"))
    response = Response(200, body=JsonBody({"ids": list(ids)}))
    return Transaction(request, response)


def test_uri_path_segment_dependency_learned():
    """DoorDash-style: the dep value sits inside the URI path."""
    atoms = [host(), ConstAtom("/item/"), DepAtom("P#0", FieldPath.parse("body.ids[]")), ConstAtom("/view")]
    edges = [
        DependencyEdge("P#0", FieldPath.parse("body.ids[]"), "S#0", FieldPath("uri"))
    ]
    learner = DynamicLearner(make_analysis(succ_uri_atoms=atoms, edges=edges))
    ready = learn_now(learner, list_transaction(ids=("ab", "cd")), "u1")
    uris = sorted(r.request.uri.to_string() for r in ready)
    assert uris == [
        "https://api.test.com/item/ab/view",
        "https://api.test.com/item/cd/view",
    ]


def test_uri_host_learned_from_any_matching_signature():
    """The host tag is shared: observing the predecessor teaches it."""
    edges = [
        DependencyEdge(
            "P#0", FieldPath.parse("body.ids[]"), "S#0", FieldPath.parse("query.id")
        )
    ]
    fields = {
        FieldPath.parse("query.id"): ValueTemplate(
            [DepAtom("P#0", FieldPath.parse("body.ids[]"))]
        )
    }
    learner = DynamicLearner(make_analysis(succ_fields=fields, edges=edges))
    ready = learn_now(
        learner, list_transaction(host_text="https://eu-west.api.test.com"), "u1"
    )
    assert ready
    assert all(
        r.request.uri.host == "eu-west.api.test.com" for r in ready
    )


def test_alternation_field_adapts_to_recent_observation():
    """Fig. 8: the proxy mirrors the most recent run-time condition."""
    fields = {
        FieldPath.parse("query.id"): ValueTemplate(
            [DepAtom("P#0", FieldPath.parse("body.ids[]"))]
        ),
        FieldPath.parse("query.count"): ValueTemplate(
            [AltAtom([ValueTemplate.const("30"), ValueTemplate.const("1")])]
        ),
    }
    edges = [
        DependencyEdge(
            "P#0", FieldPath.parse("body.ids[]"), "S#0", FieldPath.parse("query.id")
        )
    ]
    learner = DynamicLearner(make_analysis(succ_fields=fields, edges=edges))
    # before any successor observation the alternation is unresolved
    assert learn_now(learner, list_transaction(), "u1") == []
    # observe an actual successor with count=1
    observed = Transaction(
        Request("GET", Uri.parse("https://api.test.com/item?id=zz&count=1")),
        Response(200, body=JsonBody({})),
    )
    learn_now(learner, observed, "u1")
    ready = learn_now(learner, list_transaction(ids=("q9",)), "u1")
    assert ready
    assert ready[0].request.uri.query_get("count") == "1"
    # the condition flips: proxy adapts to count=30
    observed = Transaction(
        Request("GET", Uri.parse("https://api.test.com/item?id=zz&count=30")),
        Response(200, body=JsonBody({})),
    )
    learn_now(learner, observed, "u1")
    ready = learn_now(learner, list_transaction(ids=("q8",)), "u1")
    assert ready[0].request.uri.query_get("count") == "30"


def test_response_header_dependency():
    """A successor keyed by a *response header* of its predecessor."""
    feed = TransactionSignature(
        "P#0",
        RequestTemplate("GET", ValueTemplate([host(), ConstAtom("/list")])),
        ResponseTemplate(headers={"X-Next-Token"}),
    )
    succ_fields = {
        FieldPath.parse("query.token"): ValueTemplate(
            [DepAtom("P#0", FieldPath("header", ("X-Next-Token",)))]
        )
    }
    succ = TransactionSignature(
        "S#0",
        RequestTemplate("GET", ValueTemplate([host(), ConstAtom("/page")]), succ_fields),
        ResponseTemplate(),
    )
    edges = [
        DependencyEdge(
            "P#0", FieldPath("header", ("X-Next-Token",)), "S#0",
            FieldPath.parse("query.token"),
        )
    ]
    learner = DynamicLearner(AnalysisResult("t", [feed, succ], edges))
    transaction = Transaction(
        Request("GET", Uri.parse("https://api.test.com/list")),
        Response(200, Headers([("X-Next-Token", "tok-77")]), JsonBody({})),
    )
    ready = learn_now(learner, transaction, "u1")
    assert ready
    assert ready[0].request.uri.query_get("token") == "tok-77"


def test_nonce_fields_block_prefetch_matching():
    """A request containing Env.nonce can be reconstructed but never
    matches the client's next request — C3's unstable-value boundary."""
    app = AppBuilder("com.test.nonce")
    app.config_default("api_host", "https://api.test.com")
    m = MethodBuilder("onStart", params=["this", "intent"])
    url = m.concat(m.config("api_host"), m.const("/list"))
    resp = m.execute(m.new_request("GET", url))
    ids = m.json_get(m.body_json(resp), "ids")
    with m.foreach(ids) as item_id:
        iurl = m.concat(m.config("api_host"), m.const("/item?id="), item_id)
        req = m.new_request("GET", iurl)
        m.add_query(req, "nonce", m.nonce())
        m.invoke("Http.bodyJson", m.execute(req))
    m.render(ids)
    app.method("Main", m)
    app.component("main", "Main", screen="home", main=True)
    app.screen("home")
    analysis = analyze_apk(app.build())
    succ = next(s for s in analysis.signatures if s.site == "Main.onStart#1")
    nonce_template = succ.request.fields[FieldPath.parse("query.nonce")]
    tags = [a.tag for a in nonce_template.unknown_atoms()]
    assert tags == ["env:nonce"]
    # the learner CAN build an instance (it learned a stale nonce), but
    # the client's fresh nonce guarantees a cache miss, never corruption
    learner = DynamicLearner(analysis)
    observed = Transaction(
        Request("GET", Uri.parse("https://api.test.com/item?id=a&nonce=n1")),
        Response(200, body=JsonBody({})),
    )
    learn_now(learner, observed, "u1")
    ready = learn_now(learner, list_transaction(ids=("zz",)), "u1")
    assert ready
    built = ready[0].request
    client = Request("GET", Uri.parse("https://api.test.com/item?id=zz&nonce=n2"))
    assert built.exact_key() != client.exact_key()
