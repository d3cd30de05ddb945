"""Wake-index tests: learning a value retries only blocked instances.

The seed rescanned the entire pending list on every observation; the
wake index files an instance, after its first build fails, under the
keys of the values that build left unresolved, and drops it from every
bucket when it completes or is evicted.  These tests pin the targeting
(only instances missing the learned value are retried), the index
holding only live instances, and the unchanged observable behavior
(pending_count, dedupe, oldest-first eviction at MAX_PENDING).
"""

import pytest

from repro.analysis.model import (
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
from repro.apps import all_apps
from repro.experiments.scale import record_session_transactions
from repro.httpmsg.body import FormBody, JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response, Transaction
from repro.httpmsg.uri import Uri
from repro.proxy import learning as learning_module
from repro.proxy.instances import RequestInstance
from repro.proxy.learning import DynamicLearner
from tests.learn_helpers import learn_now
from tests.oracles import naive_build


def host():
    return UnknownAtom("env:config:api_host")


def successor(site, path_suffix, tag):
    """Successor blocked on a dep value and one env tag."""
    dep = DepAtom("Feed#0", FieldPath.parse("body.items[].id"))
    return TransactionSignature(
        site,
        RequestTemplate(
            method="POST",
            uri=ValueTemplate([host(), ConstAtom(path_suffix)]),
            fields={
                FieldPath.parse("body.cid"): ValueTemplate([dep]),
                FieldPath.parse("body.token"): ValueTemplate([UnknownAtom(tag)]),
            },
            body_kind="form",
        ),
        ResponseTemplate(),
    )


def two_successor_analysis():
    feed = TransactionSignature(
        "Feed#0",
        RequestTemplate(
            method="GET", uri=ValueTemplate([host(), ConstAtom("/feed")])
        ),
        ResponseTemplate(paths={FieldPath.parse("body.items[].id")}),
    )
    alpha = successor("Alpha#0", "/alpha", "env:config:alpha")
    beta = successor("Beta#0", "/beta", "env:config:beta")
    teacher_alpha = TransactionSignature(
        "TeachAlpha#0",
        RequestTemplate(
            method="GET",
            uri=ValueTemplate([host(), ConstAtom("/teach-alpha")]),
            fields={
                FieldPath.parse("query.t"): ValueTemplate(
                    [UnknownAtom("env:config:alpha")]
                )
            },
        ),
        ResponseTemplate(),
    )
    edges = [
        DependencyEdge(
            "Feed#0", FieldPath.parse("body.items[].id"),
            "Alpha#0", FieldPath.parse("body.cid"),
        ),
        DependencyEdge(
            "Feed#0", FieldPath.parse("body.items[].id"),
            "Beta#0", FieldPath.parse("body.cid"),
        ),
    ]
    return AnalysisResult("t", [feed, alpha, beta, teacher_alpha], edges)


def feed_transaction(item_ids=("a1", "b2")):
    return Transaction(
        Request("GET", Uri.parse("https://api.test.com/feed")),
        Response(200, body=JsonBody({"items": [{"id": i} for i in item_ids]})),
    )


def teach_alpha_transaction(value="tok-A"):
    return Transaction(
        Request(
            "GET",
            Uri.parse("https://api.test.com/teach-alpha?t={}".format(value)),
        ),
        Response(200, body=JsonBody({"ok": True})),
    )


def count_try_builds(monkeypatch):
    """Instrument RequestInstance.try_build with a per-site counter."""
    counts = {}
    original = RequestInstance.try_build

    def counting(self, store, preferred_variant=None):
        counts[self.signature.site] = counts.get(self.signature.site, 0) + 1
        return original(self, store, preferred_variant)

    monkeypatch.setattr(RequestInstance, "try_build", counting)
    return counts


# -- targeting ---------------------------------------------------------------
def test_learning_tag_retries_only_waiting_instances(monkeypatch):
    learner = DynamicLearner(two_successor_analysis())
    learn_now(learner, feed_transaction(), "u1")  # spawns Alpha×2 + Beta×2
    assert learner.pending_count == 4
    counts = count_try_builds(monkeypatch)
    ready = learn_now(learner, teach_alpha_transaction(), "u1")
    # only the Alpha instances (blocked on env:config:alpha) retried...
    assert counts.get("Alpha#0", 0) == 2
    assert counts.get("Beta#0", 0) == 0
    # ...and they complete, leaving only Beta pending
    assert sorted(r.instance.signature.site for r in ready) == ["Alpha#0", "Alpha#0"]
    assert learner.pending_count == 2
    assert {i.signature.site for i in learner._pending} == {"Beta#0"}


def test_unrelated_observation_retries_nothing(monkeypatch):
    learner = DynamicLearner(two_successor_analysis())
    learn_now(learner, feed_transaction(), "u1")
    counts = count_try_builds(monkeypatch)
    # same feed again: spawned duplicates are deduped, nothing learned
    # beyond already-known values → no pending retries at all
    learn_now(learner, feed_transaction(), "u1")
    assert counts.get("Alpha#0", 0) == 0
    assert counts.get("Beta#0", 0) == 0


def test_completed_instances_not_retried_on_later_wakes(monkeypatch):
    learner = DynamicLearner(two_successor_analysis())
    learn_now(learner, feed_transaction(), "u1")
    learn_now(learner, teach_alpha_transaction("tok-1"), "u1")
    assert learner.pending_count == 2  # Beta instances remain
    counts = count_try_builds(monkeypatch)
    # alpha changes value again: the completed Alpha instances are gone
    learn_now(learner, teach_alpha_transaction("tok-2"), "u1")
    assert counts.get("Alpha#0", 0) == 0


def test_per_user_tag_wakes_only_that_users_instances(monkeypatch):
    analysis = two_successor_analysis()
    # make Alpha's missing tag per-user (env:cookie)
    learner = DynamicLearner(analysis)
    learn_now(learner, feed_transaction(), "u1")
    learn_now(learner, feed_transaction(), "u2")
    assert learner.pending_count == 8
    counts = count_try_builds(monkeypatch)
    learn_now(learner, teach_alpha_transaction(), "u1")
    # env:config:alpha is app-level → instances of BOTH users wake
    assert counts.get("Alpha#0", 0) == 4
    assert counts.get("Beta#0", 0) == 0


# -- unchanged observable behavior -------------------------------------------
def test_pending_count_and_dedupe_unchanged():
    learner = DynamicLearner(two_successor_analysis())
    learn_now(learner, feed_transaction(item_ids=("a1",)), "u1")
    learn_now(learner, feed_transaction(item_ids=("a1",)), "u1")
    assert learner.pending_count == 2  # Alpha + Beta for a1, deduped


def test_eviction_at_max_pending_drops_oldest_first(monkeypatch):
    monkeypatch.setattr(learning_module, "MAX_PENDING", 6)
    learner = DynamicLearner(two_successor_analysis())
    learn_now(learner, feed_transaction(item_ids=("o1", "o2", "o3")), "u1")
    assert learner.pending_count == 6
    before = list(learner._pending)  # FIFO order
    learn_now(learner, feed_transaction(item_ids=("n1",)), "u1")
    assert learner.pending_count == 6
    after = list(learner._pending)
    # exactly the two oldest instances were evicted, newest present
    assert before[0] not in after
    assert before[1] not in after
    assert all(i in after for i in before[2:])
    assert [i.dep_values["body.cid"] for i in after].count("n1") == 2
    # bookkeeping stays consistent
    assert len(learner._pending_keys) == learner.pending_count
    # the Alphas complete, leaving completed instances before B-o1 and
    # between B-o3 and B-n1: eviction passes over them to the oldest
    # *live* instance, and the pending view keeps enqueue order
    learn_now(learner, teach_alpha_transaction(), "u1")
    live = list(learner._pending)
    assert [(i.signature.site, i.dep_values["body.cid"]) for i in live] == [
        ("Beta#0", "o1"), ("Beta#0", "o2"), ("Beta#0", "o3"), ("Beta#0", "n1"),
    ]
    for index in range(6):
        instance = RequestInstance(learner._by_site["Beta#0"], "u1")
        instance.fill(FieldPath.parse("body.cid"), "m{}".format(index))
        learner._enqueue(instance)
        live.append(instance)
        assert learner._pending == live[-6:]
    assert learner._drain_pending() == []
    assert learner.pending_count == 6
    assert len(learner._pending_sites) == 1


def test_evicted_instances_do_not_wake(monkeypatch):
    monkeypatch.setattr(learning_module, "MAX_PENDING", 2)
    learner = DynamicLearner(two_successor_analysis())
    learn_now(learner, feed_transaction(item_ids=("x1", "x2", "x3")), "u1")
    assert learner.pending_count == 2
    counts = count_try_builds(monkeypatch)
    ready = learn_now(learner, teach_alpha_transaction(), "u1")
    # at most the live Alpha instances retried; evicted ones never
    assert counts.get("Alpha#0", 0) <= 2
    assert all(r.instance.signature.site == "Alpha#0" for r in ready)
    assert len(learner._pending_keys) == learner.pending_count


def test_preferred_variant_change_wakes_instances():
    """A newly observed field-set variant can complete an instance even
    when no store value changed: the (user, site) variant wake key."""
    feed = TransactionSignature(
        "Feed#0",
        RequestTemplate(
            method="GET", uri=ValueTemplate([host(), ConstAtom("/feed")])
        ),
        ResponseTemplate(paths={FieldPath.parse("body.items[].id")}),
    )
    dep = DepAtom("Feed#0", FieldPath.parse("body.items[].id"))
    # body.ref depends on a predecessor that never runs, so the larger
    # variant can never be built; the smaller one always can
    ghost = DepAtom("Ghost#0", FieldPath.parse("body.token"))
    succ = TransactionSignature(
        "Succ#0",
        RequestTemplate(
            method="POST",
            uri=ValueTemplate([host(), ConstAtom("/succ")]),
            fields={
                FieldPath.parse("body.cid"): ValueTemplate([dep]),
                FieldPath.parse("body.ref"): ValueTemplate([ghost]),
            },
            body_kind="form",
        ),
        ResponseTemplate(),
        variants=[
            frozenset({"body.cid", "body.ref"}),
            frozenset({"body.cid"}),
        ],
    )
    edges = [
        DependencyEdge(
            "Feed#0", FieldPath.parse("body.items[].id"),
            "Succ#0", FieldPath.parse("body.cid"),
        )
    ]
    learner = DynamicLearner(AnalysisResult("t", [feed, succ], edges))

    def observed_succ(fields):
        return Transaction(
            Request(
                "POST",
                Uri.parse("https://api.test.com/succ"),
                body=FormBody(list(fields)),
            ),
            Response(200, body=JsonBody({"ok": True})),
        )

    # the app is first seen sending the larger variant → preferred
    learn_now(learner, observed_succ([("cid", "zz"), ("ref", "r0")]), "u1")
    # the spawned instance honors the preferred (unbuildable) variant
    learn_now(learner, feed_transaction(item_ids=("a1",)), "u1")
    assert learner.pending_count == 1
    changed = []
    learner.store.add_listener(changed.append)
    # same field values, smaller variant: no store change, only the
    # preferred variant flips — the variant wake must retry the instance
    ready = learn_now(learner, observed_succ([("cid", "zz")]), "u1")
    assert changed == []
    assert [r.instance.signature.site for r in ready] == ["Succ#0"]
    assert ready[0].request.body.get("cid") == "a1"
    assert ready[0].request.body.get("ref") is None
    assert learner.pending_count == 0


# -- missing-key registration ------------------------------------------------
def cookie_analysis():
    """Feed sends the cookie jar; Detail waits on the cookie, a dep
    binding and an app-level ``env:config:vip`` value."""
    cookie = FieldPath.parse("header.Cookie")
    feed = TransactionSignature(
        "Feed#0",
        RequestTemplate(
            method="GET",
            uri=ValueTemplate([host(), ConstAtom("/feed")]),
            fields={cookie: ValueTemplate([UnknownAtom("env:cookie")])},
        ),
        ResponseTemplate(paths={FieldPath.parse("body.items[].id")}),
    )
    detail = TransactionSignature(
        "Detail#0",
        RequestTemplate(
            method="POST",
            uri=ValueTemplate([host(), ConstAtom("/detail")]),
            fields={
                cookie: ValueTemplate([UnknownAtom("env:cookie")]),
                FieldPath.parse("body.cid"): ValueTemplate(
                    [DepAtom("Feed#0", FieldPath.parse("body.items[].id"))]
                ),
                FieldPath.parse("body.vip"): ValueTemplate(
                    [UnknownAtom("env:config:vip")]
                ),
            },
            body_kind="form",
        ),
        ResponseTemplate(),
    )
    edges = [
        DependencyEdge(
            "Feed#0", FieldPath.parse("body.items[].id"),
            "Detail#0", FieldPath.parse("body.cid"),
        )
    ]
    return AnalysisResult("t", [feed, detail], edges)


def cookie_feed(cookie, set_cookie, item_ids=("a1", "b2")):
    headers = Headers()
    headers.add("Set-Cookie", set_cookie)
    return Transaction(
        Request(
            "GET",
            Uri.parse("https://api.test.com/feed"),
            Headers([("Cookie", cookie)]),
        ),
        Response(
            200,
            headers,
            body=JsonBody({"items": [{"id": i} for i in item_ids]}),
        ),
    )


def detail_request(fields, cookie="bsid=client"):
    return Transaction(
        Request(
            "POST",
            Uri.parse("https://api.test.com/detail"),
            Headers([("Cookie", cookie)]),
            body=FormBody(list(fields)),
        ),
        Response(200, body=JsonBody({"ok": True})),
    )


def indexed_instances(learner):
    found = {}
    for bucket in learner._wake_index.values():
        for instance in bucket.values():
            found[id(instance)] = instance
    return list(found.values())


def test_cookie_changes_do_not_retry_instance_missing_other_field(monkeypatch):
    learner = DynamicLearner(cookie_analysis())
    learn_now(learner, cookie_feed("bsid=0", "bsid=1"), "u1")
    assert learner.pending_count == 2
    # registered under the missing vip value only, not the cookie
    for instance in learner._pending:
        assert [row.path_string for row in instance.missing] == ["body.vip"]
        assert ("tag", "u1", "env:cookie") not in instance.wake_keys
        assert ("tag", None, "env:config:vip") in instance.wake_keys
    counts = count_try_builds(monkeypatch)
    changed = []
    learner.store.add_listener(changed.append)
    # env:cookie changes (new Set-Cookie on a cookie-sending signature)
    assert learn_now(learner, cookie_feed("bsid=1", "bsid=2"), "u1") == []
    # header.Cookie of Detail itself changes (and env:cookie with it);
    # the request carries no vip, so nothing the instances miss arrives
    assert learn_now(learner, detail_request([("cid", "zz")], "bsid=3"), "u1") == []
    assert ("tag", "u1", "env:cookie") in changed
    assert ("field", "u1", "Detail#0", "header.Cookie") in changed
    assert counts.get("Detail#0", 0) == 0
    # the value they do miss wakes and completes them
    ready = learn_now(learner, detail_request([("cid", "zz"), ("vip", "gold")]), "u1")
    assert counts["Detail#0"] == 2
    assert sorted(r.request.body.get("cid") for r in ready) == ["a1", "b2"]
    assert learner._wake_index == {}


def test_instance_built_on_first_attempt_is_never_registered():
    learner = DynamicLearner(cookie_analysis())
    learn_now(learner, detail_request([("cid", "zz"), ("vip", "gold")]), "u1")
    ready = learn_now(learner, cookie_feed("bsid=0", "bsid=1"), "u1")
    assert len(ready) == 2
    assert all(r.instance.wake_keys is None for r in ready)
    assert learner._wake_index == {}
    assert learner.pending_count == 0


def test_uri_unresolved_registers_every_read_key():
    """Without the host, the build fails before any field resolves, so
    the instance falls back to every key its signature reads."""
    learner = DynamicLearner(cookie_analysis())
    instance = RequestInstance(learner._by_site["Detail#0"], "u1")
    instance.fill(FieldPath.parse("body.cid"), "a1")
    learner._enqueue(instance)
    assert learner._drain_pending() == []
    assert instance.missing is None
    assert set(instance.wake_keys) == {
        ("tag", None, "env:config:api_host"),
        ("tag", "u1", "env:cookie"),
        ("field", "u1", "Detail#0", "header.Cookie"),
        ("field", None, "Detail#0", "header.Cookie"),
        ("tag", None, "env:config:vip"),
        ("field", "u1", "Detail#0", "body.vip"),
        ("field", None, "Detail#0", "body.vip"),
    }


def five_app_learners():
    """One learner per app, after three users replayed its recorded
    session through it."""
    from repro.analysis.pipeline import analyze_apk
    from repro.apps.registry import get_app

    for name in all_apps():
        analysis = analyze_apk(get_app(name).build_apk())
        learner = DynamicLearner(analysis)
        transactions = record_session_transactions(name)
        for user in ("u1", "u2", "u3"):
            for transaction in transactions:
                learn_now(learner, transaction, user)
        yield learner


@pytest.mark.parametrize("max_pending", [learning_module.MAX_PENDING, 8])
def test_wake_index_holds_only_live_instances_after_five_app_replay(
    monkeypatch, max_pending
):
    """Completed and evicted instances leave every bucket."""
    monkeypatch.setattr(learning_module, "MAX_PENDING", max_pending)
    registered = 0
    for learner in five_app_learners():
        indexed = indexed_instances(learner)
        registered += len(indexed)
        assert all(learner._is_live(instance) for instance in indexed)
        for key, bucket in learner._wake_index.items():
            assert bucket  # empty buckets are pruned
            for seq, instance in bucket.items():
                assert instance.pending_seq == seq
                assert key in instance.wake_keys
        assert learner.pending_count <= max_pending
    assert registered > 0  # the replay leaves some instances waiting


def test_missing_rows_match_naive_oracle_after_five_app_replay():
    """Each registered instance's ``missing`` names exactly the fields
    the seed's atom walk cannot resolve, and is None exactly when the
    URI does not resolve or parse."""
    checked = 0
    for learner in five_app_learners():
        store = learner.store
        for instance in indexed_instances(learner):
            uri = naive_build.resolve_uri(instance, store)
            try:
                if uri is not None:
                    Uri.parse(uri)
            except ValueError:
                uri = None
            if uri is None:
                assert instance.missing is None
                continue
            expected = [
                path_string
                for path_string, value in naive_build.resolve_all(instance, store).items()
                if value is None
            ]
            assert [row.path_string for row in instance.missing] == expected
            checked += 1
    assert checked > 0
