"""Learn queue: differential oracle vs the seed's learn-on-observe.

:meth:`DynamicLearner.observe` parks an observation and
:meth:`DynamicLearner.drain_learn_queue` runs the full learn workflow —
value learning, cookie tracking, successor spawning, the
pending-instance drain — for everything parked.  Its correctness claim
is purely differential: once the queue is drained, the ready-prefetch
stream must be exactly what the seed's inline pipeline
(:class:`~tests.oracles.inline_learner.InlineLearner`) produced,
observation for observation.  This file pins that claim:

* across every registered app's real recorded session (drained per
  observation: byte-level list equality; drained once at the end: the
  same completed prefetches);
* under hypothesis-fuzzed observe/drain interleavings on the synthetic
  feed→detail analysis;
* and for the bounded queue's failure mode — a full queue drops the
  observation, counts ``learn.queue_overflow``, and never blocks.

It also holds the reference drain for the missing-key wake index:
:class:`RescanLearner` rebuilds every live pending instance on every
drain (the seed's rescan) and learns the seed's way, and must yield the
very same ready list — site, user and serialised request, in order —
and the very same learned store on the five apps' recorded sessions,
in every teaching order of a synthetic successor that reads each kind
of wake key, and on fuzzed observe/drain interleavings of both.
"""

import itertools

import pytest

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
from repro.analysis.pipeline import analyze_apk
from repro.apps import all_apps
from repro.apps.registry import get_app
from repro.experiments.scale import record_session_transactions
from repro.httpmsg.body import FormBody, JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response, Transaction
from repro.httpmsg.uri import Uri
from repro.proxy.instances import is_per_user_tag
from repro.proxy.learning import DynamicLearner, ReadyPrefetch
from tests.learn_helpers import learn_now
from tests.oracles.inline_learner import InlineLearner, inline_learners
from tests.oracles.naive_build import build_naive
from tests.oracles.wire import serialize_request
from tests.test_proxy_learning import (
    detail_transaction,
    feed_transaction,
    make_analysis,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False

APP_NAMES = list(all_apps())


def _key(ready):
    """A stable identity for one completed prefetch."""
    return (
        ready.instance.signature.site,
        ready.instance.user,
        ready.request.exact_key(),
    )


def _keys(ready_list):
    return [_key(r) for r in ready_list]


def _wire_keys(ready_list):
    """Site, user and serialised request of each completed prefetch."""
    return [
        (r.instance.signature.site, r.instance.user, serialize_request(r.request))
        for r in ready_list
    ]


class RescanLearner(DynamicLearner):
    """Reference drain: the seed's rescan, with no wake index.

    Every live pending instance is built (no failed-attempt marker, no
    registration, no build plan) on every drain, in enqueue order.  It
    learns from observed requests the seed's way too, walking each
    field template (alternation options included) per observation
    instead of reading the per-signature plan.
    """

    def _learn_from_request(self, signature, request, user):
        captures = signature.uri_matcher.match(
            request.uri.origin() + request.uri.path
        )
        for atom, value in captures or ():
            if isinstance(atom, UnknownAtom):
                self.store.learn_tag(user, atom.tag, value)
        present = []
        for path, template in signature.signature.request.fields.items():
            values = path.extract(request)
            if not values:
                continue
            present.append(path.to_string())
            if template.dep_atoms():
                continue
            value = str(values[0])
            per_user = any(
                is_per_user_tag(atom.tag) for atom in template.unknown_atoms()
            )
            self.store.learn_field(
                user, signature.site, path.to_string(), value, per_user
            )
            if len(template.atoms) == 1 and isinstance(template.atoms[0], UnknownAtom):
                self.store.learn_tag(user, template.atoms[0].tag, value)
        variant = frozenset(present)
        if variant in signature.variants_set:
            self.preferred_variant[(user, signature.site)] = variant

    def _drain_pending(self):
        self._fresh = []
        self._woken.clear()
        ready = []
        for instance in self._pending:
            preferred = self.preferred_variant.get(
                (instance.user, instance.signature.site)
            )
            request = build_naive(instance, self.store, preferred)
            if request is not None:
                ready.append(ReadyPrefetch(instance, request))
                del self._pending_keys[instance.pending_key]
                self._forget_pending(instance)
                self.completed_count += 1
        return ready


def _assert_same_store(indexed, rescan):
    """Both learners learned the very same values, in the same scopes."""
    for name in ("_global_tags", "_user_tags", "_global_fields", "_user_fields"):
        assert getattr(indexed.store, name) == getattr(rescan.store, name), name


def _wake_zoo_analysis():
    """One successor reading every kind of wake key.

    ``Detail#0`` takes its host from its own wildcard (unknown until a
    Detail request is seen, so its first builds fail on the URI), the
    per-user cookie, a dependency binding, an alternation, an
    app-level lone wildcard, a per-user wildcard inside a mixed
    template, an alternation with a per-user option (learned per
    user), and a binding from a predecessor that never runs.  Its
    larger variant needs that binding, so it builds only after the app
    is seen sending the smaller variant.  ``Tok#0``, ``Agent#0`` and
    ``Ping#0`` each teach one value alone.  ``Side#0`` is spawned next
    to Detail and binds an alternation with a dependency option, whose
    observed values are never learned.
    """
    api = UnknownAtom("env:config:api_host")
    cookie = FieldPath.parse("header.Cookie")
    items = FieldPath.parse("body.items[].id")

    def get(site, atoms, fields=None, paths=()):
        return TransactionSignature(
            site,
            RequestTemplate(
                method="GET", uri=ValueTemplate(atoms), fields=fields or {}
            ),
            ResponseTemplate(paths=set(paths)),
        )

    cookie_field = {cookie: ValueTemplate([UnknownAtom("env:cookie")])}
    detail_fields = {
        cookie: ValueTemplate([UnknownAtom("env:cookie")]),
        FieldPath.parse("body.cid"): ValueTemplate([DepAtom("Feed#0", items)]),
        FieldPath.parse("body.mode"): ValueTemplate(
            [AltAtom([ValueTemplate.const("a"), ValueTemplate.const("b")])]
        ),
        FieldPath.parse("body.tok"): ValueTemplate([UnknownAtom("env:config:tok")]),
        FieldPath.parse("body.mix"): ValueTemplate(
            [ConstAtom("ua-"), UnknownAtom("env:userAgent")]
        ),
        FieldPath.parse("body.who"): ValueTemplate(
            [AltAtom([ValueTemplate.unknown("env:cookie"), ValueTemplate.const("x")])]
        ),
        FieldPath.parse("body.ref"): ValueTemplate(
            [DepAtom("Ghost#0", FieldPath.parse("body.ref"))]
        ),
    }
    every = frozenset(path.to_string() for path in detail_fields)
    detail = TransactionSignature(
        "Detail#0",
        RequestTemplate(
            method="POST",
            uri=ValueTemplate(
                [UnknownAtom("env:config:detail_host"), ConstAtom("/detail")]
            ),
            fields=detail_fields,
            body_kind="form",
        ),
        ResponseTemplate(),
        variants=[every, every - {"body.ref"}],
    )
    pick = FieldPath.parse("body.pick")
    side = TransactionSignature(
        "Side#0",
        RequestTemplate(
            method="POST",
            uri=ValueTemplate([api, ConstAtom("/side")]),
            fields={
                pick: ValueTemplate(
                    [AltAtom([ValueTemplate([DepAtom("Feed#0", items)]),
                              ValueTemplate.const("home")])]
                )
            },
            body_kind="form",
        ),
        ResponseTemplate(),
    )
    signatures = [
        get("Feed#0", [api, ConstAtom("/feed")], cookie_field, [items]),
        detail,
        side,
        get("Tok#0", [api, ConstAtom("/tok/"), UnknownAtom("env:config:tok")]),
        get("Agent#0", [api, ConstAtom("/agent/"), UnknownAtom("env:userAgent")]),
        get("Ping#0", [api, ConstAtom("/ping")], cookie_field),
    ]
    edges = [
        DependencyEdge("Feed#0", items, "Detail#0", FieldPath.parse("body.cid")),
        DependencyEdge("Feed#0", items, "Side#0", pick),
    ]
    return AnalysisResult("zoo", signatures, edges)


#: what each zoo observation teaches: ``feed`` spawns Detail instances;
#: ``host`` is a bare Detail request (its host only); ``mode`` a Detail
#: request carrying only the alternation; ``v1``/``v2`` Detail requests
#: in the larger/smaller variant, same values, so ``v2`` after ``v1``
#: changes only the preferred variant; ``side`` a Side request
ZOO_OPS = ("feed", "host", "ping", "tok", "agent", "mode", "v1", "v2", "side")


def _zoo_transaction(op, value=0):
    """One observation of the wake-key zoo; ``value`` is a small int."""
    api = "https://api.test.com"
    headers = Headers()
    if op == "feed":
        request = Request(
            "GET", Uri.parse(api + "/feed"), Headers([("Cookie", "bsid=c")])
        )
        body = JsonBody({"items": [{"id": "i{}".format(value)}, {"id": "j"}]})
        return Transaction(request, Response(200, headers, body=body))
    if op == "ping":
        headers.add("Set-Cookie", "bsid={}".format(value))
        request = Request("GET", Uri.parse(api + "/ping"))
    elif op in ("tok", "agent"):
        request = Request("GET", Uri.parse("{}/{}/v{}".format(api, op, value)))
    elif op == "side":
        request = Request(
            "POST",
            Uri.parse(api + "/side"),
            body=FormBody([("pick", "i{}".format(value))]),
        )
    else:
        names = {
            "host": (),
            "mode": ("mode",),
            "v1": ("cid", "mode", "tok", "mix", "who", "ref"),
            "v2": ("cid", "mode", "tok", "mix", "who"),
        }[op]
        fields = [
            (name, "b" if name == "mode" else "{}{}".format(name, value))
            for name in names
        ]
        request = Request(
            "POST",
            Uri.parse("https://d{}.test.com/detail".format(value)),
            Headers([("Cookie", "bsid=d")]) if op in ("v1", "v2") else Headers(),
            body=FormBody(fields),
        )
    return Transaction(request, Response(200, headers, body=JsonBody({"ok": 1})))


def _assert_zoo_matches_rescan(steps):
    """Feed ``(op, user, value, drain)`` steps to the indexed learner
    and the rescan, draining after the steps that ask; every drain
    must agree."""
    analysis = _wake_zoo_analysis()
    indexed = DynamicLearner(analysis)
    rescan = RescanLearner(analysis)
    completed = 0
    for op, user, value, drain in steps:
        transaction = _zoo_transaction(op, value)
        indexed.observe(transaction, user)
        rescan.observe(transaction, user)
        if drain:
            ready = indexed.drain_learn_queue()
            assert _wire_keys(ready) == _wire_keys(rescan.drain_learn_queue())
            completed += len(ready)
    ready = indexed.drain_learn_queue()
    assert _wire_keys(ready) == _wire_keys(rescan.drain_learn_queue())
    assert indexed.pending_count == rescan.pending_count
    assert indexed.completed_count == rescan.completed_count
    _assert_same_store(indexed, rescan)
    return completed + len(ready)


def _app_fixture(name):
    transactions = record_session_transactions(name)
    analysis = analyze_apk(get_app(name).build_apk())
    return transactions, analysis


# ----------------------------------------------------------------------
# oracle: the 5 real apps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", APP_NAMES, ids=str)
def test_deferred_drained_per_observation_equals_inline(name):
    """Drain-after-every-observe is byte-for-byte the inline stream."""
    transactions, analysis = _app_fixture(name)
    inline = InlineLearner(analysis)
    deferred = DynamicLearner(analysis)
    for transaction in transactions:
        inline_ready = learn_now(inline, transaction, "u1")
        deferred.observe(transaction, "u1")
        assert deferred.learn_queue_depth == 1
        deferred_ready = deferred.drain_learn_queue()
        assert _keys(deferred_ready) == _keys(inline_ready)
        for a, b in zip(inline_ready, deferred_ready):
            assert serialize_request(a.request) == serialize_request(b.request)
    assert deferred.learn_queue_depth == 0
    assert deferred.queue_overflows == 0
    assert inline.pending_count == deferred.pending_count
    assert inline.completed_count == deferred.completed_count


@pytest.mark.parametrize("name", APP_NAMES, ids=str)
def test_deferred_drained_at_end_equals_inline_as_set(name):
    """Eventually-drained: the completed-prefetch set is identical."""
    transactions, analysis = _app_fixture(name)
    inline = InlineLearner(analysis)
    deferred = DynamicLearner(analysis, learn_queue_capacity=10_000)
    inline_ready = []
    for transaction in transactions:
        inline_ready.extend(learn_now(inline, transaction, "u1"))
        deferred.observe(transaction, "u1")
    assert deferred.learn_queue_depth == len(transactions)
    # one drain of the whole backlog: the eventual completed-prefetch
    # stream is identical
    deferred_ready = deferred.drain_learn_queue()
    assert _keys(deferred_ready) == _keys(inline_ready)
    assert deferred.deferred_drained == len(transactions)


def test_wake_keys_equal_rescan_in_every_teaching_order():
    """Spawn and teach the zoo's values in every order, then switch to
    the smaller variant, draining after each observation: each
    instance completes at the very drain where the rescan does."""
    completed = 0
    for order in itertools.permutations(
        ("feed", "host", "tok", "agent", "mode", "v1")
    ):
        completed += _assert_zoo_matches_rescan(
            [(op, "u1", 0, True) for op in order + ("v2",)]
        )
    assert completed > 0


def test_alternation_learn_scope_equals_rescan_across_users():
    """u1 teaches every Detail value, the per-user alternation included,
    and sends Side's dependency alternation; u2's instances keep waiting
    for u2's own alternation value, exactly as in the rescan."""
    steps = [
        (op, "u1", 0, True)
        for op in ("feed", "host", "tok", "agent", "v1", "v2", "side")
    ]
    steps += [("feed", "u2", 1, True), ("ping", "u2", 1, True), ("v2", "u2", 1, True)]
    assert _assert_zoo_matches_rescan(steps) > 0


def test_fig13_row_is_the_same_under_the_inline_oracle(monkeypatch):
    """A figure runner serves through the shipped learner exactly as
    through the seed's learn-on-observe pipeline."""
    from repro.experiments import runner, scenario

    monkeypatch.setattr(scenario, "_PREPARED", {})
    shipped = runner.fig13_row("wish", runs=1)
    # verify the app again, under the oracle too
    monkeypatch.setattr(scenario, "_PREPARED", {})
    with inline_learners() as built:
        oracle = runner.fig13_row("wish", runs=1)
    assert sum(learner.observed_count for learner in built) > 0
    assert oracle == shipped


@pytest.mark.parametrize("name", APP_NAMES, ids=str)
def test_wake_index_equals_rescan_on_recorded_sessions(name):
    """Missing-key wake index vs the rescan, drained per observation.

    Two users replay the session half a session apart, so per-user
    values (cookies, user agents) of one user keep changing while the
    other user's instances wait.
    """
    transactions, analysis = _app_fixture(name)
    indexed = DynamicLearner(analysis)
    rescan = RescanLearner(analysis)
    half = len(transactions) // 2
    schedule = [("u1", t) for t in transactions[:half]]
    for first, second in zip(transactions[half:], transactions):
        schedule.extend([("u1", first), ("u2", second)])
    schedule.extend(("u2", t) for t in transactions[len(transactions) - half:])
    completed = 0
    for user, transaction in schedule:
        indexed.observe(transaction, user)
        rescan.observe(transaction, user)
        indexed_ready = indexed.drain_learn_queue()
        assert _wire_keys(indexed_ready) == _wire_keys(rescan.drain_learn_queue())
        completed += len(indexed_ready)
    assert completed == rescan.completed_count > 0
    assert indexed.pending_count == rescan.pending_count
    _assert_same_store(indexed, rescan)


# ----------------------------------------------------------------------
# overflow: a full queue degrades gracefully
# ----------------------------------------------------------------------
def test_full_queue_drops_learn_and_counts_overflow():
    learner = DynamicLearner(make_analysis(), learn_queue_capacity=2)
    for index in range(5):
        # never raises and never blocks, whatever the queue state
        learner.observe(feed_transaction(item_ids=(str(index),)), "u1")
    assert learner.learn_queue_depth == 2
    assert learner.queue_overflows == 3
    assert learner.deferred_enqueued == 2
    assert learner.stats()["queue_overflows"] == 3
    # only the two admitted observations ever reach the pipeline
    learner.drain_learn_queue()
    assert learner.observed_count == 5
    assert learner.deferred_drained == 2
    assert learner.pending_count == 2  # one instance per admitted feed


def test_overflow_recovers_after_drain():
    learner = DynamicLearner(make_analysis(), learn_queue_capacity=1)
    learner.observe(detail_transaction(), "u1")
    learner.observe(detail_transaction(), "u1")  # dropped
    assert learner.queue_overflows == 1
    learner.drain_learn_queue()
    learner.observe(feed_transaction(item_ids=("a1",)), "u1")  # admitted again
    assert learner.learn_queue_depth == 1
    ready = learner.drain_learn_queue()
    assert [r.request.body.get("cid") for r in ready] == ["a1"]


def test_unmatched_transactions_still_update_cookies_via_drain():
    from repro.httpmsg.headers import Headers
    from repro.httpmsg.message import Request, Response, Transaction
    from repro.httpmsg.uri import Uri

    learner = DynamicLearner(make_analysis())
    headers = Headers()
    headers.add("Set-Cookie", "tok=xyz")
    other = Transaction(
        Request("GET", Uri.parse("https://elsewhere.com/x")),
        Response(200, headers),
    )
    learner.observe(other, "u1")
    assert learner.jar("u1").cookie_header("https://elsewhere.com") == ""
    learner.drain_learn_queue()
    assert learner.jar("u1").cookie_header("https://elsewhere.com") == "tok=xyz"


# ----------------------------------------------------------------------
# hypothesis: fuzz observe/drain interleavings
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        plan=st.lists(
            st.tuples(
                st.sampled_from(["feed", "detail", "other_user_feed"]),
                st.booleans(),  # drain after this observation?
            ),
            min_size=1,
            max_size=12,
        ),
        item_seed=st.integers(min_value=0, max_value=99),
    )
    def test_fuzzed_interleavings_match_inline(plan, item_seed):
        analysis = make_analysis()
        inline = InlineLearner(analysis)
        deferred = DynamicLearner(analysis)
        rescan = RescanLearner(analysis)
        inline_ready = []
        deferred_ready = []
        for step, (kind, do_drain) in enumerate(plan):
            item = "i{}-{}".format(item_seed, step)
            if kind == "feed":
                transaction = feed_transaction(item_ids=(item, item + "b"))
                user = "u1"
            elif kind == "detail":
                transaction = detail_transaction(cid=item)
                user = "u1"
            else:
                transaction = feed_transaction(item_ids=(item,))
                user = "u2"
            inline_ready.extend(learn_now(inline, transaction, user))
            deferred.observe(transaction, user)
            rescan.observe(transaction, user)
            if do_drain:
                drained = deferred.drain_learn_queue()
                assert _wire_keys(drained) == _wire_keys(rescan.drain_learn_queue())
                deferred_ready.extend(drained)
        drained = deferred.drain_learn_queue()
        assert _wire_keys(drained) == _wire_keys(rescan.drain_learn_queue())
        deferred_ready.extend(drained)
        assert deferred.learn_queue_depth == 0
        assert set(_keys(deferred_ready)) == set(_keys(inline_ready))
        assert deferred.pending_count == inline.pending_count
        assert deferred.completed_count == inline.completed_count

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(APP_NAMES),
        plan=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),  # transaction
                st.sampled_from(["u1", "u2", "u3"]),
                st.booleans(),  # drain after this observation?
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_fuzzed_interleavings_wake_index_equals_rescan(name, plan):
        """Recorded transactions in any order, by any user, drained at
        any points: every drain yields the rescan's ready list."""
        transactions, analysis = _app_fixture(name)
        indexed = DynamicLearner(analysis)
        rescan = RescanLearner(analysis)
        for pick, user, do_drain in plan:
            transaction = transactions[pick % len(transactions)]
            indexed.observe(transaction, user)
            rescan.observe(transaction, user)
            if do_drain:
                assert _wire_keys(indexed.drain_learn_queue()) == _wire_keys(
                    rescan.drain_learn_queue()
                )
        assert _wire_keys(indexed.drain_learn_queue()) == _wire_keys(
            rescan.drain_learn_queue()
        )
        assert indexed.pending_count == rescan.pending_count
        assert indexed.completed_count == rescan.completed_count
        _assert_same_store(indexed, rescan)

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(ZOO_OPS),
                st.sampled_from(["u1", "u2"]),
                st.integers(min_value=0, max_value=1),  # value
                st.booleans(),  # drain after this observation?
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_fuzzed_wake_keys_equal_rescan(steps):
        """Every kind of wake key, learned alone or together, in any
        order, for either user, drained at any points: every drain
        yields the rescan's list."""
        _assert_zoo_matches_rescan(steps)
