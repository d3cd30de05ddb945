"""Spawn gate: the prefetch gates that need no built request are
applied when a successor group is spawned, not after its instances are
built.

``Prefetcher.spawn_gate`` refuses a successor whose site has
prefetching off, whose chain would pass ``max_chain_depth``, or whose
user has no room left under the per-user bound or the site's admission
warm-up cap (which counts the user's pending instances of the site as
well as the open prefetches); ``Prefetcher.spawn_replicas`` then picks
the replicas from the room the gate answered, the first ones up to the
room left, drawing a below-threshold site's explore coin once per
replica.  The groups of one observation share the user's room under
the per-user bound.  The learner never creates, builds or submits the
rest.  The differential tests run the same workloads with
:class:`SpawnEverythingLearner`, which builds every instance, behind
:class:`SpawnEverythingPrefetcher`, which decides the depth bound and
admission at submit, and assert the same issued prefetches, served
bytes and miss causes wherever neither an admission threshold nor a
bound is set.  With a bound, a later group's replica cut at spawn can
no longer take the room of an earlier replica that never builds or
that submit refuses as a duplicate.  With a threshold, a replica cut
at spawn can no longer stand in for an earlier replica that submit
refuses as a duplicate, and the explore coin moves from submit to
spawn.  So only the demand side stays exact there.

The gate changes one more behaviour on purpose.  Instances of disabled
sites no longer take pending slots, so at ``MAX_PENDING`` they cannot
evict instances of enabled sites any more;
``test_disabled_spawns_no_longer_evict_enabled_instances`` pins that.
"""

import collections
import random

import pytest

from repro.experiments.scale import miss_causes_from_counters, run_scale
from repro.experiments.scenario import Scenario, prepare_app
from repro.metrics.perf import PERF
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy import learning as learning_module
from repro.proxy.cache import PrefetchCache
from repro.proxy.learning import DynamicLearner
from repro.proxy.prefetcher import Prefetcher
from repro.proxy.proxy import AccelerationProxy
from tests.oracles.spawn_everything import (
    SpawnEverythingLearner,
    SpawnEverythingPrefetcher,
)
from tests.test_proxy_wake_index import (
    feed_transaction,
    teach_alpha_transaction,
    two_successor_analysis,
)
from tests.learn_helpers import learn_now
from tests.test_prefetch_bound import SITE, make_prefetcher, ready
from tests.test_prefetch_efficacy import build_prefetcher, drive


class Recording:
    """Issued prefetches, served responses and enqueued instances of one
    run."""

    def __init__(self, mp) -> None:
        self.issued = []
        self.served = []
        self.enqueued = []
        start = Prefetcher._start
        enqueue = DynamicLearner._enqueue
        handle = AccelerationProxy.handle_request
        recording = self

        def recording_start(prefetcher, ready):
            recording.issued.append(
                (
                    ready.instance.signature.site,
                    ready.request.exact_key(),
                    prefetcher.sim.now,
                )
            )
            start(prefetcher, ready)

        def recording_enqueue(learner, instance):
            recording.enqueued.append(instance)
            enqueue(learner, instance)

        def recording_handle(proxy, request, user, trace=None):
            arrived_at = proxy.sim.now
            response = yield from handle(proxy, request, user, trace)
            recording.served.append(
                (
                    user,
                    request.exact_key(),
                    arrived_at,
                    proxy.sim.now,
                    response.status,
                    response.body.to_wire(),
                )
            )
            return response

        mp.setattr(Prefetcher, "_start", recording_start)
        mp.setattr(DynamicLearner, "_enqueue", recording_enqueue)
        mp.setattr(AccelerationProxy, "handle_request", recording_handle)


# -- differential: gated vs spawn-everything ---------------------------------
#: the gated proxy's learner and prefetcher, and the oracle's
GATED = (DynamicLearner, Prefetcher)
ORACLE = (SpawnEverythingLearner, SpawnEverythingPrefetcher)


@pytest.fixture(scope="module")
def wish():
    return prepare_app("wish")


def run_wish(wish, classes):
    """Launch, open an item, buy it; only the main sites prefetch."""
    learner_cls, prefetcher_cls = classes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.experiments.scenario.DynamicLearner", learner_cls)
        mp.setattr("repro.proxy.proxy.Prefetcher", prefetcher_cls)
        recording = Recording(mp)
        scenario = Scenario(
            wish, proxied=True, enabled_classes=wish.spec.main_site_classes
        )
        sim = scenario.sim
        runtime = scenario.runtime("u1")

        def flow():
            yield sim.spawn(runtime.launch())
            yield Delay(6.0)
            yield sim.spawn(runtime.dispatch("select_item", 3))
            yield Delay(2.0)
            yield sim.spawn(runtime.dispatch("buy"))

        with PERF.capture():
            sim.run_process(flow())
            causes = miss_causes_from_counters(PERF.counters)
    return scenario, recording, causes


def test_wish_scenario_matches_spawn_everything(wish):
    gated, gated_run, gated_causes = run_wish(wish, GATED)
    oracle, oracle_run, oracle_causes = run_wish(wish, ORACLE)

    assert gated_run.issued, "the scenario must prefetch something"
    assert gated_run.issued == oracle_run.issued
    assert gated_run.served == oracle_run.served
    assert gated_causes == oracle_causes
    gated_stats = gated.proxy.prefetcher.stats()
    oracle_stats = oracle.proxy.prefetcher.stats()
    # every draw-taking and later gate saw the same instances
    for key in (
        "issued",
        "prefetch_bytes",
        "skipped_probability",
        "skipped_budget",
        "skipped_duplicate",
        "skipped_condition",
        "skipped_popularity",
        "skipped_admission",
    ):
        assert gated_stats[key] == oracle_stats[key], key

    config = gated.proxy.config
    disabled = [
        i for i in oracle_run.enqueued if not config.policy(i.signature.site).prefetch
    ]
    assert disabled, "the oracle must build instances of disabled sites"
    assert not [
        i for i in gated_run.enqueued if not config.policy(i.signature.site).prefetch
    ]
    # the gated run counts its refusals where submit counted them
    assert gated_stats["skipped_policy"] > 0


def run_scale_both_ways(options):
    """One seeded warm shard, gated and spawn-everything."""
    rows = {}
    recordings = {}
    for classes in (GATED, ORACLE):
        learner_cls, prefetcher_cls = classes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.proxy.proxy.DynamicLearner", learner_cls)
            mp.setattr("repro.proxy.proxy.Prefetcher", prefetcher_cls)
            recordings[classes] = Recording(mp)
            rows[classes] = run_scale(
                users=40,
                duration=4.0,
                rate_per_user=1.0,
                seed=3,
                warm_start=True,
                collect_latencies=True,
                **options,
            )
    return rows[GATED], rows[ORACLE], recordings[GATED], recordings[ORACLE]


#: row keys that depend only on what the demand requests were served
DEMAND_KEYS = ("latencies_s", "miss_causes", "served_prefetched", "forwarded")


@pytest.mark.parametrize(
    "strategy, options",
    [
        ("none", {}),
        ("appx", {"admission_threshold": 0.2, "estimate_expiration": True}),
        # only the per-user bound caps a group
        ("appx", {"max_entries_per_user": 4}),
    ],
)
def test_scale_shard_matches_spawn_everything(strategy, options):
    gated, oracle, gated_run, oracle_run = run_scale_both_ways(
        dict(options, strategy=strategy)
    )

    assert gated_run.served, "the shard must serve requests"
    assert gated_run.served == oracle_run.served
    for key in DEMAND_KEYS:
        assert gated[key] == oracle[key], key
    if strategy == "none":
        assert gated_run.issued == oracle_run.issued
        for key in ("prefetch_issued", "skipped_admission", "cache_stored"):
            assert gated[key] == oracle[key], key
        assert len(gated_run.enqueued) < len(oracle_run.enqueued)
        assert not gated_run.issued
        assert gated_run.enqueued == []
        return
    assert len(gated_run.enqueued) < len(oracle_run.enqueued) / 2
    if "admission_threshold" in options:
        # The gate takes a group's first replicas up to the warm-up cap,
        # where submit used to skip a replica it refused as a duplicate
        # and take a later one, and a below-threshold site draws its
        # explore coin at spawn, in another order than submit drew it.
        # On this shard that moves a handful of the oracle's 1,864
        # prefetches; the demand side above stays exact.
        issued = collections.Counter(entry[:2] for entry in gated_run.issued)
        oracle_issued = collections.Counter(entry[:2] for entry in oracle_run.issued)
        moved = sum(((issued - oracle_issued) + (oracle_issued - issued)).values())
        assert moved <= len(oracle_run.issued) // 100
        # both refuse for admission: the gate at spawn, the oracle at
        # submit
        assert gated["skipped_admission"] > 0
        assert oracle["skipped_admission"] > 0
        return
    # The groups of one observation share the user's room under the
    # bound, so a later group gets only what earlier groups' replicas
    # left, whether or not those replicas build.  The oracle checks the
    # bound at submit, where a replica that is still pending or refused
    # as a duplicate leaves its room to a later group's replica.  So the
    # gate issues a subset of the oracle's prefetches: on this shard 152
    # of its 156.  The demand side above stays exact.
    issued = collections.Counter(entry[:2] for entry in gated_run.issued)
    oracle_issued = collections.Counter(entry[:2] for entry in oracle_run.issued)
    assert not issued - oracle_issued
    moved = sum((oracle_issued - issued).values())
    assert moved <= len(oracle_run.issued) // 25
    assert gated["skipped_admission"] == oracle["skipped_admission"] == 0
    # the cut replicas are counted as the bound's refusals
    assert gated["skipped_bound"] > 0


# -- where the gate does not reach --------------------------------------------
def idle_proxy(analysis):
    """A proxy with no traffic, so tests drive its learner directly."""
    return AccelerationProxy(Simulator(), OriginMap(), analysis)


def test_site_disabled_after_spawn_is_dropped_at_submit():
    proxy = idle_proxy(two_successor_analysis())
    learner, prefetcher = proxy.learner, proxy.prefetcher
    assert learn_now(learner, feed_transaction(), "u1") == []
    assert learner.pending_count == 4  # Alpha and Beta, two items each
    # §4.3 verification or the expiration estimator turns Alpha off
    # while its instances are pending
    proxy.config.disable("Alpha#0", "disabled after spawn")
    ready = learn_now(learner, teach_alpha_transaction(), "u1")
    assert sorted(r.instance.signature.site for r in ready) == ["Alpha#0"] * 2
    assert [prefetcher.submit(r) for r in ready] == ["skipped_policy"] * 2
    assert prefetcher.skipped_policy == 2
    assert prefetcher.issued == 0

    # a later predecessor spawns no Alpha instance: one refusal counted
    # for the successor group, however many items the feed lists
    learn_now(learner, feed_transaction(item_ids=("c3", "d4", "e5")), "u1")
    assert learner.pending_for("u1", "Alpha#0") == 0
    assert prefetcher.skipped_policy == 3
    assert learner.pending_count == 5  # the two older Beta plus three new


def test_gate_reads_the_live_depth_bound():
    proxy = idle_proxy(two_successor_analysis())
    learner = proxy.learner
    proxy.config.max_chain_depth = 1
    learn_now(learner, feed_transaction(), "u1", depth=1)  # would spawn depth 2
    assert learner.pending_count == 0
    # the depth bound is not a policy refusal
    assert proxy.prefetcher.skipped_policy == 0
    proxy.config.max_chain_depth = 2
    learn_now(learner, feed_transaction(), "u1", depth=1)
    assert learner.pending_count == 4


def test_refusal_is_counted_under_perf():
    proxy = idle_proxy(two_successor_analysis())
    proxy.config.disable("Beta#0", "off")
    with PERF.capture():
        learn_now(proxy.learner, feed_transaction(), "u1")
        assert PERF.get("learner.spawn_skipped") == 1
        assert PERF.get("learner.enqueued") == 2


def test_disabled_spawns_no_longer_evict_enabled_instances(monkeypatch):
    """The one intended difference: a disabled site takes no pending slot.

    Without the gate, Beta's instances (site disabled) fill the bounded
    pending set and evict Alpha's oldest; with it, every Alpha instance
    stays pending and completes once its token is learned.
    """
    monkeypatch.setattr(learning_module, "MAX_PENDING", 4)
    completed = {}
    for learner_cls in (DynamicLearner, SpawnEverythingLearner):
        analysis = two_successor_analysis()
        proxy = AccelerationProxy(
            Simulator(), OriginMap(), analysis, learner=learner_cls(analysis)
        )
        proxy.config.disable("Beta#0", "off")
        learner = proxy.learner
        learn_now(learner, feed_transaction(item_ids=("a1", "b2", "c3")), "u1")
        ready = learn_now(learner, teach_alpha_transaction(), "u1")
        completed[learner_cls] = sorted(r.request.body.get("cid") for r in ready)
    assert completed[DynamicLearner] == ["a1", "b2", "c3"]
    # Alpha a1, b2, c3 then Beta a1, b2, c3: Beta's spawns evicted the
    # two oldest Alpha instances
    assert completed[SpawnEverythingLearner] == ["c3"]


# -- the caps -----------------------------------------------------------------
class CountingRandom(random.Random):
    """A seeded RNG that counts its draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def spawned(prefetcher, user, replicas, site=SITE):
    """The replica indices one group spawns: none if the gate refuses."""
    room = prefetcher.spawn_gate(site, 1, user, 0)
    if not room:
        return []
    return list(prefetcher.spawn_replicas(room, replicas))


def test_cap_is_the_room_left_under_the_per_user_bound():
    _, _, prefetcher = make_prefetcher(bound=3)
    assert spawned(prefetcher, "u0", 5) == [0, 1, 2]
    prefetcher.submit(ready("/a"))
    assert spawned(prefetcher, "u0", 5) == [0, 1]
    prefetcher.submit(ready("/b"))
    prefetcher.submit(ready("/c"))
    prefetcher.skipped_bound = 0
    # a full user: the group is refused whole and counts once
    assert not prefetcher.spawn_gate(SITE, 1, "u0", 0)
    assert prefetcher.skipped_bound == 1
    # another user is not capped by u0's prefetches; each replica cut
    # from a group counts once
    assert spawned(prefetcher, "u1", 5) == [0, 1, 2]
    assert prefetcher.skipped_bound == 3


def test_unbounded_cache_without_admission_is_uncapped():
    _, _, prefetcher = make_prefetcher(bound=None)
    for path in ("/a", "/b", "/c"):
        prefetcher.submit(ready(path))
    assert spawned(prefetcher, "u0", 40) == list(range(40))


def test_warmup_cap_is_per_user_and_site():
    _, _, prefetcher = build_prefetcher(threshold=0.3, min_issued=2)
    prefetcher.submit(ready("/a", user="A"))
    assert spawned(prefetcher, "A", 5) == [0]
    assert spawned(prefetcher, "B", 5) == [0, 1]
    assert spawned(prefetcher, "A", 5, site="b#0") == [0, 1]
    prefetcher.submit(ready("/b", user="A"))
    prefetcher.skipped_admission = 0
    assert not prefetcher.spawn_gate(SITE, 1, "A", 0)
    assert prefetcher.skipped_admission == 1
    assert spawned(prefetcher, "B", 5) == [0, 1]
    assert prefetcher.skipped_admission == 4


def test_warmup_cuts_before_the_bound():
    _, _, prefetcher = build_prefetcher(threshold=0.3, min_issued=3, bound=2)
    assert spawned(prefetcher, "u0", 5) == [0, 1]
    # replicas 3 and 4 are past the warm-up cap, replica 2 past the bound
    assert (prefetcher.skipped_admission, prefetcher.skipped_bound) == (2, 1)


def test_a_passing_site_is_uncapped():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3)
    drive(sim, cache, prefetcher, used=4, wasted=6)
    prefetcher.rng = CountingRandom(7)
    room = prefetcher.spawn_gate(SITE, 1, "u0", 0)
    assert room
    assert list(prefetcher.spawn_replicas(room, 50)) == list(range(50))
    assert prefetcher.rng.draws == 0


def test_a_below_threshold_site_draws_one_coin_per_replica_at_spawn():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, explore=0.5)
    drive(sim, cache, prefetcher, wasted=10)
    prefetcher.rng = rng = CountingRandom(7)
    room = prefetcher.spawn_gate(SITE, 1, "u0", 0)
    assert room
    assert rng.draws == 0
    spawn = prefetcher.spawn_replicas(room, 40)
    assert rng.draws == 40
    assert 0 < len(spawn) < 40
    assert prefetcher.skipped_admission == 40 - len(spawn)
    outcomes = {prefetcher.submit(ready("/r{}".format(i))) for i in spawn}
    assert outcomes <= {"started", "queued"}
    assert rng.draws == 40, "submit drew a second coin"


def test_below_threshold_coins_come_before_the_bound():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, explore=0.5, bound=2)
    drive(sim, cache, prefetcher, wasted=10)
    prefetcher.rng = rng = CountingRandom(7)
    spawn = spawned(prefetcher, "u0", 40)
    # every replica draws; the bound keeps the first two winners
    assert rng.draws == 40 and len(spawn) == 2
    assert prefetcher.skipped_bound + prefetcher.skipped_admission == 38


# -- the learner spawns what the gate admits ------------------------------------
def bounded_proxy(bound, **config):
    proxy = AccelerationProxy(
        Simulator(),
        OriginMap(),
        two_successor_analysis(),
        cache=PrefetchCache(max_entries_per_user=bound),
    )
    for name, value in config.items():
        setattr(proxy.config, name, value)
    return proxy


def pending_items(learner):
    return sorted(
        (i.signature.site, i.dep_values["body.cid"]) for i in learner._pending
    )


def test_learner_spawns_the_first_replicas_up_to_the_cap():
    proxy = bounded_proxy(4)
    learner = proxy.learner
    learn_now(learner, feed_transaction(item_ids=("a1", "b2", "c3")), "u1")
    # the groups of one observation share one room: Alpha's three
    # replicas leave Beta one
    assert pending_items(learner) == [
        ("Alpha#0", "a1"), ("Alpha#0", "b2"), ("Alpha#0", "c3"), ("Beta#0", "a1"),
    ]
    assert proxy.prefetcher.skipped_bound == 2
    # replicas are aligned with the full list, not the capped one
    assert sorted(i.pred_context["id"] for i in learner._pending) == [
        "a1", "a1", "b2", "c3",
    ]


def test_a_group_with_no_room_left_by_earlier_groups_is_refused_whole():
    proxy = bounded_proxy(2)
    learner = proxy.learner
    with PERF.capture():
        learn_now(learner, feed_transaction(item_ids=("a1", "b2", "c3")), "u1")
        assert PERF.get("learner.spawn_skipped") == 1
    assert pending_items(learner) == [("Alpha#0", "a1"), ("Alpha#0", "b2")]
    # Alpha's c3 cut, Beta's group refused
    assert proxy.prefetcher.skipped_bound == 2


def test_pending_instances_of_earlier_observations_keep_no_bound_room():
    proxy = bounded_proxy(2)
    learner, prefetcher = proxy.learner, proxy.prefetcher
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    assert learner.pending_count == 2
    # pending, not open: the next observation gets the whole room
    assert prefetcher._spawn_caps("Alpha#0", "u1", 0).bound_left == 2
    learn_now(learner, feed_transaction(item_ids=("c3", "d4")), "u1")
    assert pending_items(learner) == [
        ("Alpha#0", "a1"), ("Alpha#0", "b2"), ("Alpha#0", "c3"), ("Alpha#0", "d4"),
    ]


def test_submit_backstops_refuse_what_filled_up_after_spawn():
    # the bound: two feeds spawn against the same empty room, and their
    # instances, pending across observations, complete into a full one
    proxy = bounded_proxy(2)
    learner = proxy.learner
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    learn_now(learner, feed_transaction(item_ids=("c3", "d4")), "u1")
    assert learner.pending_count == 4
    ready_list = learn_now(learner, teach_alpha_transaction(), "u1")
    outcomes = [proxy.prefetcher.submit(r) for r in ready_list]
    assert outcomes == ["started", "started", "skipped_bound", "skipped_bound"]

    # admission warm-up counts the pending instances too, so the second
    # feed is refused at spawn and submit has nothing left to refuse
    proxy = bounded_proxy(None, admission_threshold=0.3, admission_min_issued=2)
    learner = proxy.learner
    learn_now(learner, feed_transaction(item_ids=("a1", "b2", "c3")), "u1")
    assert proxy.prefetcher.skipped_admission == 2  # c3 of Alpha and Beta
    learn_now(learner, feed_transaction(item_ids=("d4",)), "u1")
    # d4's Alpha and Beta groups, one refusal each
    assert proxy.prefetcher.skipped_admission == 4
    assert learner.pending_count == 4
    ready_list = learn_now(learner, teach_alpha_transaction(), "u1")
    outcomes = [proxy.prefetcher.submit(r) for r in ready_list]
    assert outcomes == ["started", "started"]
    assert proxy.prefetcher.skipped_admission == 4


# -- warm-up room: open prefetches plus pending instances ------------------------
def warmup_room(proxy, site="Alpha#0", user="u1"):
    return proxy.prefetcher._spawn_caps(site, user, 0).warmup_left


def test_pending_instances_shrink_the_warmup_room():
    proxy = bounded_proxy(None, admission_threshold=0.3, admission_min_issued=3)
    learner = proxy.learner
    assert warmup_room(proxy) == 3
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    assert learner.pending_for("u1", "Alpha#0") == 2
    assert warmup_room(proxy) == 1
    # another user's pending instances take none of u1's room
    assert warmup_room(proxy, user="u2") == 3
    learn_now(learner, feed_transaction(item_ids=("c3", "d4", "e5")), "u1")
    assert pending_items(learner) == [
        ("Alpha#0", "a1"), ("Alpha#0", "b2"), ("Alpha#0", "c3"),
        ("Beta#0", "a1"), ("Beta#0", "b2"), ("Beta#0", "c3"),
    ]
    assert proxy.prefetcher.skipped_admission == 4  # d4 and e5, twice
    assert warmup_room(proxy) == 0


def test_a_completed_instance_is_charged_once():
    proxy = bounded_proxy(None, admission_threshold=0.3, admission_min_issued=3)
    learner, prefetcher = proxy.learner, proxy.prefetcher
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    ready_list = learn_now(learner, teach_alpha_transaction(), "u1")
    # completed: no longer pending, not yet open
    assert learner.pending_for("u1", "Alpha#0") == 0
    assert warmup_room(proxy) == 3
    assert [prefetcher.submit(r) for r in ready_list] == ["started", "started"]
    assert prefetcher.open_prefetches("u1", "Alpha#0") == 2
    assert warmup_room(proxy) == 1
    # the token is known now: the one replica with room builds at once
    ready_list = learn_now(learner, feed_transaction(item_ids=("c3", "d4", "e5")), "u1")
    assert [r.instance.dep_values["body.cid"] for r in ready_list] == ["c3"]
    assert learner.pending_for("u1", "Alpha#0") == 0
    assert [prefetcher.submit(r) for r in ready_list] == ["started"]
    assert prefetcher.open_prefetches("u1", "Alpha#0") == 3
    assert warmup_room(proxy) == 0


def test_eviction_at_max_pending_frees_its_room(monkeypatch):
    monkeypatch.setattr(learning_module, "MAX_PENDING", 2)
    proxy = bounded_proxy(None, admission_threshold=0.3, admission_min_issued=2)
    learner = proxy.learner
    # Alpha a1, b2 then Beta a1, b2: Beta's evict both Alpha instances
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    assert pending_items(learner) == [("Beta#0", "a1"), ("Beta#0", "b2")]
    assert warmup_room(proxy) == 2
    assert warmup_room(proxy, site="Beta#0") == 0
    learn_now(learner, feed_transaction(item_ids=("c3", "d4")), "u1")
    # Alpha spawns into the room eviction freed; Beta's group is refused
    assert pending_items(learner) == [("Alpha#0", "c3"), ("Alpha#0", "d4")]
    assert proxy.prefetcher.skipped_admission == 1
    assert warmup_room(proxy, site="Beta#0") == 2


@pytest.mark.parametrize(
    "used, wasted, explore", [(2, 0, 0.0), (0, 2, 1.0)], ids=["passing", "below"]
)
def test_pending_instances_do_not_cap_a_site_past_warmup(used, wasted, explore):
    proxy = bounded_proxy(
        None,
        admission_threshold=0.3,
        admission_min_issued=2,
        admission_explore=explore,
    )
    learner = proxy.learner
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    assert warmup_room(proxy) == 0
    proxy.cache.used_by_site["Alpha#0"] = used
    proxy.cache.wasted_by_site["Alpha#0"] = wasted
    assert warmup_room(proxy) is None
    learn_now(learner, feed_transaction(item_ids=("c3", "d4", "e5")), "u1")
    assert learner.pending_for("u1", "Alpha#0") == 5
    assert learner.pending_for("u1", "Beta#0") == 2  # still in warm-up


def test_an_instance_admitted_in_warmup_is_issued_after_its_site_falls_below():
    """Admission is decided once, at spawn: an instance spawned while
    its site was in warm-up is not judged again when it completes,
    though the site has fallen below its threshold by then."""
    proxy = bounded_proxy(
        None,
        admission_threshold=0.3,
        admission_min_issued=2,
        admission_explore=0.0,
    )
    learner, prefetcher = proxy.learner, proxy.prefetcher
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    assert learner.pending_for("u1", "Alpha#0") == 2
    proxy.cache.wasted_by_site["Alpha#0"] = 2
    assert prefetcher._standing("Alpha#0") == "below"
    prefetcher.rng = rng = CountingRandom(7)
    ready_list = learn_now(learner, teach_alpha_transaction(), "u1")
    assert [prefetcher.submit(r) for r in ready_list] == ["started", "started"]
    assert rng.draws == 0
    assert prefetcher.skipped_admission == 0
