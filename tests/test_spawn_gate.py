"""Spawn gate: the prefetch gates that need no built request are
applied when a successor group is spawned, not after its instances are
built.

``Prefetcher.spawn_gate`` refuses a successor whose site has
prefetching off, whose chain would pass ``max_chain_depth``, or whose
user has no room left under the per-user bound or the site's admission
warm-up cap; ``Prefetcher.spawn_replicas`` then picks the replicas, the
first ones up to the room left, drawing a below-threshold site's
explore coin once per replica.  The learner never creates, builds or submits the rest.
The differential tests run the same workloads with
:class:`SpawnEverythingLearner`, which builds every instance and leaves
every gate to ``Prefetcher.submit``, and assert the same issued
prefetches, served bytes and miss causes wherever no admission
threshold is set.  With one, a replica cut at spawn can no longer stand
in for an earlier replica that submit refuses as a duplicate, and the
explore coin moves from submit to spawn, so only the demand side stays
exact there.

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
from tests.oracles.spawn_everything import SpawnEverythingLearner
from tests.test_proxy_wake_index import (
    feed_transaction,
    teach_alpha_transaction,
    two_successor_analysis,
)
from tests.learn_helpers import learn_now
from tests.test_prefetch_bound import SITE, make_prefetcher, ready
from tests.test_prefetch_efficacy import build_prefetcher, drive


class Recording:
    """Issued prefetches, served responses and enqueued instances of one run."""

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
@pytest.fixture(scope="module")
def wish():
    return prepare_app("wish")


def run_wish(wish, learner_cls):
    """Launch, open an item, buy it; only the main sites prefetch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.experiments.scenario.DynamicLearner", learner_cls)
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
    gated, gated_run, gated_causes = run_wish(wish, DynamicLearner)
    oracle, oracle_run, oracle_causes = run_wish(wish, SpawnEverythingLearner)

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
    for learner_cls in (DynamicLearner, SpawnEverythingLearner):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.proxy.proxy.DynamicLearner", learner_cls)
            recordings[learner_cls] = Recording(mp)
            rows[learner_cls] = run_scale(
                users=40,
                duration=4.0,
                rate_per_user=1.0,
                seed=3,
                warm_start=True,
                collect_latencies=True,
                **options,
            )
    return (
        rows[DynamicLearner],
        rows[SpawnEverythingLearner],
        recordings[DynamicLearner],
        recordings[SpawnEverythingLearner],
    )


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
        return
    assert gated_run.issued == oracle_run.issued
    for key in ("prefetch_issued", "skipped_admission", "cache_stored", "origin_bytes"):
        assert gated[key] == oracle[key], key
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
    assert not learner.has_pending("u1", "Alpha#0")
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
    if not prefetcher.spawn_gate(site, 1, user):
        return []
    spawn, _ = prefetcher.spawn_replicas(site, user, replicas)
    return list(spawn)


def test_cap_is_the_room_left_under_the_per_user_bound():
    _, _, prefetcher = make_prefetcher(bound=3)
    assert spawned(prefetcher, "u0", 5) == [0, 1, 2]
    prefetcher.submit(ready("/a"))
    assert spawned(prefetcher, "u0", 5) == [0, 1]
    prefetcher.submit(ready("/b"))
    prefetcher.submit(ready("/c"))
    prefetcher.skipped_bound = 0
    # a full user: the group is refused whole and counts once
    assert not prefetcher.spawn_gate(SITE, 1, "u0")
    assert prefetcher.skipped_bound == 1
    # another user is not capped by u0's prefetches; each replica cut
    # from a group counts once
    spawn, explored = prefetcher.spawn_replicas(SITE, "u1", 5)
    assert list(spawn) == [0, 1, 2] and not explored
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
    assert not prefetcher.spawn_gate(SITE, 1, "A")
    assert prefetcher.skipped_admission == 1
    spawn, explored = prefetcher.spawn_replicas(SITE, "B", 5)
    assert list(spawn) == [0, 1] and not explored
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
    assert prefetcher.spawn_gate(SITE, 1, "u0")
    spawn, explored = prefetcher.spawn_replicas(SITE, "u0", 50)
    assert list(spawn) == list(range(50)) and not explored
    assert prefetcher.rng.draws == 0


def test_a_below_threshold_site_draws_one_coin_per_replica_at_spawn():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, explore=0.5)
    drive(sim, cache, prefetcher, wasted=10)
    prefetcher.rng = rng = CountingRandom(7)
    assert prefetcher.spawn_gate(SITE, 1, "u0")
    assert rng.draws == 0
    spawn, explored = prefetcher.spawn_replicas(SITE, "u0", 40)
    assert rng.draws == 40 and explored
    assert 0 < len(spawn) < 40
    assert prefetcher.skipped_admission == 40 - len(spawn)
    outcomes = set()
    for index in spawn:
        replica = ready("/r{}".format(index))
        replica.instance.explored = explored
        outcomes.add(prefetcher.submit(replica))
    assert outcomes <= {"started", "queued"}
    assert rng.draws == 40, "submit drew a second coin"
    # an instance spawned before the site fell below draws it at submit
    prefetcher.submit(ready("/late"))
    assert rng.draws == 41


def test_below_threshold_coins_come_before_the_bound():
    sim, cache, prefetcher = build_prefetcher(threshold=0.3, explore=0.5, bound=2)
    drive(sim, cache, prefetcher, wasted=10)
    prefetcher.rng = rng = CountingRandom(7)
    spawn, explored = prefetcher.spawn_replicas(SITE, "u0", 40)
    # every replica draws; the bound keeps the first two winners
    assert rng.draws == 40 and explored and len(spawn) == 2
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
    proxy = bounded_proxy(2)
    learner = proxy.learner
    learn_now(learner, feed_transaction(item_ids=("a1", "b2", "c3")), "u1")
    # the groups of one observation are each capped at the room left
    assert pending_items(learner) == [
        ("Alpha#0", "a1"), ("Alpha#0", "b2"), ("Beta#0", "a1"), ("Beta#0", "b2"),
    ]
    assert proxy.prefetcher.skipped_bound == 2
    # replicas are aligned with the full list, not the capped one
    assert sorted(i.pred_context["id"] for i in learner._pending) == [
        "a1", "a1", "b2", "b2",
    ]


def test_submit_backstops_refuse_what_filled_up_after_spawn():
    # the bound: two feeds spawn against the same empty room
    proxy = bounded_proxy(2)
    learner = proxy.learner
    learn_now(learner, feed_transaction(item_ids=("a1", "b2")), "u1")
    learn_now(learner, feed_transaction(item_ids=("c3", "d4")), "u1")
    ready_list = learn_now(learner, teach_alpha_transaction(), "u1")
    outcomes = [proxy.prefetcher.submit(r) for r in ready_list]
    assert outcomes == ["started", "started", "skipped_bound", "skipped_bound"]

    # admission warm-up: the same, per (user, site)
    proxy = bounded_proxy(None, admission_threshold=0.3, admission_min_issued=2)
    learner = proxy.learner
    learn_now(learner, feed_transaction(item_ids=("a1", "b2", "c3")), "u1")
    assert proxy.prefetcher.skipped_admission == 2  # c3 of Alpha and Beta
    learn_now(learner, feed_transaction(item_ids=("d4",)), "u1")
    ready_list = learn_now(learner, teach_alpha_transaction(), "u1")
    outcomes = [proxy.prefetcher.submit(r) for r in ready_list]
    assert outcomes == ["started", "started", "skipped_admission"]
