"""Spawn gate: the static prefetch gates are applied when a successor is
spawned, not after its instance is built.

``Prefetcher.spawn_gate`` refuses a successor whose site has prefetching
off or whose chain would pass ``max_chain_depth``, so the learner never
creates, builds or submits its instances.  The differential tests run
the same workloads with :class:`SpawnEverythingLearner`, which builds
every instance and leaves every gate to ``Prefetcher.submit``, and
assert the same issued prefetches, served bytes and miss causes.

The gate changes one behaviour on purpose.  Instances of disabled sites
no longer take pending slots, so at ``MAX_PENDING`` they cannot evict
instances of enabled sites any more;
``test_disabled_spawns_no_longer_evict_enabled_instances`` pins that.
"""

import pytest

from repro.experiments.scale import miss_causes_from_counters, run_scale
from repro.experiments.scenario import Scenario, prepare_app
from repro.metrics.perf import PERF
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy import learning as learning_module
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


@pytest.mark.parametrize(
    "strategy, options",
    [
        ("none", {}),
        ("appx", {"admission_threshold": 0.2, "estimate_expiration": True}),
    ],
)
def test_scale_shard_matches_spawn_everything(strategy, options):
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
                strategy=strategy,
                warm_start=True,
                collect_latencies=True,
                **options,
            )
    gated, oracle = rows[DynamicLearner], rows[SpawnEverythingLearner]
    gated_run = recordings[DynamicLearner]
    oracle_run = recordings[SpawnEverythingLearner]

    assert gated_run.served, "the shard must serve requests"
    assert gated_run.issued == oracle_run.issued
    assert gated_run.served == oracle_run.served
    for key in (
        "latencies_s",
        "miss_causes",
        "served_prefetched",
        "forwarded",
        "prefetch_issued",
        "skipped_admission",
        "cache_stored",
    ):
        assert gated[key] == oracle[key], key
    assert len(gated_run.enqueued) < len(oracle_run.enqueued)
    if strategy == "none":
        assert not gated_run.issued
        assert gated_run.enqueued == []


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
