"""The idle learner: an app with no prefetchable successor site learns
nothing.

Only instance builds read the value store, the cookie jars and the
preferred variants, and the spawn gate refuses every instance of a site
whose ``prefetch`` flag is off.  So while
``Prefetcher.any_prefetchable`` says no, ``DynamicLearner.observe``
only counts the observation.  The differential test runs a recorded
shard with a learner that ignores the hook and asserts that, with one
site enabled, learning and serving are unchanged.
"""

import pytest

from repro.experiments.scale import _ScaleDeployment, run_scale
from repro.proxy.learning import DynamicLearner
from tests.learn_helpers import learn_now
from tests.test_proxy_wake_index import (
    feed_transaction,
    teach_alpha_transaction,
    two_successor_analysis,
)
from tests.test_spawn_gate import idle_proxy


def learned_state(learner):
    """Everything an observation can teach a learner."""
    store = learner.store
    return {
        "global_tags": dict(store._global_tags),
        "user_tags": dict(store._user_tags),
        "global_fields": dict(store._global_fields),
        "user_fields": dict(store._user_fields),
        "jars": {user: dict(jar._jar) for user, jar in learner._jars.items()},
        "variants": dict(learner.preferred_variant),
        "pending": list(learner._pending_keys),
    }


def cookie_feed_transaction():
    """The feed, answered with a session cookie."""
    transaction = feed_transaction()
    transaction.response.headers.add("Set-Cookie", "bsid=s1")
    return transaction


def test_every_site_disabled_learns_nothing():
    proxy = idle_proxy(two_successor_analysis())
    learner = proxy.learner
    assert learner.successor_sites == ("Alpha#0", "Beta#0")
    empty = learned_state(learner)
    proxy.config.disable("Alpha#0", "off")
    proxy.config.disable("Beta#0", "off")
    assert not proxy.prefetcher.any_prefetchable()

    assert learn_now(learner, cookie_feed_transaction(), "u1") == []
    assert learn_now(learner, teach_alpha_transaction(), "u1") == []

    assert learner.observed_count == 2
    assert learner.deferred_enqueued == 0
    assert learned_state(learner) == empty
    # no group was offered to the gate, so none was refused there
    assert proxy.prefetcher.skipped_policy == 0


def test_disabling_the_last_enabled_site_idles_from_the_next_observation():
    proxy = idle_proxy(two_successor_analysis())
    learner = proxy.learner
    proxy.config.disable("Beta#0", "off")
    assert learn_now(learner, cookie_feed_transaction(), "u1") == []
    assert learner.pending_count == 2  # Alpha, one per item
    before = learned_state(learner)
    assert before["jars"] == {"u1": {"https://api.test.com": {"bsid": "s1"}}}

    proxy.config.disable("Alpha#0", "off")
    assert learn_now(learner, teach_alpha_transaction(), "u1") == []
    assert learn_now(learner, feed_transaction(("c3",)), "u1") == []

    assert learner.observed_count == 3
    assert learner.deferred_enqueued == 1
    # env:config:alpha was not learned, so the pending Alpha instances
    # were neither completed nor joined by one for c3
    assert learned_state(learner) == before


def test_a_flag_turned_back_on_resumes_learning_at_the_next_observation():
    proxy = idle_proxy(two_successor_analysis())
    learner = proxy.learner
    for site in ("Alpha#0", "Beta#0"):
        proxy.config.disable(site, "off")
    learn_now(learner, teach_alpha_transaction("tok-1"), "u1")
    assert learner.store.tag_value("u1", "env:config:alpha") is None

    proxy.config.policy("Alpha#0").prefetch = True  # by hand, not disable()
    learn_now(learner, teach_alpha_transaction("tok-2"), "u1")
    assert learner.store.tag_value("u1", "env:config:alpha") == "tok-2"
    ready = learn_now(learner, feed_transaction(), "u1")
    assert sorted(r.instance.signature.site for r in ready) == ["Alpha#0"] * 2


def test_any_prefetchable_follows_disable():
    proxy = idle_proxy(two_successor_analysis())
    prefetcher = proxy.prefetcher
    assert prefetcher.any_prefetchable()
    proxy.config.disable("Alpha#0", "off")
    assert prefetcher.any_prefetchable()
    proxy.config.disable("Beta#0", "off")
    assert not prefetcher.any_prefetchable()


def test_a_site_that_is_never_a_successor_does_not_keep_learning_on():
    proxy = idle_proxy(two_successor_analysis())
    for site in ("Alpha#0", "Beta#0"):
        proxy.config.disable(site, "off")
    # Feed and TeachAlpha stay enabled, but nothing ever prefetches them
    assert proxy.config.policy("Feed#0").prefetch
    assert not proxy.prefetcher.any_prefetchable()


def test_a_learner_without_the_hook_always_learns():
    learner = DynamicLearner(two_successor_analysis())
    assert learner.any_prefetchable is None
    learn_now(learner, teach_alpha_transaction(), "u1")
    assert learner.store.tag_value("u1", "env:config:alpha") == "tok-A"


# -- differential: one site enabled on a recorded shard ----------------------
class AlwaysLearning(DynamicLearner):
    """:class:`DynamicLearner` that drops the proxy's idle hook."""

    @property
    def any_prefetchable(self):
        return None

    @any_prefetchable.setter
    def any_prefetchable(self, hook) -> None:
        """Ignore the hook: learn whatever the flags say."""


#: the one wish site left enabled; the feed refresh it prefetches is
#: spawned from the wish feed itself
KEPT_SITE = "FeedActivity.loadFeed#1"


def run_one_site_shard(learner_cls):
    """A warm wish + doordash shard with every site off but one of wish."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.proxy.proxy.DynamicLearner", learner_cls)
        deployment = _ScaleDeployment(("wish", "doordash"))
    for name, proxy in deployment.multi._apps:
        for site in list(proxy.config.policies):
            if not (name == "wish" and site == KEPT_SITE):
                proxy.config.disable(site, "one site enabled")
    row = run_scale(
        users=12, duration=6.0, rate_per_user=1.0, seed=3,
        apps=("wish", "doordash"), warm_start=True, collect_latencies=True,
        _deployment=deployment,
    )
    return row, dict(deployment.multi._apps)


def test_one_enabled_site_learns_and_serves_as_without_the_hook():
    row, proxies = run_one_site_shard(DynamicLearner)
    oracle_row, oracle_proxies = run_one_site_shard(AlwaysLearning)

    assert row["prefetch_issued"] > 0, "the kept site must prefetch"
    for key in (
        "latencies_s", "served_prefetched", "forwarded", "prefetch_issued",
        "cache_stored", "origin_bytes", "miss_causes", "prefetch_by_signature",
    ):
        assert row[key] == oracle_row[key], key
    wish, oracle_wish = proxies["wish"].learner, oracle_proxies["wish"].learner
    assert learned_state(wish) == learned_state(oracle_wish)
    assert wish.deferred_drained == oracle_wish.deferred_drained > 0
    # doordash has no prefetchable site: its learner only counted
    doordash = proxies["doordash"].learner
    oracle_doordash = oracle_proxies["doordash"].learner
    assert doordash.observed_count == oracle_doordash.observed_count > 0
    assert doordash.deferred_enqueued == 0
    assert oracle_doordash.deferred_enqueued > 0
    assert learned_state(doordash) == learned_state(DynamicLearner(doordash.analysis))


def test_passthrough_drains_no_observation():
    row = run_scale(
        users=12, duration=4.0, rate_per_user=1.0, seed=3, strategy="none",
        warm_start=True,
    )
    assert row["forwarded"] == row["requests"] > 0
    assert row["learn_deferred_drained"] == 0

