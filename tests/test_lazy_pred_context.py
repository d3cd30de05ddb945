"""The lazy predecessor context equals the eager split, replica for replica.

A spawned group keeps its predecessor response and each instance splits
it into its Fig. 9 ``condition`` context on the first read of
``pred_context``.  :class:`EagerContextLearner` splits every replica's
context at spawn, as the learner used to.  Both serve the same recorded
shard; the contexts of every spawned instance must be equal, read here
only after the run, when every predecessor response has been served on.
"""

import pytest

from repro.experiments.scale import run_scale
from repro.proxy.instances import RequestInstance
from repro.proxy.learning import DynamicLearner
from tests.oracles.eager_context import EagerContextLearner
from tests.test_proxy_wake_index import two_successor_analysis


def spawned_contexts(learner_cls):
    """(site, user, dedupe key, context) of every instance the shard spawned."""
    spawned = []
    enqueue = DynamicLearner._enqueue

    def recording(learner, instance):
        spawned.append(instance)
        enqueue(learner, instance)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.proxy.proxy.DynamicLearner", learner_cls)
        mp.setattr(DynamicLearner, "_enqueue", recording)
        run_scale(
            users=20, duration=4.0, rate_per_user=1.0, seed=3, warm_start=True,
            admission_threshold=0.2,
        )
    return [
        (i.signature.site, i.user, i.dedupe_key(), i.pred_context) for i in spawned
    ]


def test_lazy_context_matches_the_eager_split():
    lazy = spawned_contexts(DynamicLearner)
    eager = spawned_contexts(EagerContextLearner)
    assert len(lazy) > 100, "the shard must spawn instances"
    assert lazy == eager
    # the split is exercised: some keys align with their replica
    by_group = {}
    for site, user, _, context in lazy:
        by_group.setdefault((site, user), set()).add(context.get("id"))
    assert any(len(ids) > 1 for ids in by_group.values())


def test_an_assigned_context_wins_and_no_group_reads_empty():
    learner = DynamicLearner(two_successor_analysis())
    instance = RequestInstance(learner._by_site["Alpha#0"], "u1")
    assert instance.pred_context == {}
    instance.pred_context = {"price": 5}
    assert instance.pred_context == {"price": 5}
