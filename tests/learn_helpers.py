"""Drive a learner the way every caller in the proxy does."""

from typing import List

from repro.proxy.learning import DynamicLearner, ReadyPrefetch


def learn_now(
    learner: DynamicLearner, transaction, user: str, depth: int = 0
) -> List[ReadyPrefetch]:
    """Observe ``transaction`` and drain: the prefetches it completed."""
    learner.observe(transaction, user, depth=depth)
    return learner.drain_learn_queue()
