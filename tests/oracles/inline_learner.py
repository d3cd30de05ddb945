"""The seed's learn-on-observe pipeline.

:class:`repro.proxy.learning.DynamicLearner` parks each observation in
its learn queue, and the caller runs the Fig. 6 pipeline for it in
:meth:`~repro.proxy.learning.DynamicLearner.drain_learn_queue`.  This
learner runs the pipeline inside :meth:`observe`, as the seed did, and
holds the completed prefetches until the caller drains.  Served bytes,
issued prefetches and every simulated outcome must not tell the two
apart.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

import repro.experiments.scenario
import repro.proxy.proxy
from repro.proxy.learning import DynamicLearner, ReadyPrefetch


class InlineLearner(DynamicLearner):
    """:class:`DynamicLearner` that learns inside :meth:`observe`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ready: List[ReadyPrefetch] = []

    def observe(self, transaction, user, depth=0, trace=None) -> None:
        self.observed_count += 1
        # the same ``learn`` span the shipped learner opens around its
        # match and enqueue, here around the match and the whole inline
        # pipeline, so the two learners' span:learn rows compare like
        # with like
        span = trace.start_span("learn") if trace is not None else None
        signature = self.matcher.match(transaction.request)
        self._ready.extend(
            self._process_observation(signature, transaction, user, depth, trace)
        )
        if span is not None:
            trace.end_span(span, signature=signature.site if signature else "")

    @property
    def learn_queue_depth(self) -> int:
        """Completed prefetches not yet handed over."""
        return len(self._ready)

    def drain_learn_queue(self, trace=None) -> List[ReadyPrefetch]:
        ready, self._ready = self._ready, []
        return ready


@contextmanager
def inline_learners() -> Iterator[List[InlineLearner]]:
    """Proxies and scenarios built in this block get an InlineLearner.

    Yields the list of learners built, so a caller can check that the
    oracle really served.
    """
    built: List[InlineLearner] = []

    def build(*args, **kwargs) -> InlineLearner:
        learner = InlineLearner(*args, **kwargs)
        built.append(learner)
        return learner

    modules = (repro.proxy.proxy, repro.experiments.scenario)
    for module in modules:
        module.DynamicLearner = build
    try:
        yield built
    finally:
        for module in modules:
            module.DynamicLearner = DynamicLearner
