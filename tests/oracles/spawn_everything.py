"""A learner that spawns every successor, whatever the configuration says,
and a prefetcher that makes the spawn gate's decisions at submit.

:class:`repro.proxy.learning.DynamicLearner` asks the proxy's spawn gate
before it creates the instances of a successor, so a site whose policy
is off, a chain past the configured depth, or a replica that the
user's bound or the site's admission would refuse, is never built.
:class:`SpawnEverythingLearner` ignores the gate: it spawns, builds and
hands over every instance.  It also ignores the proxy's idle hook, so
it keeps learning and spawning when no successor site can be
prefetched at all.

:class:`repro.proxy.prefetcher.Prefetcher.submit` does not decide the
depth bound or admission again, so :class:`SpawnEverythingPrefetcher`
decides them at submit, in the order the gates ran before spawn took
them over: flag, depth, condition, popularity, then admission.  The
two together are what the gate must reproduce prefetch for prefetch.
"""

from __future__ import annotations

from typing import Optional

from repro.proxy.learning import DynamicLearner, ReadyPrefetch
from repro.proxy.popularity import item_key_for_instance
from repro.proxy.prefetcher import PASSING, WARMUP, Prefetcher


class SpawnEverythingLearner(DynamicLearner):
    """:class:`DynamicLearner` with the spawn gate switched off."""

    @property
    def spawn_gate(self):
        return None

    @spawn_gate.setter
    def spawn_gate(self, gate) -> None:
        """Drop the proxy's gate: the submit gates alone decide."""

    @property
    def spawn_replicas(self):
        return None

    @spawn_replicas.setter
    def spawn_replicas(self, pick) -> None:
        """Drop the proxy's replica pick with the gate."""

    @property
    def any_prefetchable(self):
        return None

    @any_prefetchable.setter
    def any_prefetchable(self, hook) -> None:
        """Drop the proxy's idle hook: learn whatever the flags say."""


class SpawnEverythingPrefetcher(Prefetcher):
    """:class:`Prefetcher` that refuses by depth and admission at submit."""

    skipped_depth = 0

    def submit(self, ready: ReadyPrefetch) -> str:
        refusal = self._refusal(ready)
        if refusal is None:
            return super().submit(ready)
        setattr(self, refusal, getattr(self, refusal) + 1)
        return refusal

    def _refusal(self, ready: ReadyPrefetch) -> Optional[str]:
        """``"skipped_depth"`` or ``"skipped_admission"`` where this
        prefetch reaches that gate and fails it; None where it passes
        both, or an earlier gate of :meth:`Prefetcher.submit` refuses
        it first."""
        instance = ready.instance
        site = instance.signature.site
        policy = self.config.policy(site)
        if not policy.prefetch:
            return None
        if instance.depth > self.config.max_chain_depth:
            return "skipped_depth"
        if policy.condition is not None and not policy.condition.evaluate(
            instance.pred_context
        ):
            return None
        if policy.popularity_top_k is not None and not self.popularity.allows(
            site, item_key_for_instance(instance), policy.popularity_top_k
        ):
            return None
        if not self._admitted(instance.user, site):
            return "skipped_admission"
        return None

    def _admitted(self, user: str, site: str) -> bool:
        """Does ``site`` still earn a prefetch for ``user``?

        A passing site does.  During warm-up each user may hold at most
        ``admission_min_issued`` open prefetches of the site.  A site
        below its threshold stops prefetching, except for an
        ``admission_explore`` fraction kept flowing so a recovered site
        can re-earn admission.
        """
        standing = self._standing(site)
        if standing == WARMUP:
            return self.open_prefetches(user, site) < self.config.admission_min_issued
        if standing == PASSING:
            return True
        return self.rng.random() < self.config.admission_explore
