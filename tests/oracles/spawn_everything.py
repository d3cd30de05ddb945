"""A learner that spawns every successor, whatever the configuration says.

:class:`repro.proxy.learning.DynamicLearner` asks the proxy's spawn gate
before it creates the instances of a successor, so a site whose policy
is off, a chain past the configured depth, or a replica that the
user's bound or the site's admission would refuse, is never built.
This learner ignores the gate: it spawns, builds and hands over every
instance, and leaves every gate to
:meth:`repro.proxy.prefetcher.Prefetcher.submit`.  That is what the
gate must reproduce prefetch for prefetch.  It also ignores the
proxy's idle hook, so it keeps learning and spawning when no successor
site can be prefetched at all.
"""

from __future__ import annotations

from repro.proxy.learning import DynamicLearner


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
