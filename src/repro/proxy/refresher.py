"""Periodic prefetch refresh (§5).

The paper's prefetching thread "determines whether to issue a request
according to the frequency specified in the configuration".  The
:class:`Refresher` is that loop: for the duration it runs, it
periodically re-issues each signature's known prefetch requests so the
cache stays fresh across expirations — useful for long-lived sessions
where a user returns to a page after the original prefetch went stale.

The refresh interval per signature defaults to half the policy's
expiration time (re-fetch before the entry can expire) and never drops
below ``min_interval``.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from repro.httpmsg.message import Request, Transaction
from repro.metrics.trace import TRACER
from repro.netsim.sim import Delay
from repro.proxy.prefetcher import origin_fetch
from repro.proxy.proxy import AccelerationProxy


class Refresher:
    """Keeps prefetched entries fresh for the time it runs."""

    def __init__(
        self,
        proxy: AccelerationProxy,
        min_interval: float = 5.0,
        max_requests_per_cycle: int = 64,
    ) -> None:
        self.proxy = proxy
        self.min_interval = min_interval
        self.max_requests_per_cycle = max_requests_per_cycle
        self.refreshed = 0
        self.cycles = 0
        self.purged = 0
        #: requests eligible for refresh: (user, site) -> Request
        self._known: Dict[Tuple[str, str], Request] = {}

    # ------------------------------------------------------------------
    def note_served(self, user: str, site: str, request: Request) -> None:
        """Remember a request worth keeping fresh (a proven cache hit).

        Install as ``proxy.on_cache_hit = refresher.note_served`` —
        refreshing only *consumed* prefetches avoids spending data on
        entries no user ever looked at.
        """
        self._known[(user, site)] = request.copy()

    @property
    def tracked(self) -> int:
        return len(self._known)

    def interval_for(self, site: str) -> float:
        expiration = self.proxy.config.policy(site).expiration_time
        return max(self.min_interval, expiration / 2.0)

    # ------------------------------------------------------------------
    def run(self, duration: float) -> Generator:
        """Simulator process: refresh cycles until ``duration`` elapses."""
        sim = self.proxy.sim
        started_at = sim.now
        last_refreshed: Dict[Tuple[str, str], float] = {}
        while sim.now - started_at < duration:
            yield Delay(self.min_interval)
            self.cycles += 1
            # long-lived sessions keep storing entries past their TTL;
            # sweep them each cycle so the cache holds only live ones
            # (timer-wheel backed: cost tracks expirations, not size)
            self.purged += self.proxy.cache.purge_expired(sim.now)
            issued = 0
            for (user, site), request in list(self._known.items()):
                if issued >= self.max_requests_per_cycle:
                    break
                interval = self.interval_for(site)
                last = last_refreshed.get((user, site), -1e18)
                if sim.now - last < interval:
                    continue
                if not self.proxy.config.policy(site).prefetch:
                    continue
                last_refreshed[(user, site)] = sim.now
                issued += 1
                yield sim.spawn(self._refresh_one(user, site, request))
        return self.refreshed

    def _refresh_one(self, user: str, site: str, request: Request) -> Generator:
        sim = self.proxy.sim
        started_at = sim.now
        # background refreshes trace as their own kind, so a postmortem
        # can tell refresh traffic from demand-triggered prefetches
        trace = TRACER.begin(user, kind="refresh") if TRACER.enabled else None
        if trace is not None:
            trace.tag("signature", site)
        span = trace.start_span("origin_fetch") if trace is not None else None
        response, transferred = yield sim.spawn(
            origin_fetch(sim, self.proxy.origins, request, user)
        )
        if span is not None:
            trace.end_span(span, bytes=transferred, signature=site)
        self.proxy.prefetcher.prefetch_bytes += transferred
        if response.ok:
            span = trace.start_span("store") if trace is not None else None
            self.proxy.cache.put(
                user, request, response, site,
                now=sim.now, ttl=self.proxy.prefetcher.ttl_for(site, response),
            )
            if span is not None:
                trace.end_span(span, signature=site)
            self.refreshed += 1
            # refreshed responses keep feeding the learner (chains)
            transaction = Transaction(
                request, response, started_at, sim.now, user=user, prefetched=True
            )
            self.proxy.learner.observe(transaction, user, depth=1, trace=trace)
            # learn now, so refresh-driven chains issue this cycle
            self.proxy.pump_learning(trace)
        TRACER.finish(trace)
        return None
