"""The acceleration proxy in operation (§4.5, Fig. 10).

Per client request: serve from the prefetch cache when the request is
*identical* to a prefetched one and unexpired; otherwise forward to the
origin.  Every transaction — forwarded or served — feeds dynamic
learning, whose completed instances go to the prefetcher.

:class:`ProxiedTransport` is the client-side transport that routes the
device's traffic through the proxy over the access link, replacing
:class:`~repro.netsim.DirectTransport` in the accelerated topology.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.analysis.model import AnalysisResult
from repro.httpmsg.message import Request, Transaction
from repro.metrics.perf import PERF
from repro.metrics.trace import TRACER, TraceContext
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap, Transport
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig, default_config
from repro.proxy.learning import DynamicLearner
from repro.proxy.prefetcher import Prefetcher, origin_fetch

#: proxy-internal per-request processing time (lookup, learning)
PROXY_PROCESSING = 0.002


class AccelerationProxy:
    """One APPx-generated proxy instance for one target app."""

    def __init__(
        self,
        sim: Simulator,
        origins: OriginMap,
        analysis: AnalysisResult,
        config: Optional[ProxyConfig] = None,
        learner: Optional[DynamicLearner] = None,
        seed: int = 0,
        cache: Optional[PrefetchCache] = None,
        expiration=None,
    ) -> None:
        self.sim = sim
        self.origins = origins
        self.analysis = analysis
        self.config = config if config is not None else default_config(analysis)
        self.learner = learner if learner is not None else DynamicLearner(analysis)
        #: callers may inject a bounded cache (e.g. the scale harness
        #: caps per-user entries)
        self.cache = cache if cache is not None else PrefetchCache()
        self.prefetcher = Prefetcher(
            sim, origins, self.cache, self.config, self.learner, seed=seed
        )
        #: the policy flag, chain-depth bound, per-user bound and
        #: admission are decided at spawn: a replica that would not be
        #: sent is not built
        self.learner.spawn_gate = self.prefetcher.spawn_gate
        self.learner.spawn_replicas = self.prefetcher.spawn_replicas
        #: optional §4.3 online ExpirationEstimator; stores then use its
        #: learned per-signature TTLs instead of the configured default
        self.prefetcher.expiration = expiration
        self.served_prefetched = 0
        self.forwarded = 0
        self.client_bytes = 0
        self.server_bytes = 0  # demand (non-prefetch) proxy↔server bytes
        #: optional hook fired on every cache hit: (user, site, request)
        #: — used by the §5 refresher to track consumed prefetches
        self.on_cache_hit = None

    # ------------------------------------------------------------------
    def handle_request(
        self, request: Request, user: str, trace: Optional[TraceContext] = None
    ) -> Generator:
        """Process: Fig. 10's per-request workflow; returns Response.

        ``trace`` is an optional request-lifecycle trace context (one
        span per stage); when ``None`` and the global tracer is armed,
        this proxy begins (and finishes) its own.  Callers that begin
        the trace — e.g. :class:`~repro.proxy.multiapp.MultiAppProxy`
        — keep ownership and finish it themselves.
        """
        self.client_bytes += request.wire_size()
        owns_trace = trace is None and TRACER.enabled
        if owns_trace:
            trace = TRACER.begin(user)
            owns_trace = trace is not None
        span = trace.start_span("match") if trace is not None else None
        with PERF.stage("proxy.dispatch"):
            signature = self.learner.signature_for(request)
        site = signature.site if signature else None
        if span is not None:
            trace.end_span(span, signature=site or "")
        span = trace.start_span("cache_lookup") if trace is not None else None
        with PERF.stage("proxy.cache_lookup"):
            entry, lookup_outcome = self.cache.lookup(user, request, self.sim.now)
        started_at = self.sim.now
        if entry is not None:
            if span is not None:
                trace.end_span(span, outcome="hit", signature=site or "", shard=user)
            # decided at the lookup, before the entry can expire unread
            self.cache.serve(user, entry)
            yield Delay(PROXY_PROCESSING)
            self.served_prefetched += 1
            if site:
                self.cache.record_hit(site)
                if self.on_cache_hit is not None:
                    self.on_cache_hit(user, site, request)
            response = entry.response
            prefetched = True
        else:
            if trace is not None or PERF.enabled:
                cause = self._miss_cause(signature, user, lookup_outcome)
                if PERF.enabled:
                    PERF.incr("cache.miss." + cause)
                if span is not None:
                    trace.end_span(
                        span, outcome=cause, signature=site or "", shard=user
                    )
            if site and signature.is_successor:
                self.cache.record_miss(site)
            fetch_span = (
                trace.start_span("origin_fetch") if trace is not None else None
            )
            response, transferred = yield self.sim.spawn(
                origin_fetch(self.sim, self.origins, request, user)
            )
            if fetch_span is not None:
                trace.end_span(fetch_span, bytes=transferred, signature=site or "")
            self.server_bytes += transferred
            self.forwarded += 1
            prefetched = False
        self.client_bytes += response.wire_size()
        # §6.3 extension: record which items the client actually views,
        # so popularity policies can trim the prefetch long tail
        if signature is not None and signature.is_successor:
            self.prefetcher.popularity.record_request(signature, request)
        transaction = Transaction(
            request,
            response,
            started_at,
            self.sim.now,
            user=user,
            prefetched=prefetched,
        )
        with PERF.stage("proxy.learn"):
            self.learner.observe(transaction, user, depth=0, trace=trace)
        # learn from it now, at the sim instant the response is known:
        # completed prefetches submit before the response returns
        self.pump_learning(trace)
        if trace is not None:
            trace.tag("served", "prefetched" if prefetched else "origin")
            if owns_trace:
                TRACER.finish(trace)
        return response

    # ------------------------------------------------------------------
    def pump_learning(self, trace: Optional[TraceContext] = None) -> int:
        """Drain the learner's queue; submit completed prefetches
        (:meth:`~repro.proxy.prefetcher.Prefetcher.pump_learning`).

        No-op on an empty queue.  Returns the number of prefetches
        submitted.
        """
        return self.prefetcher.pump_learning(trace)

    def _miss_cause(
        self,
        signature,
        user: str,
        lookup_outcome: str,
    ) -> str:
        """Attribute one cache miss to its cause (§4.5 attribution).

        ``unmatched`` — no signature claims the request; ``not_successor``
        — the signature is never a prefetch target; ``disabled`` — the
        policy turned prefetching off for this site; ``miss_expired`` —
        a prefetched entry was present but past its TTL;
        ``wildcard_pending`` — the learner still holds an incomplete
        instance for this (user, site), i.e. a wildcard/field value had
        not been learned in time; ``miss_absent`` — nothing was ever
        prefetched for this exact request.
        """
        if signature is None:
            return "unmatched"
        if not signature.is_successor:
            return "not_successor"
        if not self.config.policy(signature.site).prefetch:
            return "disabled"
        if lookup_outcome == "miss_expired":
            return "miss_expired"
        if self.learner.has_pending(user, signature.site):
            return "wildcard_pending"
        return "miss_absent"

    # ------------------------------------------------------------------
    def total_server_bytes(self) -> int:
        """All proxy↔server traffic: demand plus prefetch."""
        return self.server_bytes + self.prefetcher.prefetch_bytes

    def stats(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "served_prefetched": self.served_prefetched,
            "forwarded": self.forwarded,
            "client_bytes": self.client_bytes,
            "server_bytes_demand": self.server_bytes,
            "server_bytes_total": self.total_server_bytes(),
            "cache_entries": len(self.cache),
        }
        data.update(self.prefetcher.stats())
        data["learner"] = self.learner.stats()
        if PERF.enabled:
            data["perf"] = PERF.snapshot()
        return data


class ProxiedTransport(Transport):
    """Client ↔ proxy ↔ origin: the accelerated topology."""

    def __init__(
        self, sim: Simulator, access_link: Link, proxy: AccelerationProxy
    ) -> None:
        self.sim = sim
        self.access_link = access_link
        self.proxy = proxy

    def send(self, request: Request, user: str) -> Generator:
        request_size = request.wire_size()
        yield Delay(self.access_link.transfer_delay(self.sim.now, request_size))
        response = yield self.sim.spawn(self.proxy.handle_request(request, user))
        response_size = response.wire_size()
        yield Delay(self.access_link.transfer_delay(self.sim.now, response_size))
        return response
