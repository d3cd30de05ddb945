"""Prefetch issuing with priority scheduling (§4.5, §5).

Eligibility gates (§4.4): per-signature ``prefetch`` flag, probability
(per-signature × global), predecessor-field conditions, the chain-depth
bound, and the data-usage budget (C4).  The flag and the depth bound
depend only on site and depth, so :meth:`Prefetcher.spawn_gate` applies
them when the learner spawns a successor, before any instance is built;
:meth:`Prefetcher.submit` repeats them for sites disabled after spawn.
When more requests are ready than the concurrency limit allows, the
waiting queue is drained in priority order — a linear combination of
the signature's running-average origin response time and its cache hit
rate, exactly the §5 policy
("prioritize requests that take longer to complete and signatures that
generate higher hit rates").

Lazy epoch-stamped drain
------------------------
The seed re-ranked the *entire* waiting queue on every completed fetch
(rebuild + heapify: O(W) per drain), because a completion moves the §5
signals.  But priority is a per-*site* property, so the queue now keeps
one FIFO per site plus a heap holding at most one live head entry per
site, stamped with that site's *epoch*.  Whenever a site's priority
inputs move — its running-average response time (an observable dict) or
its hit rate (a cache stats listener) — the epoch bumps and a fresh
head entry is pushed eagerly; stale stamps are discarded on pop.  Each
drain step is O(log S) for S sites with queued work, and the pop order
is exactly the rebuild-drain's order: max current priority, FIFO on
ties (per-site FIFOs preserve sequence order, and every heap entry
carries its site's current head sequence).  The seed's
rebuild-everything drain lives on as the oracle in
``tests/oracles/rebuild_drain.py``; ``tests/test_prefetcher_drain_equiv.py``
replays recorded workloads through both and asserts identical issue
order.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.httpmsg.message import Request, Response, Transaction
from repro.metrics.perf import PERF
from repro.metrics.trace import TRACER
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig
from repro.proxy.learning import DynamicLearner, ReadyPrefetch
from repro.proxy.popularity import PopularityTracker, item_key_for_instance

#: §5 priority weights: seconds of origin RTT vs hit-rate fraction
TIME_WEIGHT = 1.0
HIT_RATE_WEIGHT = 0.5


class _ObservedDict(dict):
    """Dict that reports every key whose value is (re)assigned.

    ``avg_response_time`` is public state — tests and ablations assign
    into it directly — so priority invalidation hooks the container
    instead of trusting every caller to call a bump method.
    """

    __slots__ = ("_on_change",)

    def __init__(self, on_change: Callable[[str], None]) -> None:
        super().__init__()
        self._on_change = on_change

    def __setitem__(self, key: str, value: float) -> None:
        super().__setitem__(key, value)
        self._on_change(key)

    def __delitem__(self, key: str) -> None:
        super().__delitem__(key)
        self._on_change(key)

    def update(self, *args, **kwargs) -> None:  # keep observation complete
        for mapping in args:
            for key, value in dict(mapping).items():
                self[key] = value
        for key, value in kwargs.items():
            self[key] = value


def origin_fetch(
    sim: Simulator, origins: OriginMap, request: Request, user: str
) -> Generator:
    """Process: proxy → origin round trip; returns (response, bytes)."""
    endpoint = origins.endpoint_for(request)
    if endpoint is None:
        return Response(502), request.wire_size()
    link = origins.link_for(request)
    request_size = request.wire_size()
    yield Delay(link.transfer_delay(sim.now, request_size))
    response = yield sim.spawn(endpoint.handle(request, user))
    response_size = response.wire_size()
    yield Delay(link.transfer_delay(sim.now, response_size))
    return response, request_size + response_size


class Prefetcher:
    """Issues ready prefetch requests against the origin servers."""

    def __init__(
        self,
        sim: Simulator,
        origins: OriginMap,
        cache: PrefetchCache,
        config: ProxyConfig,
        learner: DynamicLearner,
        seed: int = 0,
        max_concurrent: int = 64,
    ) -> None:
        self.sim = sim
        self.origins = origins
        self.cache = cache
        self.config = config
        self.learner = learner
        self.rng = random.Random(seed)
        self.max_concurrent = max_concurrent
        #: ablation switch: False degrades the waiting queue to FIFO
        self._priority_enabled = True
        #: client-demand popularity per (site, item) — §6.3 extension
        self.popularity = PopularityTracker()
        self._active = 0
        self._sequence = 0
        #: waiting queues: per-site FIFO of (seq, ready), a heap of
        #: (-priority, head_seq, site, epoch) head entries, the current
        #: per-site epoch, and the total queued count
        self._site_fifos: Dict[str, Deque[Tuple[int, ReadyPrefetch]]] = {}
        self._site_heap: List[Tuple[float, int, str, int]] = []
        self._site_epoch: Dict[str, int] = {}
        self._waiting_count = 0
        self.stale_heap_entries = 0
        self._inflight: Set[Tuple[str, str]] = set()
        #: running average origin response time per signature site;
        #: assignment (from anywhere) invalidates that site's queued
        #: priority via the epoch
        self.avg_response_time: Dict[str, float] = _ObservedDict(self._bump_epoch)
        self._response_samples: Dict[str, int] = {}
        if hasattr(cache, "add_stats_listener"):
            cache.add_stats_listener(self._bump_epoch)
        self.prefetch_bytes = 0
        self.issued = 0
        self.issued_by_site: Dict[str, int] = {}
        self.success_by_site: Dict[str, int] = {}
        self.error_by_site: Dict[str, int] = {}
        #: one example request per site (verification probes reuse them)
        self.sample_requests: Dict[str, Request] = {}
        #: optional §4.3 online TTL learner (see proxy/expiration.py);
        #: when set, stores use its learned per-signature TTLs
        self.expiration = None
        self.skipped_policy = 0
        self.skipped_probability = 0
        self.skipped_budget = 0
        self.skipped_depth = 0
        self.skipped_duplicate = 0
        self.skipped_condition = 0
        self.skipped_popularity = 0
        self.skipped_admission = 0
        self.errors = 0

    # ------------------------------------------------------------------
    @property
    def priority_enabled(self) -> bool:
        return self._priority_enabled

    @priority_enabled.setter
    def priority_enabled(self, value: bool) -> None:
        if value != self._priority_enabled:
            self._priority_enabled = value
            # every queued site's effective priority just changed
            for site in list(self._site_fifos):
                self._bump_epoch(site)

    @property
    def waiting(self) -> int:
        """Requests queued behind the concurrency limit."""
        return self._waiting_count

    # ------------------------------------------------------------------
    def spawn_gate(self, site: str, depth: int) -> bool:
        """May the learner spawn instances of ``site`` at chain ``depth``?

        The two gates that depend only on site and depth, decided before
        anything is built: the chain-depth bound, then the signature's
        ``prefetch`` flag.  Both read the live config.  A policy refusal
        counts once in :attr:`skipped_policy` per refused successor
        group; a depth refusal counts nowhere, as the depth bound never
        let such an instance be spawned.  :meth:`submit` keeps both
        checks as the backstop for sites disabled after spawn.
        """
        if depth > self.config.max_chain_depth:
            return False
        if not self.config.policy(site).prefetch:
            self.skipped_policy += 1
            return False
        return True

    def submit(self, ready: ReadyPrefetch) -> str:
        """Apply the policy gates, then schedule (or queue) the fetch.

        The policy and depth checks are backstops here: a proxy's
        learner already applied them at spawn through
        :meth:`spawn_gate`, so they only reject instances whose site was
        disabled after they were spawned (§4.3 verification, the
        expiration estimator) or that a learner without the gate built.

        Returns the outcome — ``"started"``, ``"queued"`` (behind the
        concurrency limit), or the ``"skipped_*"`` gate that rejected
        the request — so callers (and trace spans) can attribute what
        happened to each ready prefetch.
        """
        if PERF.enabled:
            PERF.incr("prefetch.submitted")
        site = ready.instance.signature.site
        policy = self.config.policy(site)
        if not policy.prefetch:
            self.skipped_policy += 1
            return "skipped_policy"
        if ready.instance.depth > self.config.max_chain_depth:
            self.skipped_depth += 1
            return "skipped_depth"
        if policy.condition is not None and not policy.condition.evaluate(
            getattr(ready.instance, "pred_context", {})
        ):
            self.skipped_condition += 1
            return "skipped_condition"
        if policy.popularity_top_k is not None and not self.popularity.allows(
            site, item_key_for_instance(ready.instance), policy.popularity_top_k
        ):
            self.skipped_popularity += 1
            return "skipped_popularity"
        if not self._admitted(site):
            self.skipped_admission += 1
            return "skipped_admission"
        probability = self.config.effective_probability(site)
        if probability < 1.0 and self.rng.random() >= probability:
            self.skipped_probability += 1
            return "skipped_probability"
        if (
            self.config.data_budget_bytes is not None
            and self.prefetch_bytes >= self.config.data_budget_bytes
        ):
            self.skipped_budget += 1
            return "skipped_budget"
        key = (ready.instance.user, ready.request.exact_key())
        if key in self._inflight or self.cache.contains_fresh(
            ready.instance.user, ready.request, self.sim.now
        ):
            self.skipped_duplicate += 1
            return "skipped_duplicate"
        self._inflight.add(key)
        if self._active < self.max_concurrent:
            self._start(ready)
            return "started"
        self._sequence += 1
        self._enqueue_waiting(site, self._sequence, ready)
        if PERF.enabled:
            PERF.peak("prefetch.queue_peak", self.waiting)
        return "queued"

    def _admitted(self, site: str) -> bool:
        """Hit-rate-aware admission: does ``site`` still earn prefetches?

        Observed hit probability is cache hits over prefetches issued
        for the signature.  Below the governing threshold
        (per-policy ``min_hit_probability`` or the config-wide
        ``admission_threshold``) the signature stops prefetching —
        except for an ``admission_explore`` fraction kept flowing so a
        recovered signature can re-earn admission.  Signatures with
        fewer than ``admission_min_issued`` completed prefetches are
        always admitted (no evidence yet).
        """
        threshold = self.config.admission_threshold_for(site)
        if threshold is None or threshold <= 0.0:
            return True
        issued = self.issued_by_site.get(site, 0)
        if issued < self.config.admission_min_issued:
            return True
        observed = self.cache.hits.get(site, 0) / issued
        if observed >= threshold:
            return True
        return self.rng.random() < self.config.admission_explore

    def ttl_for(self, site: str, response: Optional[Response] = None) -> float:
        """TTL for storing a ``site`` response: learned, else configured."""
        if self.expiration is not None:
            learned = self.expiration.ttl_for(site, response)
            if learned is not None:
                return learned
        return self.config.policy(site).expiration_time

    def _priority(self, site: str) -> float:
        if not self._priority_enabled:
            return 0.0  # heap degenerates to submission order
        return (
            TIME_WEIGHT * self.avg_response_time.get(site, 0.0)
            + HIT_RATE_WEIGHT * self.cache.hit_rate(site)
        )

    # -- waiting-queue maintenance -------------------------------------
    def _enqueue_waiting(self, site: str, seq: int, ready: ReadyPrefetch) -> None:
        fifo = self._site_fifos.get(site)
        if fifo is None:
            fifo = self._site_fifos[site] = deque()
        fifo.append((seq, ready))
        self._waiting_count += 1
        if len(fifo) == 1:
            self._push_head(site)

    def _push_head(self, site: str) -> None:
        """Push ``site``'s current head with its current priority."""
        fifo = self._site_fifos.get(site)
        if fifo:
            heapq.heappush(
                self._site_heap,
                (
                    -self._priority(site),
                    fifo[0][0],
                    site,
                    self._site_epoch.get(site, 0),
                ),
            )

    def _bump_epoch(self, site: str) -> None:
        """A priority input for ``site`` moved: outdate its heap entry.

        Pushing the replacement *eagerly* (not on pop) is what keeps
        the drain order identical to the rebuild oracle — priorities
        can rise as well as fall, and a risen site buried under its old
        stamp would otherwise drain too late.
        """
        self._site_epoch[site] = self._site_epoch.get(site, 0) + 1
        if self._site_fifos.get(site):
            self._push_head(site)

    def _start(self, ready: ReadyPrefetch) -> None:
        self._active += 1
        self.sim.spawn(self._fetch(ready))

    # ------------------------------------------------------------------
    def _fetch(self, ready: ReadyPrefetch) -> Generator:
        site = ready.instance.signature.site
        user = ready.instance.user
        policy = self.config.policy(site)
        wire_request = ready.request.copy()
        for name, value in policy.add_header:
            wire_request.headers.add(name, value)
        started_at = self.sim.now
        # each background fetch is its own trace (kind="prefetch") —
        # it runs asynchronously, after the triggering request's trace
        # has already been filed
        trace = TRACER.begin(user, kind="prefetch") if TRACER.enabled else None
        if trace is not None:
            trace.tag("signature", site)
        try:
            span = trace.start_span("origin_fetch") if trace is not None else None
            response, transferred = yield self.sim.spawn(
                origin_fetch(self.sim, self.origins, wire_request, user)
            )
            if span is not None:
                trace.end_span(span, bytes=transferred, signature=site)
            self.prefetch_bytes += transferred
            self.issued += 1
            self.issued_by_site[site] = self.issued_by_site.get(site, 0) + 1
            if PERF.enabled:
                PERF.incr("prefetch.issued")
                PERF.registry.inc("prefetch_issued", labels={"signature": site})
            elapsed = self.sim.now - started_at
            self._record_response_time(site, elapsed)
            if site not in self.sample_requests:
                self.sample_requests[site] = ready.request.copy()
            if response.ok:
                self.success_by_site[site] = self.success_by_site.get(site, 0) + 1
                span = trace.start_span("store") if trace is not None else None
                self.cache.put(
                    user,
                    ready.request,
                    response,
                    site,
                    now=self.sim.now,
                    ttl=self.ttl_for(site, response),
                )
                if span is not None:
                    trace.end_span(span, signature=site)
                # chain prefetching (Fig. 3c): the prefetched response
                # may itself be a predecessor
                transaction = Transaction(
                    ready.request,
                    response,
                    started_at,
                    self.sim.now,
                    user=user,
                    prefetched=True,
                )
                self.learner.observe(
                    transaction, user, depth=ready.instance.depth, trace=trace
                )
                # learn now, so chain prefetches issue off this
                # background fetch instead of waiting for client traffic
                next_list = []
                if self.learner.learn_queue_depth:
                    span = (
                        trace.start_span("learn_drain")
                        if trace is not None
                        else None
                    )
                    with PERF.stage("proxy.learn_drain"):
                        next_list = self.learner.drain_learn_queue()
                    if span is not None:
                        trace.end_span(span, completed=len(next_list))
                for next_ready in next_list:
                    if trace is not None:
                        span = trace.start_span(
                            "prefetch_issue", site=next_ready.instance.signature.site
                        )
                        trace.end_span(span, outcome=self.submit(next_ready))
                    else:
                        self.submit(next_ready)
                if trace is not None:
                    trace.tag("ok", True)
            else:
                self.errors += 1
                self.error_by_site[site] = self.error_by_site.get(site, 0) + 1
                if trace is not None:
                    trace.tag("ok", False)
        finally:
            TRACER.finish(trace)
            self._inflight.discard((user, ready.request.exact_key()))
            self._active -= 1
            self._drain()
        return None

    def _record_response_time(self, site: str, elapsed: float) -> None:
        samples = self._response_samples.get(site, 0)
        current = self.avg_response_time.get(site, 0.0)
        self.avg_response_time[site] = (current * samples + elapsed) / (samples + 1)
        self._response_samples[site] = samples + 1

    def _drain(self) -> None:
        """Pop fresh head entries until the slots fill: O(log S) each."""
        heap = self._site_heap
        while self._active < self.max_concurrent and self._waiting_count:
            entry = heapq.heappop(heap)
            _, head_seq, site, epoch = entry
            if epoch != self._site_epoch.get(site, 0):
                self.stale_heap_entries += 1
                if PERF.enabled:
                    PERF.incr("prefetch.stale_heap_entries")
                continue
            fifo = self._site_fifos.get(site)
            if not fifo or fifo[0][0] != head_seq:
                # defensive: a live-epoch entry always names the head
                self.stale_heap_entries += 1
                continue
            _, ready = fifo.popleft()
            self._waiting_count -= 1
            if fifo:
                self._push_head(site)
            else:
                del self._site_fifos[site]
            self._start(ready)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "issued": self.issued,
            "errors": self.errors,
            "prefetch_bytes": self.prefetch_bytes,
            "skipped_policy": self.skipped_policy,
            "skipped_probability": self.skipped_probability,
            "skipped_budget": self.skipped_budget,
            "skipped_depth": self.skipped_depth,
            "skipped_duplicate": self.skipped_duplicate,
            "skipped_condition": self.skipped_condition,
            "skipped_popularity": self.skipped_popularity,
            "skipped_admission": self.skipped_admission,
        }
