"""Prefetch issuing with priority scheduling (§4.5, §5).

Eligibility gates (§4.4): per-signature ``prefetch`` flag, probability
(per-signature × global), predecessor-field conditions, the chain-depth
bound, and the data-usage budget (C4).  A bounded cache adds one more:
a user holds at most ``max_entries_per_user`` *open* prefetches — in
flight, queued, or stored and not yet served — so nothing is issued
that the per-user LRU bound would evict unread.  With an admission
threshold, a site is judged by what its prefetches became (see
:meth:`Prefetcher._standing`).

Each prefetch gets one admission decision, made when the learner
spawns its successor group, before anything is extracted or built:
:meth:`Prefetcher.spawn_gate` refuses a group by the depth bound, the
flag, or a user with no room left under the per-user bound or the
site's warm-up cap, and otherwise hands the learner the group's
:class:`SpawnRoom`; :meth:`Prefetcher.spawn_replicas` then picks the
replicas to spawn from that room, the first ones up to the room left,
drawing a below-threshold site's explore coin once per replica.  The
bound's room is what the user's open prefetches and the replicas that
earlier groups of the same observation spawned leave, so the groups of
one observation share one room.  The warm-up room counts the user's
instances of the site that the learner still holds pending as well as
the open prefetches, so instances waiting for the same value cannot
all complete into a full warm-up cap.  :meth:`Prefetcher.submit`
applies only the gates that can change after spawn or that need the
built request; its bound check refuses what instances pending from
earlier observations complete into a full room.
When more requests are ready than the concurrency limit allows, the
waiting queue is drained in priority order — a linear combination of
the signature's running-average origin response time and its cache hit
rate, exactly the §5 policy
("prioritize requests that take longer to complete and signatures that
generate higher hit rates").

Site-scan drain
---------------
Priority is a per-*site* property, so waiting requests sit in one FIFO
per site.  Whenever a slot is free, the drain starts the head of the
queued site with the least ``(-priority, head_seq)``: the highest §5
priority as of now, FIFO on ties.  Priorities are read when the drain
runs, so nothing has to announce that one moved, and each step scans
only the sites holding queued work (a handful, however deep the
queue).  The seed re-ranked the *entire* waiting queue on every drain
instead; that rebuild drain lives on as the oracle in
``tests/oracles/rebuild_drain.py``, and
``tests/test_prefetcher_drain_equiv.py`` replays recorded workloads
through both and asserts identical issue order.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Generator, NamedTuple, Optional, Sequence, Set, Tuple

from repro.httpmsg.message import Request, Response, Transaction
from repro.metrics.perf import PERF
from repro.metrics.trace import TRACER, TraceContext
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig
from repro.proxy.learning import DynamicLearner, ReadyPrefetch
from repro.proxy.popularity import PopularityTracker, item_key_for_instance

#: §5 priority weights: seconds of origin RTT vs hit-rate fraction
TIME_WEIGHT = 1.0
HIT_RATE_WEIGHT = 0.5

#: what admission makes of a site (see :meth:`Prefetcher._standing`)
PASSING, WARMUP, BELOW = "passing", "warmup", "below"


class SpawnRoom(NamedTuple):
    """What one successor group may still spawn (see
    :meth:`Prefetcher.spawn_gate`)."""

    #: room left under the per-user bound (None: unbounded)
    bound_left: Optional[int]
    #: room left under the site's warm-up cap (None: not in warm-up)
    warmup_left: Optional[int]
    #: the site is judged below its admission threshold
    below: bool


def origin_fetch(
    sim: Simulator, origins: OriginMap, request: Request, user: str
) -> Generator:
    """Process: proxy → origin round trip; returns (response, bytes).

    The proxy spawns it (the call crosses into the simulated network);
    the origin handler runs inside it as a plain generator call.
    """
    endpoint = origins.endpoint_for(request)
    if endpoint is None:
        return Response(502), request.wire_size()
    link = origins.link_for(request)
    request_size = request.wire_size()
    yield Delay(link.transfer_delay(sim.now, request_size))
    response = yield from endpoint.handle(request, user)
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
        self.priority_enabled = True
        #: client-demand popularity per (site, item) — §6.3 extension
        self.popularity = PopularityTracker()
        self._active = 0
        self._sequence = 0
        #: waiting queues: per-site FIFO of (seq, ready), holding only
        #: sites with queued work, and the total queued count
        self._site_fifos: Dict[str, Deque[Tuple[int, ReadyPrefetch]]] = {}
        self._waiting_count = 0
        self._inflight: Set[Tuple[str, str]] = set()
        #: user -> site -> its open prefetches: admitted and not yet
        #: used or wasted (queued, awaiting the origin, or stored unread)
        self._open: Dict[str, Dict[str, int]] = {}
        cache.on_decided = self._close
        #: running average origin response time per signature site
        self.avg_response_time: Dict[str, float] = {}
        self._response_samples: Dict[str, int] = {}
        self.prefetch_bytes = 0
        self.issued = 0
        self.issued_by_site: Dict[str, int] = {}
        self.success_by_site: Dict[str, int] = {}
        self.error_by_site: Dict[str, int] = {}
        #: one example request per site (verification probes reuse them)
        self.sample_requests: Dict[str, Request] = {}
        #: ``config.disables`` when :meth:`any_prefetchable` last found a
        #: prefetchable site (None: it has not)
        self._prefetchable_at: Optional[int] = None
        #: optional §4.3 online TTL learner (see proxy/expiration.py);
        #: when set, stores use its learned per-signature TTLs
        self.expiration = None
        self.skipped_policy = 0
        self.skipped_probability = 0
        self.skipped_budget = 0
        self.skipped_duplicate = 0
        self.skipped_condition = 0
        self.skipped_popularity = 0
        self.skipped_admission = 0
        self.skipped_bound = 0
        self.errors = 0

    # ------------------------------------------------------------------
    @property
    def waiting(self) -> int:
        """Requests queued behind the concurrency limit."""
        return self._waiting_count

    # ------------------------------------------------------------------
    def spawn_gate(
        self, site: str, depth: int, user: str, spawned: int
    ) -> Optional[SpawnRoom]:
        """May the learner spawn a ``site`` successor group at chain
        ``depth`` for ``user``?  Its room if so, None if not.

        Asked before anything of the group is extracted or built.
        ``spawned`` is the number of replicas that earlier groups of the
        same observation spawned; they are not open yet, so the room
        charges them here (see :meth:`_spawn_caps`).  The chain-depth
        bound and the signature's ``prefetch`` flag refuse the site; a
        user with no room left under the per-user bound, or under the
        site's admission warm-up cap, refuses it too.  Reads the live
        config.  A refused group counts once: in :attr:`skipped_policy`
        for the flag, in :attr:`skipped_admission` or
        :attr:`skipped_bound` for no room, nowhere for the depth bound,
        which never let such an instance be spawned.  How many of an
        admitted group's replicas are spawned is
        :meth:`spawn_replicas`'s to decide, from the room returned here.
        """
        if depth > self.config.max_chain_depth:
            return None
        if not self.config.policy(site).prefetch:
            self.skipped_policy += 1
            return None
        room = self._spawn_caps(site, user, spawned)
        if room.warmup_left == 0:
            self.skipped_admission += 1
            return None
        if room.bound_left == 0:
            self.skipped_bound += 1
            return None
        return room

    def any_prefetchable(self) -> bool:
        """Can any successor site of the learner still be prefetched?

        Read from the policies' ``prefetch`` flags.  A yes is kept until
        the next :meth:`~repro.proxy.config.ProxyConfig.disable`, the
        only place that turns a flag off; a no is worked out afresh at
        each ask, so a flag turned back on by hand counts at once.
        The learner learns nothing while this says no.
        """
        config = self.config
        if self._prefetchable_at == config.disables:
            return True
        for site in self.learner.successor_sites:
            if config.policy(site).prefetch:
                self._prefetchable_at = config.disables
                return True
        return False

    def spawn_replicas(self, room: SpawnRoom, replicas: int) -> Sequence[int]:
        """Which of a group's ``replicas`` (list order) may be spawned.

        Asked after :meth:`spawn_gate` let the group through with its
        ``room`` and the learner counted its replicas.  Admission acts
        first: warm-up keeps the first replicas its cap can take, and a
        site judged below its threshold draws the explore coin once per
        replica and keeps the winners.  The per-user bound then keeps
        the first of those it can take.  Every replica left out counts
        once, in :attr:`skipped_admission` or :attr:`skipped_bound`.
        """
        bound_left, warmup_left, below = room
        spawn: Sequence[int] = range(
            replicas if warmup_left is None else min(replicas, warmup_left)
        )
        if below:
            explore = self.config.admission_explore
            spawn = [index for index in spawn if self.rng.random() < explore]
        self.skipped_admission += replicas - len(spawn)
        if bound_left is not None and len(spawn) > bound_left:
            self.skipped_bound += len(spawn) - bound_left
            spawn = spawn[:bound_left]
        return spawn

    def _spawn_caps(self, site: str, user: str, spawned: int) -> SpawnRoom:
        """``user``'s room for a ``site`` group, read once per group.

        The bound's room is what the user's open prefetches and the
        ``spawned`` replicas of earlier groups of the same observation
        leave.  Instances still pending from earlier observations are
        not charged: one that never builds would hold its room for
        good; :meth:`submit` refuses those that complete into a full
        room.  The warm-up room is what the user's open prefetches of
        ``site`` and the learner's pending instances of it leave: an
        instance still waiting for a value is spawned and not yet
        decided, and would overfill the warm-up cap once it completes.
        An instance that completes leaves the pending count before it
        is submitted, so it is never charged twice.  Each site is one
        group of an observation, so no replica of the same observation
        counts against its warm-up room."""
        bound = self.cache.max_entries_per_user
        bound_left = (
            None
            if bound is None
            else max(0, bound - self.open_prefetches(user) - spawned)
        )
        standing = self._standing(site)
        warmup_left = None
        if standing == WARMUP:
            warmup_left = max(
                0,
                self.config.admission_min_issued
                - self.open_prefetches(user, site)
                - self.learner.pending_for(user, site),
            )
        return SpawnRoom(bound_left, warmup_left, standing == BELOW)

    def submit(self, ready: ReadyPrefetch) -> str:
        """Apply the gates left after spawn, then schedule (or queue)
        the fetch.

        Admission, the depth bound and the warm-up cap were decided when
        the instance was spawned (:meth:`spawn_gate`,
        :meth:`spawn_replicas`) and are not decided again.  What is
        checked here can change after spawn or needs the built request:
        the ``prefetch`` flag (§4.3 verification or the expiration
        estimator may turn it off while the instance waits for a
        value), the predecessor condition, popularity, the probability
        coin, the data budget, duplicates, and the per-user bound.

        Returns the outcome — ``"started"``, ``"queued"`` (behind the
        concurrency limit), or the ``"skipped_*"`` gate that rejected
        the request — so callers (and trace spans) can attribute what
        happened to each ready prefetch.  ``"skipped_bound"`` refuses a
        user of a bounded cache who already holds
        ``max_entries_per_user`` open prefetches: an instance pending
        from an earlier observation whose room was taken while it
        waited.
        """
        if PERF.enabled:
            PERF.incr("prefetch.submitted")
        site = ready.instance.signature.site
        user = ready.instance.user
        policy = self.config.policy(site)
        if not policy.prefetch:
            self.skipped_policy += 1
            return "skipped_policy"
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
        key = (user, ready.request.exact_key())
        if key in self._inflight or self.cache.contains_fresh(
            user, ready.request, self.sim.now
        ):
            self.skipped_duplicate += 1
            return "skipped_duplicate"
        bound = self.cache.max_entries_per_user
        if bound is not None and self.open_prefetches(user) >= bound:
            self.skipped_bound += 1
            return "skipped_bound"
        self._inflight.add(key)
        sites = self._open.get(user)
        if sites is None:
            self._open[user] = {site: 1}
        else:
            sites[site] = sites.get(site, 0) + 1
        if self._active < self.max_concurrent:
            self._start(ready)
            return "started"
        self._sequence += 1
        self._enqueue_waiting(site, self._sequence, ready)
        if PERF.enabled:
            PERF.peak("prefetch.queue_peak", self.waiting)
        return "queued"

    def pump_learning(self, trace: Optional[TraceContext] = None) -> int:
        """Drain the learner's queue; submit completed prefetches.

        Runs right after every observation: a client request or a
        background fetch (chain prefetching, Fig. 3c).
        No-op on an empty queue.  Returns the number of prefetches
        submitted.
        """
        learner = self.learner
        if not learner.learn_queue_depth:
            return 0
        span = trace.start_span("learn_drain") if trace is not None else None
        ready_list = learner.drain_learn_queue(trace)
        if span is not None:
            trace.end_span(span, completed=len(ready_list))
        if trace is not None:
            for ready in ready_list:
                span = trace.start_span(
                    "prefetch_issue", site=ready.instance.signature.site
                )
                outcome = self.submit(ready)
                trace.end_span(span, outcome=outcome)
        else:
            for ready in ready_list:
                self.submit(ready)
        return len(ready_list)

    def open_prefetches(self, user: str, site: Optional[str] = None) -> int:
        """``user``'s open prefetches of ``site``, or of every site."""
        sites = self._open.get(user)
        if sites is None:
            return 0
        return sum(sites.values()) if site is None else sites.get(site, 0)

    def _close(self, user: str, site: str) -> None:
        """One open prefetch of ``user`` for ``site`` was used or wasted."""
        sites = self._open[user]
        left = sites[site] - 1
        if left:
            sites[site] = left
        elif len(sites) > 1:
            del sites[site]
        else:
            del self._open[user]

    def _standing(self, site: str) -> str:
        """Outcome-aware admission: what does ``site`` still earn?

        Each admitted prefetch gets one outcome: *used* at its cache
        entry's first hit, *wasted* when the entry leaves the cache
        unread or the fetch fails, *open* until then.  Until ``site``
        has ``admission_min_issued`` decided outcomes it is in
        :data:`WARMUP`; then it is judged by used / (used + wasted)
        against ``admission_threshold``: :data:`PASSING` at or above it,
        :data:`BELOW` under it.  Without a threshold every site passes.
        """
        threshold = self.config.admission_threshold
        if threshold is None or threshold <= 0.0:
            return PASSING
        cache = self.cache
        used = cache.used_by_site.get(site, 0)
        decided = (
            used
            + cache.wasted_by_site.get(site, 0)
            + self.error_by_site.get(site, 0)
        )
        if decided < self.config.admission_min_issued:
            return WARMUP
        return PASSING if used / decided >= threshold else BELOW

    def ttl_for(self, site: str, response: Optional[Response] = None) -> float:
        """TTL for storing a ``site`` response: learned, else configured."""
        if self.expiration is not None:
            learned = self.expiration.ttl_for(site, response)
            if learned is not None:
                return learned
        return self.config.policy(site).expiration_time

    def _priority(self, site: str) -> float:
        if not self.priority_enabled:
            return 0.0  # the drain degenerates to submission order
        return (
            TIME_WEIGHT * self.avg_response_time.get(site, 0.0)
            + HIT_RATE_WEIGHT * self.cache.hit_rate(site)
        )

    def _enqueue_waiting(self, site: str, seq: int, ready: ReadyPrefetch) -> None:
        fifo = self._site_fifos.get(site)
        if fifo is None:
            fifo = self._site_fifos[site] = deque()
        fifo.append((seq, ready))
        self._waiting_count += 1

    def _start(self, ready: ReadyPrefetch) -> None:
        self._active += 1
        self.sim.spawn(self._fetch(ready))

    # ------------------------------------------------------------------
    def _fetch(self, ready: ReadyPrefetch) -> Generator:
        site = ready.instance.signature.site
        user = ready.instance.user
        add_header = self.config.policy(site).add_header
        # the origin only reads the request (and notes its route
        # captures on it), so it gets the built request itself unless
        # the policy adds headers
        wire_request = ready.request.copy() if add_header else ready.request
        for name, value in add_header:
            wire_request.headers.add(name, value)
        started_at = self.sim.now
        # each background fetch is its own trace (kind="prefetch") —
        # it runs asynchronously, after the triggering request's trace
        # has already been filed
        trace = TRACER.begin(user, kind="prefetch") if TRACER.enabled else None
        if trace is not None:
            trace.tag("signature", site)
        stored = False
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
                    holds_slot=True,
                )
                # the entry holds the open slot until its outcome
                stored = True
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
                self.pump_learning(trace)
                if trace is not None:
                    trace.tag("ok", True)
            else:
                self.errors += 1
                self.error_by_site[site] = self.error_by_site.get(site, 0) + 1
                if trace is not None:
                    trace.tag("ok", False)
        finally:
            if not stored:
                self._close(user, site)  # a failed fetch is wasted
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
        """Start queued heads, best site first, while slots are free."""
        fifos = self._site_fifos
        while self._active < self.max_concurrent and fifos:
            site = min(fifos, key=lambda s: (-self._priority(s), fifos[s][0][0]))
            fifo = fifos[site]
            _, ready = fifo.popleft()
            self._waiting_count -= 1
            if not fifo:
                del fifos[site]
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
            "skipped_duplicate": self.skipped_duplicate,
            "skipped_condition": self.skipped_condition,
            "skipped_popularity": self.skipped_popularity,
            "skipped_admission": self.skipped_admission,
            "skipped_bound": self.skipped_bound,
        }
