"""Dynamic learning (§4.2, Figs. 6–8).

For every HTTP transaction the proxy observes it:

1. identifies the *learning target* by regex-matching the URI against
   the signature set;
2. when the target is a **successor**, learns run-time values from the
   actual message (wildcard captures → tag store, field values, which
   branch-variant the app used most recently) — Fig. 7 case 2;
3. when the target is a **predecessor**, extracts the dependency-source
   fields from the response and creates/fills successor request
   instances, replicated per list element — Fig. 7 case 1;
4. retries pending instances whose missing values may now be known.

Pending-instance wake index
---------------------------
An instance is built once at the drain after it is enqueued.  If that
build fails, the instance is filed in the wake index under the store
keys of the values it is missing — the tag and field keys of the plan
rows the build left unresolved (the build records them in
:attr:`~repro.proxy.instances.RequestInstance.missing`, so nothing is
resolved twice), plus its ``(user, site)`` variant key when the
signature has more than one variant; every key its signature reads when
the URI did not resolve or parse.  Values never leave the store and dep
bindings are frozen at spawn, so a resolved field stays resolved: a
drain retries exactly the instances under a key that fired since the
last drain, in enqueue order.  Live instances sit in one
insertion-ordered dict keyed by their dedupe key; at
:data:`MAX_PENDING` the first (oldest) is evicted.  Completion and
eviction remove an instance from its buckets, so the index holds only
live instances.
Which tags are per-user, and what an observed field teaches, is decided
once per signature in its :class:`~repro.proxy.instances.SignatureBuildPlan`.

Spawn gate
----------
Whether a site may be prefetched at all (its ``prefetch`` flag), how
deep a chain may go, how many more open prefetches the user's cache
bound can hold and how many the site's admission warm-up still allows
are known before an instance turns out to hold anything.  A proxy hands
the learner two hooks.  :attr:`DynamicLearner.spawn_gate` is asked once
per successor group of a predecessor observation, before any value is
extracted, and refuses the group outright (the flag, the depth bound,
or a user or warm-up with no room left).  Once the group's replicas are
counted, :attr:`DynamicLearner.spawn_replicas` picks which of them to
spawn (the first ones in list order, up to the room left, less those
that lose a below-threshold site's explore coin) and says whether they
won that coin, which the instance carries so that submit does not draw
it again.  Without a picker every replica is spawned.  A replica left
out costs nothing further: no instance, pending slot, build, wake
registration or submit.  Value learning, cookie tracking and preferred
variants still run for every site.

Cookie state is tracked per user (the §2 "user context"): responses'
``Set-Cookie`` headers update a per-user jar, and the ``env:cookie``
wildcard resolves to the jar's current header for the target origin,
so a prefetch built *after* a session cookie was issued matches the
client's next request even though no client request carried the new
cookie yet.

Learn queue
-----------
:meth:`observe` does the signature match and parks the observation in
a bounded learn queue; the full pipeline — value learning, cookie
tracking, successor spawning, the pending-instance drain — runs inside
:meth:`drain_learn_queue`.  Every caller drains before it yields: the
proxy before :meth:`~repro.proxy.proxy.AccelerationProxy.handle_request`
returns its response, the prefetcher after each background fetch, the
refresher after each refresh — all at the sim instant of the
observation.  So the queue holds at most the one observation just
parked (measured depth 1 across every benchmark workload) and the
drain runs on the response path.  What the split buys is a
``proxy.learn`` stage that times only match + enqueue, with the learn
work timed apart as ``proxy.learn_drain``.  A full queue drops the
observation (counted under ``learn.queue_overflow``) rather than ever
blocking; :attr:`DynamicLearner.learn_queue_capacity` is a safety bound
that no workload reaches.  The seed's learn-on-observe pipeline is the
differential oracle in ``tests/oracles/inline_learner.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.analysis.model import AnalysisResult
from repro.httpmsg.cookies import CookieJar
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.message import Request, Response, Transaction
from repro.metrics.perf import PERF
from repro.metrics.trace import TraceContext
from repro.proxy.instances import (
    RequestInstance,
    RuntimeSignature,
    SignatureMatcher,
    ValueStore,
    build_runtime_signatures,
)

MAX_PENDING = 10_000

#: default bound of the learn queue (observations, not bytes)
DEFAULT_LEARN_QUEUE_CAPACITY = 4096

class _QueuedObservation:
    """One observation parked for :meth:`DynamicLearner.drain_learn_queue`."""

    __slots__ = ("signature", "transaction", "user", "depth")

    def __init__(self, signature, transaction, user, depth) -> None:
        self.signature = signature
        self.transaction = transaction
        self.user = user
        self.depth = depth


class ReadyPrefetch:
    """A fully-resolved prefetch request handed to the prefetcher."""

    __slots__ = ("instance", "request")

    def __init__(self, instance: RequestInstance, request: Request) -> None:
        self.instance = instance
        self.request = request

    def __repr__(self) -> str:
        return "ReadyPrefetch({} {})".format(
            self.instance.signature.site, self.request.uri.to_string()
        )


class DynamicLearner:
    """Per-app learning state shared across users (with per-user
    isolation for user-bound values)."""

    def __init__(
        self,
        analysis: AnalysisResult,
        store: Optional[ValueStore] = None,
        static_only: bool = False,
        learn_queue_capacity: int = DEFAULT_LEARN_QUEUE_CAPACITY,
    ) -> None:
        self.analysis = analysis
        self.signatures = build_runtime_signatures(analysis)
        # Fig. 6 step 1: only signatures participating in a dependency
        # are interesting; the matcher still sees all of them so that
        # ambiguous URIs resolve to the most specific signature.
        self.matcher = SignatureMatcher(self.signatures)
        #: site → runtime signature, hoisted out of _spawn_successors
        #: (was rebuilt O(#signatures) per predecessor observation);
        #: anything that replaces ``self.signatures`` must rebuild it
        #: via :meth:`_index_signatures`
        self._by_site: Dict[str, RuntimeSignature] = {}
        self._index_signatures()
        #: safety bound of the learn queue; a full queue drops the
        #: observation and counts it in :attr:`queue_overflows`
        self.learn_queue_capacity = learn_queue_capacity
        self._learn_queue: Deque[_QueuedObservation] = deque()
        self.queue_overflows = 0
        self.deferred_enqueued = 0
        self.deferred_drained = 0
        self.store = store if store is not None else ValueStore()
        #: ``gate(site, depth, user) -> bool``, consulted once per
        #: successor group before any of its values is extracted; a
        #: proxy installs
        #: :meth:`~repro.proxy.prefetcher.Prefetcher.spawn_gate` (None:
        #: spawn every successor)
        self.spawn_gate: Optional[Callable[[str, int, str], bool]] = None
        #: ``spawn_replicas(site, user, replicas) -> (indices, explored)``:
        #: which replicas of a group the gate let through to spawn; a
        #: proxy installs
        #: :meth:`~repro.proxy.prefetcher.Prefetcher.spawn_replicas`
        #: (None: every replica)
        self.spawn_replicas: Optional[
            Callable[[str, str, int], Tuple[Sequence[int], bool]]
        ] = None
        #: ablation: a PALOMA-style proxy that uses only what static
        #: analysis provides — no run-time value learning.  Requests
        #: whose formats are fully determined at run time can then
        #: never be reconstructed (§7's comparison)
        self.static_only = static_only
        self.preferred_variant: Dict[Tuple[str, str], frozenset] = {}
        # pending-instance state: the live instances by dedupe key, in
        # enqueue order (so the first key is the eviction victim), and
        # the wake index mapping each store key to the live instances
        # missing a value under it (enqueue seq → instance), so learning
        # a value retries only the instances it can complete
        self._pending_keys: Dict[Tuple, RequestInstance] = {}
        #: live pending instances per (user, site) — backs the proxy's
        #: ``wildcard_pending`` miss-cause attribution in O(1)
        self._pending_sites: Dict[Tuple[str, str], int] = {}
        self._wake_index: Dict[Tuple, Dict[int, RequestInstance]] = {}
        self._woken: Dict[Tuple, None] = {}  # ordered set of fired keys
        self._fresh: List[RequestInstance] = []
        self._enqueue_seq = 0
        self._jars: Dict[str, CookieJar] = {}
        self.observed_count = 0
        self.wake_events = 0
        self.wake_retries = 0
        self.completed_count = 0
        self.store.add_listener(self._on_value_learned)

    # ------------------------------------------------------------------
    def _index_signatures(self) -> None:
        """(Re)build the site index over ``self.signatures``."""
        self._by_site = {s.site: s for s in self.signatures}

    def jar(self, user: str) -> CookieJar:
        if user not in self._jars:
            self._jars[user] = CookieJar()
        return self._jars[user]

    def signature_for(self, request: Request) -> Optional[RuntimeSignature]:
        return self.matcher.match(request)

    # ------------------------------------------------------------------
    def observe(
        self,
        transaction: Transaction,
        user: str,
        depth: int = 0,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """Match one observed transaction and park it for the drain.

        ``depth`` is the prefetch-chain depth of the transaction (0 for
        client traffic); instances it spawns get ``depth + 1``.
        ``trace`` (optional) collects a ``learn`` span around the
        enqueue.  The caller runs :meth:`drain_learn_queue` to learn
        from it and collect the completed prefetch requests.
        """
        self.observed_count += 1
        signature = self.matcher.match(transaction.request)
        # the matched signature rides along so the drain skips a second
        # (memoized, but still non-free) dispatch
        span = (
            trace.start_span("learn", signature=signature.site if signature else "")
            if trace is not None
            else None
        )
        if len(self._learn_queue) >= self.learn_queue_capacity:
            self.queue_overflows += 1
            if PERF.enabled:
                PERF.incr("learn.queue_overflow")
            if span is not None:
                trace.end_span(span, outcome="overflow")
            return
        self._learn_queue.append(
            _QueuedObservation(signature, transaction, user, depth)
        )
        self.deferred_enqueued += 1
        if PERF.enabled:
            PERF.peak("learn.queue_depth_peak", len(self._learn_queue))
        if span is not None:
            trace.end_span(span, outcome="enqueued")

    def _process_observation(
        self,
        signature: Optional[RuntimeSignature],
        transaction: Transaction,
        user: str,
        depth: int,
        trace: Optional[TraceContext] = None,
    ) -> List[ReadyPrefetch]:
        """The full Fig. 6 pipeline for one observed transaction."""
        if signature is None:
            self._track_cookies(transaction, user, signature)
            return []
        span = (
            trace.start_span("learn", signature=signature.site)
            if trace is not None
            else None
        )
        if not self.static_only:
            # case 2: the transaction is an actual example of this
            # signature
            self._learn_from_request(signature, transaction.request, user)
            # jar-derived cookie state must win over the request's
            # (already stale) Cookie header: the client's *next* request
            # will carry whatever Set-Cookie this response just issued
            self._track_cookies(transaction, user, signature)
        if span is not None:
            trace.end_span(span)
            span = trace.start_span("instantiate", signature=signature.site)
        ready: List[ReadyPrefetch] = []
        spawned = 0
        # case 1: predecessor — spawn successor instances
        if signature.is_predecessor and transaction.response.ok:
            for instance in self._spawn_successors(
                signature, transaction.response, user, depth
            ):
                self._enqueue(instance)
                spawned += 1
        # drain anything now resolvable (including older pending work)
        ready.extend(self._drain_pending())
        if span is not None:
            trace.end_span(span, spawned=spawned, completed=len(ready))
        return ready

    # ------------------------------------------------------------------
    # learn queue
    # ------------------------------------------------------------------
    @property
    def learn_queue_depth(self) -> int:
        """Observations parked for :meth:`drain_learn_queue`."""
        return len(self._learn_queue)

    def drain_learn_queue(
        self, trace: Optional[TraceContext] = None
    ) -> List[ReadyPrefetch]:
        """Run the learn pipeline for every parked observation.

        Observations process in arrival order.  Returns the completed
        prefetch requests, in completion order, for the caller to hand
        to the prefetcher.  ``trace`` (optional) collects each
        observation's ``learn`` and ``instantiate`` spans.
        """
        queue = self._learn_queue
        if not queue:
            return []
        ready: List[ReadyPrefetch] = []
        drained = 0
        while queue:
            queued = queue.popleft()
            drained += 1
            ready.extend(
                self._process_observation(
                    queued.signature,
                    queued.transaction,
                    queued.user,
                    queued.depth,
                    trace,
                )
            )
        self.deferred_drained += drained
        if PERF.enabled:
            PERF.incr("learn.deferred_drained", drained)
        return ready

    # ------------------------------------------------------------------
    # learning from an observed request (successor routine)
    # ------------------------------------------------------------------
    def _learn_from_request(
        self, signature: RuntimeSignature, request: Request, user: str
    ) -> None:
        # every scope and learn action below was decided once, when the
        # signature's build plan was made
        plan = signature.build_plan
        store = self.store
        # URI wildcards: match with capture groups, learn tag values
        base_uri = request.uri.origin() + request.uri.path
        matched = signature.uri_matcher.pattern.fullmatch(base_uri)
        if matched is not None:
            for group, tag, per_user in plan.uri_captures:
                store.learn_scoped_tag(
                    user if per_user else None, tag, matched.group(group) or ""
                )
        # field values + the variant actually present
        present: List[str] = []
        for row in plan.rows:
            values = row.path.extract(request)
            if not values:
                continue
            present.append(row.path_string)
            if row.has_dep:
                continue  # dependency-derived: per-instance, never cached
            value = str(values[0])
            store.learn_field(user, signature.site, row.path_string, value, row.per_user)
            if row.single_tag is not None:
                store.learn_scoped_tag(
                    user if row.per_user else None, row.single_tag, value
                )
        variant = frozenset(present)
        if variant in signature.variants_set:
            slot = (user, signature.site)
            if self.preferred_variant.get(slot) != variant:
                self.preferred_variant[slot] = variant
                # a new preferred variant can complete an instance even
                # without new store values — wake the (user, site) pair
                self._on_value_learned(("variant", user, signature.site))

    def _track_cookies(
        self,
        transaction: Transaction,
        user: str,
        signature: Optional[RuntimeSignature],
    ) -> None:
        origin = transaction.request.uri.origin()
        jar = self.jar(user)
        jar.store_from_response(origin, transaction.response)
        # follow the client's session: signatures that send a Cookie
        # header will send the *updated* jar contents next time
        if signature is not None and signature.build_plan.sends_cookie:
            # env:cookie is a per-user tag
            self.store.learn_scoped_tag(user, "env:cookie", jar.cookie_header(origin))

    # ------------------------------------------------------------------
    # predecessor routine: replicate successor instances per value
    # ------------------------------------------------------------------
    def _spawn_successors(
        self,
        signature: RuntimeSignature,
        response: Response,
        user: str,
        depth: int,
    ) -> List[RequestInstance]:
        succ_depth = depth + 1
        gate = self.spawn_gate
        pick = self.spawn_replicas
        instances: List[RequestInstance] = []
        # predecessor response parsing is shared across edges/successors:
        # each distinct pred_path is extracted once per transaction (two
        # edges sourcing body.items[].id reuse one walk) and the scalar
        # context is flattened lazily, once, instead of per successor
        extract_memo: Dict[str, List] = {}
        context: Optional[Dict[str, List]] = None
        for succ_site, edges in signature.out_edges.items():
            successor = self._by_site.get(succ_site)
            if successor is None:
                continue
            if gate is not None and not gate(succ_site, succ_depth, user):
                # never sent: no value extracted, no instance, pending
                # slot, build or submit
                if PERF.enabled:
                    PERF.incr("learner.spawn_skipped")
                continue
            extracted: List[Tuple[FieldPath, List]] = []
            for edge in edges:
                pred_key = edge.pred_path.to_string()
                values = extract_memo.get(pred_key)
                if values is None:
                    values = edge.pred_path.extract(response)
                    extract_memo[pred_key] = values
                if values:
                    extracted.append((edge.succ_path, values))
            if not extracted:
                continue
            replica_count = max(len(values) for _, values in extracted)
            spawn: Sequence[int] = range(replica_count)
            explored = False
            if pick is not None:
                spawn, explored = pick(succ_site, user, replica_count)
                if not spawn:
                    continue
            if context is None:
                context = _scalar_fields(response)
            # split the context once per successor group: keys whose
            # value list aligns 1:1 with the replicas index per replica,
            # everything else shares its first value
            aligned = []
            shared = {}
            for key, values in context.items():
                if len(values) == replica_count:
                    aligned.append((key, values))
                else:
                    shared[key] = values[0]
            for index in spawn:
                instance = RequestInstance(
                    successor, user, depth=succ_depth, trigger_site=signature.site
                )
                for succ_path, values in extracted:
                    value = values[index] if index < len(values) else values[0]
                    instance.fill(succ_path, value)
                # predecessor context for condition policies (Fig. 9):
                # scalar fields aligned with this replica where possible
                pred_context = dict(shared)
                for key, values in aligned:
                    pred_context[key] = values[index]
                instance.pred_context = pred_context
                instance.explored = explored
                instances.append(instance)
        return instances

    # ------------------------------------------------------------------
    # pending-instance management (wake index)
    # ------------------------------------------------------------------
    def _on_value_learned(self, key: Tuple) -> None:
        """Store/variant listener: mark ``key`` for the next drain."""
        self.wake_events += 1
        self._woken[key] = None

    def _is_live(self, instance: RequestInstance) -> bool:
        return self._pending_keys.get(instance.pending_key) is instance

    def has_pending(self, user: str, site: str) -> bool:
        """Is some instance of ``site`` for ``user`` still incomplete?"""
        return (user, site) in self._pending_sites

    def _forget_pending(self, instance: RequestInstance) -> None:
        """Drop ``instance`` from the per-(user, site) pending index."""
        slot = (instance.user, instance.signature.site)
        remaining = self._pending_sites.get(slot, 0) - 1
        if remaining > 0:
            self._pending_sites[slot] = remaining
        else:
            self._pending_sites.pop(slot, None)

    def _wake_keys(self, instance: RequestInstance) -> Tuple:
        """The store/variant keys whose learning can complete
        ``instance`` after a failed build.

        Only the keys of the plan rows the build left unresolved: a
        value never leaves the store and dep bindings are frozen at
        spawn, so a resolved field stays resolvable.  When the URI did
        not resolve or parse, every key the instance reads.  The
        ``(user, site)`` variant key joins when the signature has more
        than one variant, since a new preferred variant can complete an
        instance without any new value.
        """
        plan = instance.signature.build_plan
        rows = instance.missing
        if rows is None:
            rows = [plan.uri] + plan.rows
        user = instance.user
        site = plan.signature.site
        keys: Dict[Tuple, None] = {}
        for row in rows:
            for key in row.wake_keys(user, site):
                keys[key] = None
        if plan.multi_variant:
            keys[("variant", user, site)] = None
        return tuple(keys)

    def _register(self, instance: RequestInstance) -> None:
        """File ``instance`` under the keys of the values it is missing."""
        keys = self._wake_keys(instance)
        instance.wake_keys = keys
        seq = instance.pending_seq
        index = self._wake_index
        for key in keys:
            bucket = index.get(key)
            if bucket is None:
                index[key] = {seq: instance}
            else:
                bucket[seq] = instance

    def _unregister(self, instance: RequestInstance) -> None:
        """Drop a completed or evicted ``instance`` from its buckets."""
        keys = instance.wake_keys
        if keys is None:
            return
        instance.wake_keys = None
        seq = instance.pending_seq
        index = self._wake_index
        for key in keys:
            bucket = index[key]
            del bucket[seq]
            if not bucket:
                del index[key]

    def _enqueue(self, instance: RequestInstance) -> None:
        key = instance.dedupe_key()
        if key in self._pending_keys:
            return
        pending = self._pending_keys
        while len(pending) >= MAX_PENDING:
            dropped = pending.pop(next(iter(pending)))
            self._forget_pending(dropped)
            self._unregister(dropped)
        self._enqueue_seq += 1
        instance.pending_seq = self._enqueue_seq
        instance.pending_key = key
        pending[key] = instance
        slot = (instance.user, instance.signature.site)
        self._pending_sites[slot] = self._pending_sites.get(slot, 0) + 1
        # not registered yet: the first build (at the next drain) tells
        # which values the instance is actually missing
        self._fresh.append(instance)
        if PERF.enabled:
            PERF.incr("learner.enqueued")

    def _drain_pending(self) -> List[ReadyPrefetch]:
        """Retry the instances a learned value could have completed.

        Only freshly enqueued instances and those registered under a
        key that fired since the last drain are rebuilt — the seed
        rescanned the entire pending list on every observation.  A
        fresh instance that fails its first build is registered under
        the keys of the values it is missing.
        """
        ready: List[ReadyPrefetch] = []
        if not self._fresh and not self._woken:
            return ready
        candidates: Dict[int, RequestInstance] = {}
        for instance in self._fresh:
            if self._is_live(instance):  # may have been evicted since
                candidates[instance.pending_seq] = instance
        self._fresh = []
        if self._woken:
            index = self._wake_index
            for wake_key in self._woken:
                bucket = index.get(wake_key)
                if bucket is not None:
                    candidates.update(bucket)
            self._woken.clear()
        # retry in enqueue order so completions surface exactly as the
        # seed's full-list scan surfaced them
        for seq in sorted(candidates):
            instance = candidates[seq]
            preferred = self.preferred_variant.get(
                (instance.user, instance.signature.site)
            )
            self.wake_retries += 1
            if PERF.enabled:
                PERF.incr("learner.wake_retries")
            request = instance.try_build(self.store, preferred)
            if request is not None:
                ready.append(ReadyPrefetch(instance, request))
                del self._pending_keys[instance.pending_key]
                self._forget_pending(instance)
                self._unregister(instance)
                self.completed_count += 1
            elif instance.wake_keys is None:
                self._register(instance)
        return ready

    @property
    def _pending(self) -> List[RequestInstance]:
        """Live pending instances in enqueue order (compat view)."""
        return list(self._pending_keys.values())

    @property
    def pending_count(self) -> int:
        return len(self._pending_keys)

    def stats(self) -> Dict[str, int]:
        data = {
            "observed": self.observed_count,
            "pending": self.pending_count,
            "pending_sites": len(self._pending_sites),
            "completed": self.completed_count,
            "wake_events": self.wake_events,
            "wake_retries": self.wake_retries,
            "wake_keys": len(self._wake_index),
            "learn_queue_depth": len(self._learn_queue),
            "deferred_enqueued": self.deferred_enqueued,
            "deferred_drained": self.deferred_drained,
            "queue_overflows": self.queue_overflows,
        }
        if PERF.enabled:
            data["perf"] = PERF.snapshot()
        return data


def _scalar_fields(response: Response) -> Dict[str, List]:
    """Flatten a JSON response body to {leaf key: [values...]}.

    Used as the predecessor context for condition policies: keys keep
    only their last path component (``price``), values accumulate in
    document order so per-element alignment is possible.
    """
    from repro.httpmsg.body import JsonBody

    fields: Dict[str, List] = {}
    if not isinstance(response.body, JsonBody):
        return fields

    def walk(node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if isinstance(value, (dict, list)):
                    walk(value)
                else:
                    fields.setdefault(key, []).append(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(response.body.value)
    return fields
