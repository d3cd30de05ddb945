"""Prefetched-response cache (§4.5).

Keyed by the *exact* request (method + URI + headers + body digest) and
isolated per user — §2: "the proxy keeps track of user contexts and
manages prefetched response per user separately"; §4.5: "the proxy
sends the response only when the prefetch request is identical to the
client's request".  Entries carry an expiration time (§4.4 policy) and
per-signature hit statistics feed the prefetch priority (§5).

Serving-scale layout
--------------------
The store is *sharded by user*: one inner dict per user keyed by
``exact_key``, so lookup, insert, and ``entries_for_user`` touch only
that user's shard, and one min-heap of ``(expires_at, seq, ...)``
records every store so ``purge_expired(now)`` pops only what the clock
has passed — per-request cost stays flat as the user population grows.
The one optional bound, ``max_entries_per_user``, evicts the user's
least-recently-used entries when a deployment must cap memory.  The
seed's flat ``(user, exact_key)`` table with full-scan purge lives on
as the oracle in ``tests/oracles/flat_cache.py``: unbounded, the two
agree on every observable result (``tests/test_proxy_cache_scale.py``).

Each stored entry gets one outcome.  Its first hit (:meth:`serve`)
makes it *used* (per-site in ``used_by_site``, credited to the entry's
own site however often it is hit); leaving the cache — evicted, expired
or overwritten — before that first hit makes it *wasted* (per-site in
``wasted_by_site``).  These are the counts the prefetcher's admission
gate and offline audits run on.  An entry stored with
``holds_slot=True`` holds one of its user's open-prefetch slots in the
prefetcher; deciding its outcome tells ``on_decided(user, site)``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.httpmsg.message import Request, Response
from repro.metrics.perf import PERF


class CacheEntry:
    __slots__ = (
        "response", "site", "fetched_at", "expires_at", "served", "holds_slot"
    )

    def __init__(
        self,
        response: Response,
        site: str,
        fetched_at: float,
        expires_at: float,
        holds_slot: bool = False,
    ) -> None:
        self.response = response
        self.site = site
        self.fetched_at = fetched_at
        self.expires_at = expires_at
        self.served = False
        self.holds_slot = holds_slot

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def __repr__(self) -> str:
        return "CacheEntry({}, expires_at={:.1f})".format(self.site, self.expires_at)


class PrefetchCache:
    """Per-user exact-match response cache with expiry.

    ``max_entries_per_user`` bounds each user's shard with LRU
    eviction; unbounded is the default and keeps insertion order as
    every observable order.
    """

    def __init__(self, max_entries_per_user: Optional[int] = None) -> None:
        self.max_entries_per_user = max_entries_per_user
        #: user -> {exact_key -> entry}; dict insertion order doubles
        #: as per-user LRU order (touched on bounded hits)
        self._shards: Dict[str, Dict[str, CacheEntry]] = {}
        #: (expires_at, seq, user, exact, entry) per store; ``seq``
        #: keeps equal expiries in store order and entries uncompared
        self._expiry: List[Tuple[float, int, str, str, CacheEntry]] = []
        self._count = 0  # live entries across all shards
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.expired_evictions = 0
        self.lru_evictions = 0
        self.purged = 0
        self.stored = 0
        #: entries that served at least one hit, counted at the first
        self.used = 0
        self.used_by_site: Dict[str, int] = {}
        #: entries that left the cache (evicted, expired or
        #: overwritten) having never served a hit — the prefetch-waste
        #: signal
        self.wasted = 0
        self.wasted_by_site: Dict[str, int] = {}
        #: ``on_decided(user, site)``: a ``holds_slot`` entry was used
        #: or wasted (the prefetcher frees that user's slot)
        self.on_decided: Optional[Callable[[str, str], None]] = None

    # ------------------------------------------------------------------
    def put(
        self,
        user: str,
        request: Request,
        response: Response,
        site: str,
        now: float,
        ttl: float,
        holds_slot: bool = False,
    ) -> None:
        entry = CacheEntry(response, site, now, now + ttl, holds_slot)
        exact = request.exact_key()
        shard = self._shards.get(user)
        if shard is None:
            shard = self._shards[user] = {}
        previous = shard.get(exact)
        shard[exact] = entry
        if previous is None:
            self._count += 1
        else:
            self._note_wasted(user, previous)
        heapq.heappush(
            self._expiry, (entry.expires_at, self.stored, user, exact, entry)
        )
        bound = self.max_entries_per_user
        if bound is not None:
            # an overwrite keeps its slot; shard dict order is the
            # per-user LRU order, oldest first
            while len(shard) > bound:
                oldest = next(iter(shard))
                self._evict(user, oldest, shard[oldest])
        self.stored += 1
        if PERF.enabled:
            PERF.incr("cache.stores")

    def serve(self, user: str, entry: CacheEntry) -> None:
        """Record a hit on ``entry``, which :meth:`lookup` just returned
        for ``user``; its first hit decides it used."""
        if entry.served:
            return
        entry.served = True
        site = entry.site
        self.used += 1
        self.used_by_site[site] = self.used_by_site.get(site, 0) + 1
        if entry.holds_slot:
            self.on_decided(user, site)

    def _note_wasted(self, user: str, entry: CacheEntry) -> None:
        """Count an entry leaving the cache without ever serving a hit."""
        if entry.served:
            return
        site = entry.site
        self.wasted += 1
        self.wasted_by_site[site] = self.wasted_by_site.get(site, 0) + 1
        if entry.holds_slot:
            self.on_decided(user, site)
        if PERF.enabled:
            PERF.incr("prefetch.wasted")
            PERF.registry.inc("prefetch_wasted", labels={"signature": site})

    def _evict(self, user: str, exact: str, entry: CacheEntry) -> None:
        shard = self._shards.get(user)
        if shard is not None and shard.pop(exact, None) is not None:
            self._count -= 1
            if not shard:
                del self._shards[user]
        self.lru_evictions += 1
        self._note_wasted(user, entry)
        if PERF.enabled:
            PERF.incr("cache.lru_evictions")

    def _remove(self, user: str, exact: str) -> None:
        """Drop one entry (expiry path)."""
        shard = self._shards.get(user)
        if shard is None:
            return
        entry = shard.pop(exact, None)
        if entry is None:
            return
        self._count -= 1
        if not shard:
            del self._shards[user]
        self._note_wasted(user, entry)

    # ------------------------------------------------------------------
    def _lookup(self, user: str, exact: str) -> Optional[CacheEntry]:
        shard = self._shards.get(user)
        return None if shard is None else shard.get(exact)

    def lookup(
        self, user: str, request: Request, now: float
    ) -> Tuple[Optional[CacheEntry], str]:
        """Exact-match lookup with its outcome: ``(entry, outcome)``.

        ``outcome`` is ``"hit"``, ``"miss_expired"`` (an entry was
        present but past its TTL — evicted, not served), or
        ``"miss_absent"`` (nothing prefetched for this exact request).
        The distinction feeds per-cause miss attribution in traces and
        the metric registry.
        """
        if PERF.enabled:
            PERF.incr("cache.lookups")
        if user not in self._shards:
            # the user holds no entries: no request digest to compute
            return None, "miss_absent"
        exact = request.exact_key()
        entry = self._lookup(user, exact)
        if entry is None:
            return None, "miss_absent"
        if entry.expired(now):
            self._remove(user, exact)
            self.expired_evictions += 1
            if PERF.enabled:
                PERF.incr("cache.expired_on_lookup")
            return None, "miss_expired"
        if self.max_entries_per_user is not None:
            # touch: re-file at the recent end of the user's LRU order
            shard = self._shards[user]
            del shard[exact]
            shard[exact] = entry
        if PERF.enabled:
            PERF.incr("cache.lookup_hits")
        return entry, "hit"

    def record_hit(self, site: str) -> None:
        self.hits[site] = self.hits.get(site, 0) + 1
        if PERF.enabled:
            PERF.registry.inc("prefetch_hits", labels={"signature": site})

    def record_miss(self, site: str) -> None:
        self.misses[site] = self.misses.get(site, 0) + 1

    def contains_fresh(self, user: str, request: Request, now: float) -> bool:
        entry = self._lookup(user, request.exact_key())
        return entry is not None and not entry.expired(now)

    def hit_rate(self, site: str) -> float:
        hits = self.hits.get(site, 0)
        misses = self.misses.get(site, 0)
        if hits + misses == 0:
            return 0.0
        return hits / float(hits + misses)

    def purge_expired(self, now: float) -> int:
        """Evict every expired entry; returns how many went.

        The expiry heap surfaces only stores whose time has passed; each
        candidate is revalidated against its shard (it may have been
        overwritten or evicted since it was stored), so cost tracks
        expirations, not population.
        """
        purged = 0
        expiry = self._expiry
        while expiry and expiry[0][0] <= now:
            _, _, user, exact, entry = heapq.heappop(expiry)
            if self._lookup(user, exact) is not entry:
                continue  # overwritten or already evicted
            self._remove(user, exact)
            purged += 1
        self.expired_evictions += purged
        self.purged += purged
        if PERF.enabled and purged:
            PERF.incr("cache.purged", purged)
        return purged

    def entries_for_user(self, user: str) -> List[CacheEntry]:
        """This user's entries, oldest-stored first (deterministic)."""
        shard = self._shards.get(user)
        return [] if shard is None else list(shard.values())

    @property
    def user_count(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        return self._count
