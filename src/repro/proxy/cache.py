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
that user's shard, and a hierarchical
:class:`~repro.proxy.timerwheel.TimerWheel` files every entry by
expiry tick so ``purge_expired(now)`` visits only buckets the clock
passed — per-request cost stays flat as the user population grows.
The one optional bound, ``max_entries_per_user``, evicts the user's
least-recently-used entries when a deployment must cap memory.  The
seed's flat ``(user, exact_key)`` table with full-scan purge lives on
as the oracle in ``tests/oracles/flat_cache.py``: unbounded, the two
agree on every observable result (``tests/test_proxy_cache_scale.py``).

Entries evicted or expired *before their first hit* are counted as
``wasted`` (per-site in ``wasted_by_site``) — the signal the
prefetcher's admission gate and offline audits run on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.httpmsg.message import Request, Response
from repro.metrics.perf import PERF
from repro.proxy.timerwheel import TimerWheel

WHEEL_TICK = 0.5  # seconds of expiry time one timer-wheel bucket spans


class CacheEntry:
    __slots__ = ("response", "site", "fetched_at", "expires_at", "served")

    def __init__(
        self, response: Response, site: str, fetched_at: float, expires_at: float
    ) -> None:
        self.response = response
        self.site = site
        self.fetched_at = fetched_at
        self.expires_at = expires_at
        self.served = False

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
        #: as per-user LRU order (touched on bounded gets)
        self._shards: Dict[str, Dict[str, CacheEntry]] = {}
        self._wheel = TimerWheel(tick=WHEEL_TICK)
        self._count = 0  # live entries across all shards
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.expired_evictions = 0
        self.lru_evictions = 0
        self.wheel_purged = 0
        self.stored = 0
        #: entries that left the cache (evicted or expired) having
        #: never served a hit — the prefetch-waste signal
        self.wasted = 0
        self.wasted_by_site: Dict[str, int] = {}
        self._stats_listeners: List[Callable[[str], None]] = []

    # ------------------------------------------------------------------
    def add_stats_listener(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(site)`` whenever a hit/miss moves a site's
        hit rate — the prefetcher uses this to re-rank its queue
        lazily instead of rebuilding it."""
        self._stats_listeners.append(listener)

    # ------------------------------------------------------------------
    def put(
        self,
        user: str,
        request: Request,
        response: Response,
        site: str,
        now: float,
        ttl: float,
    ) -> None:
        entry = CacheEntry(response, site, now, now + ttl)
        exact = request.exact_key()
        shard = self._shards.get(user)
        if shard is None:
            shard = self._shards[user] = {}
        previous = shard.get(exact)
        shard[exact] = entry
        if previous is None:
            self._count += 1
        self._wheel.schedule(entry.expires_at, (user, exact, entry))
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

    def _note_wasted(self, entry: CacheEntry) -> None:
        """Count an entry leaving the cache without ever serving a hit."""
        if entry.served:
            return
        self.wasted += 1
        self.wasted_by_site[entry.site] = self.wasted_by_site.get(entry.site, 0) + 1
        if PERF.enabled:
            PERF.incr("prefetch.wasted")
            PERF.registry.inc(
                "prefetch_wasted", labels={"signature": entry.site}
            )

    def _evict(self, user: str, exact: str, entry: CacheEntry) -> None:
        shard = self._shards.get(user)
        if shard is not None and shard.pop(exact, None) is not None:
            self._count -= 1
            if not shard:
                del self._shards[user]
        self.lru_evictions += 1
        self._note_wasted(entry)
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
        self._note_wasted(entry)

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
        the metric registry; :meth:`get` is the outcome-blind facade.
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

    def get(self, user: str, request: Request, now: float) -> Optional[CacheEntry]:
        """Exact-match lookup; expired entries are evicted, not served."""
        return self.lookup(user, request, now)[0]

    def record_hit(self, site: str) -> None:
        self.hits[site] = self.hits.get(site, 0) + 1
        if PERF.enabled:
            PERF.registry.inc("prefetch_hits", labels={"signature": site})
        for listener in self._stats_listeners:
            listener(site)

    def record_miss(self, site: str) -> None:
        self.misses[site] = self.misses.get(site, 0) + 1
        for listener in self._stats_listeners:
            listener(site)

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

        The timer wheel surfaces only buckets the clock passed; each
        candidate is revalidated against its shard (it may have been
        overwritten or evicted since scheduling), so cost tracks
        expirations, not population.
        """
        purged = 0
        for user, exact, entry in self._wheel.advance(now):
            live = self._lookup(user, exact)
            if live is not entry or not entry.expired(now):
                continue  # overwritten, already evicted, or refreshed
            self._remove(user, exact)
            purged += 1
        self.expired_evictions += purged
        self.wheel_purged += purged
        if PERF.enabled and purged:
            PERF.incr("cache.wheel_purged", purged)
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
