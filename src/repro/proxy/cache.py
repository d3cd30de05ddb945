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
Optional bounds (``max_entries_per_user``, byte-accounted
``max_bytes``) evict least-recently-used entries when a deployment
must cap memory.  The seed's flat ``(user, exact_key)`` table with
full-scan purge lives on as the oracle in
``tests/oracles/flat_cache.py``: unbounded, the two agree on every
observable result (``tests/test_proxy_cache_scale.py``).

Adaptive per-user budgets
-------------------------
A flat per-user cap thrashes: every user gets the same shard size no
matter whether their prefetches are ever consumed.  With
``max_entries_total`` + ``adaptive=True`` the store instead carries a
*global* entry budget apportioned by recent per-user hit mass (two
rotating count windows — O(1) per hit, no decay sweeps): half the
budget splits equally across active shards, half follows the hit
mass, with a small floor so new users can bootstrap.  Users whose
prefetched entries get consumed keep larger shards; users that only
ever fill and evict stop stealing space from them.  Entries evicted
or expired *before their first hit* are counted as ``wasted``
(per-site in ``wasted_by_site``) — the signal the prefetcher's
admission gate and offline audits run on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.httpmsg.message import Request, Response
from repro.metrics.perf import PERF
from repro.proxy.timerwheel import TimerWheel


class CacheEntry:
    __slots__ = ("response", "site", "fetched_at", "expires_at", "served", "size_bytes")

    def __init__(
        self, response: Response, site: str, fetched_at: float, expires_at: float
    ) -> None:
        self.response = response
        self.site = site
        self.fetched_at = fetched_at
        self.expires_at = expires_at
        self.served = False
        self.size_bytes = 0

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def __repr__(self) -> str:
        return "CacheEntry({}, expires_at={:.1f})".format(self.site, self.expires_at)


class PrefetchCache:
    """Per-user exact-match response cache with expiry.

    ``max_entries_per_user`` and ``max_bytes`` bound the store with
    LRU eviction; unbounded is the default and keeps insertion order
    as every observable order.

    ``max_entries_total`` bounds the whole store; with
    ``adaptive=True`` that global budget is additionally apportioned
    per user by recent hit mass (see the module docstring), so the
    flat per-user cap can be dropped entirely.
    """

    def __init__(
        self,
        max_entries_per_user: Optional[int] = None,
        max_bytes: Optional[int] = None,
        wheel_tick: float = 0.5,
        max_entries_total: Optional[int] = None,
        adaptive: bool = False,
        min_entries_per_user: int = 4,
        hit_mass_window: float = 30.0,
    ) -> None:
        if adaptive and not max_entries_total:
            raise ValueError("adaptive budgets require max_entries_total")
        self.max_entries_per_user = max_entries_per_user
        self.max_bytes = max_bytes
        self.max_entries_total = max_entries_total
        self.adaptive = adaptive
        self.min_entries_per_user = min_entries_per_user
        self.hit_mass_window = hit_mass_window
        self._bounded = bool(max_entries_per_user or max_bytes or max_entries_total)
        #: user -> {exact_key -> entry}; dict insertion order doubles
        #: as per-user LRU order (touched on bounded gets)
        self._shards: Dict[str, Dict[str, CacheEntry]] = {}
        self._wheel = TimerWheel(tick=wheel_tick)
        #: global LRU order across users, maintained only when bounded
        self._lru: Dict[Tuple[str, str], None] = {}
        self._count = 0  # live entries across all shards
        self.total_bytes = 0
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
        #: rotating per-user hit-count windows (adaptive budgets): two
        #: epochs of ``hit_mass_window`` seconds; mass = cur + prev
        self._mass_epoch = 0
        self._mass_cur: Dict[str, int] = {}
        self._mass_prev: Dict[str, int] = {}
        self._mass_cur_total = 0
        self._mass_prev_total = 0
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
        if self._bounded:
            entry.size_bytes = response.wire_size()
            self.total_bytes += entry.size_bytes
            if previous is not None:
                self.total_bytes -= previous.size_bytes
            self._lru.pop((user, exact), None)
            self._lru[(user, exact)] = None
            self._enforce_bounds(user)
        self.stored += 1
        if PERF.enabled:
            PERF.incr("cache.stores")

    def _enforce_bounds(self, user: str) -> None:
        if self.max_entries_per_user is not None:
            shard = self._shards.get(user)
            while shard and len(shard) > self.max_entries_per_user:
                # shard dict order is per-user LRU order
                oldest = next(iter(shard))
                self._evict(user, oldest, shard[oldest])
        if self.adaptive:
            shard = self._shards.get(user)
            allowance = self._allowance(user)
            while shard and len(shard) > allowance:
                oldest = next(iter(shard))
                self._evict(user, oldest, shard[oldest])
        if self.max_entries_total is not None:
            while self._count > self.max_entries_total and self._lru:
                victim_user, victim_key = next(iter(self._lru))
                shard = self._shards.get(victim_user, {})
                entry = shard.get(victim_key)
                if entry is None:  # stale LRU slot
                    del self._lru[(victim_user, victim_key)]
                    continue
                self._evict(victim_user, victim_key, entry)
        if self.max_bytes is not None:
            while self.total_bytes > self.max_bytes and self._lru:
                victim_user, victim_key = next(iter(self._lru))
                shard = self._shards.get(victim_user, {})
                entry = shard.get(victim_key)
                if entry is None:  # stale LRU slot
                    del self._lru[(victim_user, victim_key)]
                    continue
                self._evict(victim_user, victim_key, entry)

    # -- adaptive budget apportionment ---------------------------------
    def _note_user_hit(self, user: str, now: float) -> None:
        epoch = int(now // self.hit_mass_window)
        if epoch != self._mass_epoch:
            if epoch == self._mass_epoch + 1:
                self._mass_prev = self._mass_cur
                self._mass_prev_total = self._mass_cur_total
            else:  # clock jumped: both windows are stale
                self._mass_prev = {}
                self._mass_prev_total = 0
            self._mass_cur = {}
            self._mass_cur_total = 0
            self._mass_epoch = epoch
        self._mass_cur[user] = self._mass_cur.get(user, 0) + 1
        self._mass_cur_total += 1

    def hit_mass(self, user: str) -> int:
        """Hits ``user`` scored in the last two mass windows."""
        return self._mass_cur.get(user, 0) + self._mass_prev.get(user, 0)

    def _allowance(self, user: str) -> int:
        """This user's current entry allowance under the global budget.

        Half the budget splits equally across active shards; the other
        half follows recent hit mass (all-equal before any hits), with
        ``min_entries_per_user`` as a bootstrap floor.
        """
        active = max(1, len(self._shards))
        equal_share = self.max_entries_total / (2.0 * active)
        total_mass = self._mass_cur_total + self._mass_prev_total
        if total_mass > 0:
            mass_share = (
                self.max_entries_total * 0.5 * self.hit_mass(user) / total_mass
            )
        else:
            mass_share = equal_share
        return max(self.min_entries_per_user, int(equal_share + mass_share))

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
        self.total_bytes -= entry.size_bytes
        self._lru.pop((user, exact), None)
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
        if self._bounded:
            self.total_bytes -= entry.size_bytes
            self._lru.pop((user, exact), None)
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
        if self._bounded:
            # touch: re-file at the recent end of both LRU orders
            shard = self._shards[user]
            del shard[exact]
            shard[exact] = entry
            del self._lru[(user, exact)]
            self._lru[(user, exact)] = None
        if self.adaptive:
            self._note_user_hit(user, now)
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
