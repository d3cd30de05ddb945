"""The seed's prefetch cache: one flat ``(user, exact_key)`` table.

:class:`repro.proxy.cache.PrefetchCache` shards entries by user and
files expiries on a min-heap.  :class:`FlatPrefetchCache` keeps the
seed's single dict with a full-table purge and per-user scans instead;
unbounded, the two must agree on every observable result.  It takes no
LRU bounds: the flat table has no per-user order to evict by.  Like
the sharded cache, it counts an entry overwritten unread as wasted and
tells ``on_decided`` the user of every decided ``holds_slot`` entry.

``PrefetchCache.lookup`` answers ``miss_absent`` without digesting the
request when the user has no shard.  The flat table keeps no shards,
so it claims every user (:class:`_EveryUser`) and its lookups always
digest and probe the table: the shortcut is checked against the seed's
full lookup, not taken by both sides.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.httpmsg.message import Request, Response
from repro.metrics.perf import PERF
from repro.proxy.cache import CacheEntry, PrefetchCache


class _EveryUser(dict):
    """A shard index that holds every user, so no lookup short-cuts."""

    def __contains__(self, user: object) -> bool:
        return True


class FlatPrefetchCache(PrefetchCache):
    """Drop-in :class:`PrefetchCache` over one flat table."""

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[Tuple[str, str], CacheEntry] = {}
        self._shards = _EveryUser()

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
        key = (user, request.exact_key())
        previous = self._entries.get(key)
        if previous is not None:
            self._note_wasted(user, previous)
        self._entries[key] = CacheEntry(response, site, now, now + ttl, holds_slot)
        self.stored += 1
        if PERF.enabled:
            PERF.incr("cache.stores")

    def _remove(self, user: str, exact: str) -> None:
        entry = self._entries.pop((user, exact), None)
        if entry is not None:
            self._note_wasted(user, entry)

    def _lookup(self, user: str, exact: str) -> Optional[CacheEntry]:
        return self._entries.get((user, exact))

    def purge_expired(self, now: float) -> int:
        stale = [key for key, entry in self._entries.items() if entry.expired(now)]
        for key in stale:
            self._note_wasted(key[0], self._entries.pop(key))
        self.expired_evictions += len(stale)
        return len(stale)

    def entries_for_user(self, user: str) -> List[CacheEntry]:
        return [entry for (owner, _), entry in self._entries.items() if owner == user]

    @property
    def user_count(self) -> int:
        return len({user for user, _ in self._entries})

    def __len__(self) -> int:
        return len(self._entries)
