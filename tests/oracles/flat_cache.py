"""The seed's prefetch cache: one flat ``(user, exact_key)`` table.

:class:`repro.proxy.cache.PrefetchCache` shards entries by user and
files expiries on a timer wheel.  :class:`FlatPrefetchCache` keeps the
seed's single dict with a full-table purge and per-user scans instead;
unbounded, the two must agree on every observable result.  It takes no
LRU bounds: the flat table has no per-user order to evict by.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.httpmsg.message import Request, Response
from repro.metrics.perf import PERF
from repro.proxy.cache import CacheEntry, PrefetchCache


class FlatPrefetchCache(PrefetchCache):
    """Drop-in :class:`PrefetchCache` over one flat table."""

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[Tuple[str, str], CacheEntry] = {}

    def put(
        self,
        user: str,
        request: Request,
        response: Response,
        site: str,
        now: float,
        ttl: float,
    ) -> None:
        self._entries[(user, request.exact_key())] = CacheEntry(
            response, site, now, now + ttl
        )
        self.stored += 1
        if PERF.enabled:
            PERF.incr("cache.stores")

    def _remove(self, user: str, exact: str) -> None:
        entry = self._entries.pop((user, exact), None)
        if entry is not None:
            self._note_wasted(entry)

    def _lookup(self, user: str, exact: str) -> Optional[CacheEntry]:
        return self._entries.get((user, exact))

    def purge_expired(self, now: float) -> int:
        stale = [key for key, entry in self._entries.items() if entry.expired(now)]
        for key in stale:
            self._note_wasted(self._entries.pop(key))
        self.expired_evictions += len(stale)
        return len(stale)

    def entries_for_user(self, user: str) -> List[CacheEntry]:
        return [entry for (owner, _), entry in self._entries.items() if owner == user]

    @property
    def user_count(self) -> int:
        return len({user for user, _ in self._entries})

    def __len__(self) -> int:
        return len(self._entries)
