"""The seed's prefetch drain: re-rank the whole waiting queue per drain.

:class:`repro.proxy.prefetcher.Prefetcher` keeps one FIFO per site and
a heap of epoch-stamped site heads, so a drain step costs O(log S).
:class:`RebuildDrainPrefetcher` keeps every waiting request on one heap
and rebuilds it from the current §5 priorities on every drain, O(W) per
drain — the order the lazy drain must reproduce exactly.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.proxy.learning import ReadyPrefetch
from repro.proxy.prefetcher import Prefetcher


class RebuildDrainPrefetcher(Prefetcher):
    """Drop-in :class:`Prefetcher` with the rebuild-everything drain."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (-priority at enqueue, seq, ready)
        self._waiting: List[Tuple[float, int, ReadyPrefetch]] = []

    @property
    def waiting(self) -> int:
        return len(self._waiting)

    def _enqueue_waiting(self, site: str, seq: int, ready: ReadyPrefetch) -> None:
        heapq.heappush(self._waiting, (-self._priority(site), seq, ready))

    def _drain(self) -> None:
        """Re-rank the whole queue, then pop.

        Queued entries keep the priority computed at enqueue time, but
        ``avg_response_time`` and the hit rate have moved since (a
        fetch just completed — that is what triggered this drain).
        Re-rank from the *current* §5 signals so long-queued requests
        drain in today's order, not the order of whenever they
        arrived.  Sequence numbers are kept so equal priorities still
        break ties FIFO.  The re-rank is unconditional: with the
        ablation switch off ``_priority`` is 0.0 everywhere, so the
        rebuilt keys are exactly FIFO even for entries enqueued while
        priorities were still on.
        """
        if self._active >= self.max_concurrent or not self._waiting:
            return
        self._waiting = [
            (-self._priority(ready.instance.signature.site), seq, ready)
            for _, seq, ready in self._waiting
        ]
        heapq.heapify(self._waiting)
        while self._active < self.max_concurrent and self._waiting:
            _, _, ready = heapq.heappop(self._waiting)
            self._start(ready)
