"""Popularity-guided prefetching (§6.3's proposed extension).

The paper: *"APPx can perform prefetching more effectively by making
the proxy collect and use fine-grained popularity of each request or
item"*.  This module implements that: the proxy counts how often
clients actually request each (signature, dependency-value) pair, and a
policy's ``popularity_top_k`` restricts prefetching to the K most
popular items of that signature — trimming the long tail of prefetched
bytes that no user ever consumes (the paper measures only 1–5% of
prefetched transactions being used).

Cold-start rule: while a signature has seen fewer than K distinct
items, everything is allowed (there is no popularity signal yet).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.model import DepAtom

#: identity of one concrete item of a signature: the sorted tuple of
#: its dependency-derived field values
ItemKey = Tuple[Tuple[str, str], ...]


class PopularityTracker:
    """Client-demand counts per (signature site, item)."""

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[ItemKey, int]] = {}

    # ------------------------------------------------------------------
    def record(self, site: str, key: ItemKey) -> None:
        per_site = self._counts.setdefault(site, {})
        per_site[key] = per_site.get(key, 0) + 1

    def record_request(self, signature, request) -> None:
        """Record a client request against its signature's dep fields."""
        key = item_key_for_request(signature, request)
        if key:
            self.record(signature.site, key)

    # ------------------------------------------------------------------
    def count(self, site: str, key: ItemKey) -> int:
        return self._counts.get(site, {}).get(key, 0)

    def distinct_items(self, site: str) -> int:
        return len(self._counts.get(site, {}))

    def rank(self, site: str, key: ItemKey) -> Optional[int]:
        """1-based popularity rank of ``key``, or None if unseen."""
        per_site = self._counts.get(site, {})
        if key not in per_site:
            return None
        ordered = sorted(per_site.items(), key=lambda kv: (-kv[1], kv[0]))
        for index, (candidate, _) in enumerate(ordered):
            if candidate == key:
                return index + 1
        return None  # pragma: no cover

    def allows(self, site: str, key: ItemKey, top_k: int) -> bool:
        """May this item be prefetched under a top-K policy?"""
        if self.distinct_items(site) < top_k:
            return True  # cold start: no signal yet
        rank = self.rank(site, key)
        return rank is not None and rank <= top_k


def item_key_for_instance(instance) -> ItemKey:
    """The item identity of a prefetch instance: its dep bindings."""
    return tuple(sorted(instance.dep_values.items()))


def item_key_for_request(signature, request) -> ItemKey:
    """Extract the dep-derived field values from an actual request.

    Walks the signature's build plan, which already records which
    fields carry a dependency atom (``has_dep``) and their path strings.
    """
    plan = signature.build_plan
    values = []
    for row in plan.rows:
        if not row.has_dep:
            continue
        extracted = row.path.extract(request)
        if extracted:
            values.append((row.path_string, str(extracted[0])))
    # dependencies embedded in the URI count too
    if plan.uri.has_dep:
        captures = signature.uri_matcher.match(
            request.uri.origin() + request.uri.path
        )
        if captures:
            for atom, value in captures:
                if isinstance(atom, DepAtom):
                    values.append(("uri", value))
    return tuple(sorted(values))
