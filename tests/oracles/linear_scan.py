"""The seed's signature dispatch: an un-memoised linear regex scan.

:class:`repro.proxy.instances.SignatureMatcher` memoises answers and
scans each method's signatures in rank order, stopping at the first
match.  :func:`linear_scan_match` tries every same-method signature's
full regex and keeps the best-ranked match — the answer the matcher
must give for any request.
"""

from __future__ import annotations

from typing import List, Optional

from repro.httpmsg.message import Request
from repro.proxy.instances import RuntimeSignature


def linear_scan_match(
    signatures: List[RuntimeSignature], request: Request
) -> Optional[RuntimeSignature]:
    """Most literal matching signature; earliest wins a tie."""
    base_uri = request.uri.origin() + request.uri.path
    best: Optional[RuntimeSignature] = None
    best_rank = (-1, 0)
    for index, candidate in enumerate(signatures):
        if request.method != candidate.method:
            continue
        if candidate.uri_matcher.pattern.fullmatch(base_uri) is None:
            continue
        rank = (candidate.specificity, -index)
        if rank > best_rank:
            best = candidate
            best_rank = rank
    return best
