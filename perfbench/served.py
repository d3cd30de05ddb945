"""Origin byte counts and the served-bytes check.

``OriginBytes`` counts the proxy↔origin bytes that no counter of the
program exposes: the §4.3 expiration probes and the plain forwarding of
demand requests that no app claims.  It touches only those two paths
(neither is on the path of a claimed demand request), and it is
installed in every serving so that the data cost covers all
proxy↔origin traffic.

``ServedBytesCheck`` is installed only in a serving of its own, never in
a serving whose host cost is measured.  While it is installed, each
demand request is captured at the ``MultiAppProxy.handle_request``
boundary with its user, the response the proxy served, the sim instant
the request reached the proxy, and whether the response came out of the
prefetch cache (it is then the very object a prefetch stored).  After
the loop, a private replica of each app's origins, built from the same
catalog seed, answers every captured request at that instant; status
and body must match.  The capture adds no simulator event, so the
checked serving must reproduce the measured serving of the same seed
exactly, which the determinism guard verifies.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from perfbench.ledger import Patches


class OriginBytes:
    """Count expiration-probe and pass-through bytes while installed."""

    def __init__(self) -> None:
        self.patches = Patches()
        self.probe_bytes = 0
        self.passthrough_bytes = 0

    def install(self) -> None:
        import repro.proxy.multiapp as multiapp
        from repro.proxy.expiration import ExpirationEstimator

        counter = self
        probe = ExpirationEstimator.__dict__["_fetch"]
        forward = multiapp.__dict__["origin_fetch"]

        def probe_fetch(estimator, request):
            response = yield from probe(estimator, request)
            counter.probe_bytes += request.wire_size() + response.wire_size()
            return response

        def passthrough_fetch(sim, origins, request, user):
            response, size = yield from forward(sim, origins, request, user)
            counter.passthrough_bytes += size
            return response, size

        self.patches.replace(ExpirationEstimator, "_fetch", probe_fetch)
        self.patches.replace(multiapp, "origin_fetch", passthrough_fetch)

    def uninstall(self) -> None:
        self.patches.restore()


class ServedBytesCheck:
    """Capture demand responses while installed; verify them afterwards."""

    def __init__(self) -> None:
        self.patches = Patches()
        #: (request, user, response, arrived_at, from_cache)
        self.captured: List[Tuple[object, str, object, float, bool]] = []
        self._stored: "weakref.WeakValueDictionary[int, object]" = (
            weakref.WeakValueDictionary()
        )

    # -- capture -------------------------------------------------------
    def install(self) -> None:
        from repro.proxy.cache import PrefetchCache
        from repro.proxy.multiapp import MultiAppProxy

        check = self
        route = MultiAppProxy.__dict__["handle_request"]
        put = PrefetchCache.__dict__["put"]

        def handle_request(multi, request, user):
            arrived_at = multi.sim.now
            response = yield from route(multi, request, user)
            from_cache = check._stored.get(id(response)) is response
            check.captured.append((request, user, response, arrived_at, from_cache))
            return response

        def store(cache, user, request, response, *args, **kwargs):
            check._stored[id(response)] = response
            return put(cache, user, request, response, *args, **kwargs)

        self.patches.replace(MultiAppProxy, "handle_request", handle_request)
        self.patches.replace(PrefetchCache, "put", store)

    def uninstall(self) -> None:
        self.patches.restore()

    # -- verdict -------------------------------------------------------
    def verify(self, apps, catalog_seed: int) -> Dict[str, int]:
        """Replay the captured demand requests against replica origins.

        Returns counts: hits and forwards checked, wrong bytes among
        each, and 5xx answers.
        """
        replica = _ReplicaOrigins(apps, catalog_seed)
        counts = {
            "hits": 0,
            "forwards": 0,
            "wrong_hits": 0,
            "wrong_forwards": 0,
            "server_errors": 0,
        }
        for request, user, response, arrived_at, from_cache in self.captured:
            counts["hits" if from_cache else "forwards"] += 1
            if response.status >= 500:
                counts["server_errors"] += 1
            expected = replica.answer(request, user, arrived_at)
            if expected is None or _payload(expected) != _payload(response):
                counts["wrong_hits" if from_cache else "wrong_forwards"] += 1
        return counts


def _payload(response) -> Tuple[int, str, str]:
    return response.status, response.body.kind, response.body.to_wire()


class _ReplicaOrigins:
    """Every app's origins on a private simulator whose clock is set by hand."""

    def __init__(self, apps, catalog_seed: int) -> None:
        from repro.apps.registry import get_app
        from repro.netsim.sim import Simulator
        from repro.server.content import Catalog

        self.sim = Simulator()
        self.endpoints: Dict[str, object] = {}
        for name in apps:
            origins, _ = get_app(name).build_origin_map(self.sim, Catalog(catalog_seed))
            self.endpoints.update(origins.origins())

    def answer(self, request, user: str, at: float) -> Optional[object]:
        endpoint = self.endpoints.get(request.uri.origin())
        if endpoint is None:
            return None
        # the origin answers from (catalog, sim time, user, request); its
        # service delays are irrelevant here, so the process is stepped
        # by hand with the clock pinned at the demand instant
        self.sim._now = at
        process = endpoint.handle(request.copy(), user)
        try:
            while True:
                next(process)
        except StopIteration as stop:
            return stop.value
