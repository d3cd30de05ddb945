"""Multi-app proxy (§2: "the proxy can accelerate multiple target apps").

One deployment point accelerating several apps at once: requests are
routed to the per-app :class:`AccelerationProxy` whose signature set
claims the request's origin; unknown origins pass straight through to
the network.  Each app keeps its own learner, cache, configuration,
and statistics — exactly as if it had a dedicated proxy.

Routing is a plain call that returns the serving generator, so a
demand request runs three simulator processes: the client's replay
(with :meth:`MultiAppTransport.send` delegated inside it), the app
proxy's ``handle_request`` that the transport spawns, and the
``origin_fetch`` that the proxy spawns on a miss (with the origin's
handler delegated inside it).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.httpmsg.message import Request
from repro.metrics.trace import TRACER, TraceContext
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap, Transport
from repro.proxy.prefetcher import origin_fetch
from repro.proxy.proxy import AccelerationProxy


class MultiAppProxy:
    """Routes traffic to per-app acceleration proxies by origin."""

    def __init__(self, sim: Simulator, origins: OriginMap) -> None:
        self.sim = sim
        self.origins = origins
        self._apps: List[Tuple[str, AccelerationProxy]] = []
        self._by_origin: Dict[str, AccelerationProxy] = {}
        self._name_by_origin: Dict[str, str] = {}
        self.passthrough = 0

    def register_app(self, name: str, proxy: AccelerationProxy) -> None:
        """Attach one app's generated proxy.

        The origins the app's signatures can match are claimed by
        probing each registered origin against the app's matcher, so
        routing needs no extra configuration.  Names starting with an
        underscore are reserved for aggregate rows in :meth:`stats`
        (``_passthrough``) and rejected.
        """
        if name.startswith("_"):
            raise ValueError(
                "app name {!r} is reserved: names starting with '_' collide "
                "with aggregate stats rows such as '_passthrough'".format(name)
            )
        if any(existing == name for existing, _ in self._apps):
            raise ValueError("app {!r} is already registered".format(name))
        self._apps.append((name, proxy))
        for origin in proxy.origins.origins():
            self._by_origin[origin] = proxy
            self._name_by_origin[origin] = name

    def app_for(self, request: Request) -> Optional[AccelerationProxy]:
        return self._by_origin.get(request.uri.origin())

    def handle_request(self, request: Request, user: str) -> Generator:
        """Route one request; returns the generator that serves it.

        A plain call, not a process: the client transport spawns what
        it returns, so the routing lookup costs no process of its own.
        The routing boundary begins the request's trace (sampling is
        decided once per request here), stamps the app and hands the
        trace to whoever serves it: the app's
        :meth:`AccelerationProxy.handle_request`, which finishes it, or
        the pass-through forward for origins no app claims.
        """
        trace = TRACER.begin(user) if TRACER.enabled else None
        origin = request.uri.origin()
        proxy = self._by_origin.get(origin)
        if proxy is not None:
            if trace is not None:
                trace.app = self._name_by_origin.get(origin)
            return proxy.handle_request(request, user, trace=trace)
        self.passthrough += 1
        return self._forward(request, user, trace)

    def _forward(
        self, request: Request, user: str, trace: Optional[TraceContext]
    ) -> Generator:
        """Process: unknown app traffic, plain forwarding, no acceleration."""
        span = None
        if trace is not None:
            trace.app = "_passthrough"
            span = trace.start_span("cache_lookup")
            trace.end_span(span, outcome="passthrough", shard=user)
            span = trace.start_span("origin_fetch")
        response, _ = yield self.sim.spawn(
            origin_fetch(self.sim, self.origins, request, user)
        )
        if span is not None:
            trace.end_span(span)
            TRACER.finish(trace)
        return response

    def purge_expired(self, now: float) -> int:
        """Purge every app cache's expired entries; returns the total."""
        return sum(proxy.cache.purge_expired(now) for _, proxy in self._apps)

    def cache_entries(self) -> int:
        """Live prefetched entries across every app cache."""
        return sum(len(proxy.cache) for _, proxy in self._apps)

    def stats(self) -> Dict[str, Dict]:
        per_app = {name: proxy.stats() for name, proxy in self._apps}
        per_app["_passthrough"] = {"requests": self.passthrough}
        return per_app


class MultiAppTransport(Transport):
    """Client transport through a shared multi-app proxy.

    ``send`` runs inside the caller's process; it spawns what routing
    returns, the one crossing from the harness into the proxy.
    """

    def __init__(self, sim: Simulator, access_link: Link, proxy: MultiAppProxy) -> None:
        self.sim = sim
        self.access_link = access_link
        self.proxy = proxy

    def send(self, request: Request, user: str) -> Generator:
        request_size = request.wire_size()
        yield Delay(self.access_link.transfer_delay(self.sim.now, request_size))
        response = yield self.sim.spawn(self.proxy.handle_request(request, user))
        response_size = response.wire_size()
        yield Delay(self.access_link.transfer_delay(self.sim.now, response_size))
        return response
