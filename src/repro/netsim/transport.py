"""Transports: how a client reaches origin servers.

An :class:`Endpoint` is anything that can answer a request inside the
simulation (origin servers do, and so does the acceleration proxy).
A :class:`Transport` is the client's view of the network: ``send`` is a
generator that returns the response.

Both are generators, not processes of their own: a caller in the same
layer delegates with ``response = yield from transport.send(...)``,
and :class:`DirectTransport` runs the origin's ``handle`` the same way,
inside the caller's process.  ``Simulator.spawn`` is kept for work
that runs concurrently or crosses between the proxy and the harness
(see :mod:`repro.netsim.sim`).

:class:`DirectTransport` is the no-proxy baseline ("Orig" in the
paper's figures): the client talks to each origin over its own link
whose latency is the concatenation of the access link and the origin's
RTT.  The proxied topology lives in :mod:`repro.proxy.proxy`.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from repro.httpmsg.message import Request, Response
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator


class Endpoint:
    """Anything that answers requests (a generator per request)."""

    def handle(self, request: Request, user: str) -> Generator:
        """Generator yielding sim primitives; returns a :class:`Response`.

        Callers delegate to it (``yield from``) inside their own process.
        """
        raise NotImplementedError


class OriginMap:
    """Route requests to origin endpoints by URI origin, with links.

    Each origin has its own :class:`Link` (its RTT from whoever holds
    this map — the client in the direct topology, the proxy in the
    proxied one).
    """

    def __init__(self) -> None:
        self._endpoints: Dict[str, Endpoint] = {}
        self._links: Dict[str, Link] = {}
        self._default_link = Link(rtt=0.1)

    def register(self, origin: str, endpoint: Endpoint, link: Link) -> None:
        self._endpoints[origin] = endpoint
        self._links[origin] = link

    def endpoint_for(self, request: Request) -> Optional[Endpoint]:
        return self._endpoints.get(request.uri.origin())

    def link_for(self, request: Request) -> Link:
        return self._links.get(request.uri.origin(), self._default_link)

    def origins(self) -> Dict[str, Endpoint]:
        return dict(self._endpoints)


class Transport:
    """Client-side request interface."""

    def send(self, request: Request, user: str) -> Generator:
        """Generator returning the :class:`Response`."""
        raise NotImplementedError


class UnknownOriginError(Exception):
    """No endpoint registered for the request's origin."""


class DirectTransport(Transport):
    """Client ↔ origin with no proxy in between.

    The effective one-way latency is access-link latency plus the
    origin link latency (the path the packets would take through the
    Internet to the origin).
    """

    def __init__(
        self,
        sim: Simulator,
        access_link: Link,
        origins: OriginMap,
        on_transfer: Optional[Callable[[Request, Response], None]] = None,
    ) -> None:
        self.sim = sim
        self.access_link = access_link
        self.origins = origins
        self.on_transfer = on_transfer

    def send(self, request: Request, user: str) -> Generator:
        endpoint = self.origins.endpoint_for(request)
        if endpoint is None:
            raise UnknownOriginError(request.uri.origin())
        origin_link = self.origins.link_for(request)
        request_size = request.wire_size()
        yield Delay(self.access_link.transfer_delay(self.sim.now, request_size))
        yield Delay(origin_link.transfer_delay(self.sim.now, request_size))
        response = yield from endpoint.handle(request, user)
        response_size = response.wire_size()
        yield Delay(origin_link.transfer_delay(self.sim.now, response_size))
        yield Delay(self.access_link.transfer_delay(self.sim.now, response_size))
        if self.on_transfer is not None:
            self.on_transfer(request, response)
        return response
