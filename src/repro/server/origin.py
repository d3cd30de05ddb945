"""Origin-server framework.

:class:`OriginServer` is a simulator :class:`~repro.netsim.Endpoint`
with route dispatch, per-route service times, session cookies, content
rotation (feeds change over virtual time, so long-lived prefetched
responses go stale), and fault injection used by the verification-phase
tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.httpmsg.body import JsonBody
from repro.httpmsg.cookies import parse_cookie_header
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request, Response
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import Endpoint
from repro.server.content import stable_id

#: route handler: (server, request, user) -> Response
Handler = Callable[["OriginServer", Request, str], Response]


class Route:
    """One routed endpoint: a path matcher plus a handler."""

    def __init__(
        self,
        method: str,
        path: str,
        handler: Handler,
        service_time: float = 0.03,
        name: str = "",
    ) -> None:
        self.method = method
        self.parts = [p for p in path.split("/") if p]
        self.handler = handler
        self.service_time = service_time
        self.name = name or path

    def match(
        self, request: Request, segments: Optional[List[str]] = None
    ) -> Optional[Dict[str, str]]:
        """Captures if ``request`` hits this route, else None.

        ``segments`` is the request's ``uri.path_segments()`` when the
        caller has already split the path (one split per request).
        """
        if request.method != self.method:
            return None
        if segments is None:
            segments = request.uri.path_segments()
        if len(segments) != len(self.parts):
            return None
        captures: Dict[str, str] = {}
        for pattern, segment in zip(self.parts, segments):
            if pattern.startswith("<") and pattern.endswith(">"):
                captures[pattern[1:-1]] = segment
            elif pattern != segment:
                return None
        return captures


class OriginServer(Endpoint):
    """A simulated origin with REST routes."""

    def __init__(self, sim: Simulator, origin: str, catalog=None) -> None:
        self.sim = sim
        self.origin = origin
        self.catalog = catalog
        self.routes: List[Route] = []
        self.request_count = 0
        self.requests_by_route: Dict[str, int] = {}
        #: fault injection: route name -> HTTP status to force
        self.forced_errors: Dict[str, int] = {}
        #: fault injection: route names that hang (never respond usefully)
        self.hanging_routes: set = set()
        #: seconds after which rotating content (feeds) changes
        self.rotation_period: float = 3600.0
        #: user -> the ``bsid`` Set-Cookie value, a pure function of
        #: origin and user
        self._session_cookies: Dict[str, str] = {}

    # -- route registration ------------------------------------------------
    def route(
        self,
        method: str,
        path: str,
        handler: Handler,
        service_time: float = 0.03,
        name: str = "",
    ) -> None:
        self.routes.append(Route(method, path, handler, service_time, name))

    # -- fault injection -----------------------------------------------------
    def force_error(self, route_name: str, status: int = 500) -> None:
        self.forced_errors[route_name] = status

    def clear_faults(self) -> None:
        self.forced_errors.clear()
        self.hanging_routes.clear()

    def hang(self, route_name: str) -> None:
        self.hanging_routes.add(route_name)

    # -- content rotation -----------------------------------------------------
    def content_version(self) -> int:
        """Monotone counter; rotating content keys off it."""
        if self.rotation_period <= 0:
            return 0
        return int(self.sim.now // self.rotation_period)

    # -- Endpoint ----------------------------------------------------------------
    def handle(self, request: Request, user: str) -> Generator:
        self.request_count += 1
        segments = request.uri.path_segments()
        for route in self.routes:
            captures = route.match(request, segments)
            if captures is None:
                continue
            self.requests_by_route[route.name] = (
                self.requests_by_route.get(route.name, 0) + 1
            )
            if route.name in self.hanging_routes:
                yield Delay(30.0)  # long stall, then a gateway timeout
                return Response(504, body=JsonBody({"error": "timeout"}))
            yield Delay(route.service_time)
            if route.name in self.forced_errors:
                return self._error(self.forced_errors[route.name])
            request._captures = captures  # stashed for the handler
            response = route.handler(self, request, user)
            self._attach_session(request, response, user)
            return response
        yield Delay(0.005)
        return self._error(404)

    # -- helpers ----------------------------------------------------------------
    def _error(self, status: int) -> Response:
        return Response(status, body=JsonBody({"error": status}))

    def _attach_session(self, request: Request, response: Response, user: str) -> None:
        cookie_header = request.headers.get("Cookie", "")
        has_session = any(
            name == "bsid" for name, _ in parse_cookie_header(cookie_header or "")
        )
        if not has_session:
            # session ids are stable per (origin, user): re-issuing on a
            # cookie-less request (e.g. an image fetch) must not rotate
            # the session the client already holds
            cookie = self._session_cookies.get(user)
            if cookie is None:
                cookie = self._session_cookies[user] = "bsid={}-{}".format(
                    user, stable_id(self.origin, "session", user)
                )
            response.headers.add("Set-Cookie", cookie)

    @staticmethod
    def json(payload, headers: Optional[Headers] = None, status: int = 200) -> Response:
        return Response(status, headers=headers or Headers(), body=JsonBody(payload))
