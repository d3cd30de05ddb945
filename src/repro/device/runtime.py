"""Concrete app interpreter running inside the network simulator.

:class:`AppRuntime` executes the same IR the static analyzer reads,
with real values: ``Env.*`` comes from the :class:`DeviceProfile`,
``Http.execute`` sends a real :class:`~repro.httpmsg.Request` through
the configured :class:`~repro.netsim.Transport` (direct, or through
the acceleration proxy), and ``Set-Cookie`` headers land in a cookie
jar.  Every user event dispatch is measured from input to final render
— the paper's Frida-measured *user-perceived latency*.

Interpretation is generator-based: ``Http.execute`` suspends the
interpreter into the simulator until the response arrives, so parallel
``ForEach`` bodies genuinely overlap in virtual time.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.apk.ir import (
    Block,
    CallMethod,
    Const,
    ForEach,
    GetField,
    If,
    Instruction,
    Invoke,
    MethodRef,
    Move,
    New,
    PutField,
    Return,
)
from repro.apk.program import ApkFile, Component
from repro.device.profile import DeviceProfile
from repro.httpmsg.body import BlobBody, FormBody, JsonBody
from repro.httpmsg.cookies import CookieJar
from repro.httpmsg.message import Request, Response, Transaction
from repro.httpmsg.uri import Uri
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import Transport

#: HTTP connection-pool size per origin (OkHttp-style: a device opens
#: a handful of concurrent connections per host, so 30 thumbnail
#: fetches drain in waves and each wave pays the origin round trip)
MAX_CONNECTIONS_PER_ORIGIN = 6


class InteractionResult:
    """Measurement of one user interaction (or the app launch)."""

    def __init__(
        self,
        event: str,
        screen: str,
        started_at: float,
        finished_at: float,
        processing_delay: float,
        transactions: List[Transaction],
    ) -> None:
        self.event = event
        self.screen = screen
        self.started_at = started_at
        self.finished_at = finished_at
        self.processing_delay = processing_delay
        self.transactions = transactions

    @property
    def latency(self) -> float:
        """User-perceived latency: input event → rendered output."""
        return self.finished_at - self.started_at

    @property
    def network_delay(self) -> float:
        return max(0.0, self.latency - self.processing_delay)

    def __repr__(self) -> str:
        return "InteractionResult({}, {:.3f}s)".format(self.event, self.latency)


class _ConcreteObj:
    """Concrete heap object (component instance or plain object)."""

    __slots__ = ("class_name", "fields")

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name
        self.fields: Dict[str, Any] = {}


class _Intent:
    __slots__ = ("extras",)

    def __init__(self) -> None:
        self.extras: Dict[str, Any] = {}


class _Obs:
    """Concrete Rx observable: an already-materialized value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class _RequestBuilder:
    """Mutable request under construction (mirrors ``ARequest``)."""

    def __init__(self, method: str, url: str) -> None:
        self.method = method
        self.url = url
        self.headers: List = []
        self.query: List = []
        self.form: List = []
        self.json_body: Optional[Any] = None

    def build(self) -> Request:
        uri = Uri.parse(self.url)
        request = Request(method=self.method, uri=uri)
        for name, value in self.headers:
            request.headers.add(name, str(value))
        for key, value in self.query:
            request.uri.query_add(key, value)
        if self.json_body is not None:
            request.body = JsonBody(self.json_body)
        elif self.form:
            request.body = FormBody([(k, str(v)) for k, v in self.form])
        return request


class _Frame:
    __slots__ = ("env", "returned", "done")

    def __init__(self, env: Dict[str, Any]) -> None:
        self.env = env
        self.returned: Any = None
        self.done = False


class AppRuntime:
    """Executes an app program for one user on one device."""

    def __init__(
        self,
        apk: ApkFile,
        transport: Transport,
        sim: Simulator,
        profile: Optional[DeviceProfile] = None,
    ) -> None:
        self.apk = apk
        self.transport = transport
        self.sim = sim
        self.profile = profile or DeviceProfile()
        self.cookie_jar = CookieJar()
        self.current_screen: Optional[str] = None
        self.transaction_log: List[Transaction] = []
        self.interactions: List[InteractionResult] = []
        self._instances: Dict[str, _ConcreteObj] = {}
        self._nonce_counter = 0
        self._current_transactions: List[Transaction] = []
        self._active_connections: Dict[str, int] = {}
        self._connection_waiters: Dict[str, List] = {}

    # ------------------------------------------------------------------
    # public interaction API (all are simulator processes)
    # ------------------------------------------------------------------
    def launch(self) -> Generator:
        """Process: launch the app (main component lifecycle)."""
        return self._run_interaction(
            "launch", lambda: self._start_component(self.apk.main(), _Intent()), "launch"
        )

    def dispatch(self, event_name: str, index: Optional[int] = None) -> Generator:
        """Process: fire a user event on the current screen."""
        if self.current_screen is None:
            raise RuntimeError("app not launched")
        screen = self.apk.screen(self.current_screen)
        event = screen.event(event_name)
        method = self.apk.resolve(event.handler)
        owner = self._component_for_screen(screen.name)
        args: List[Any] = [self._instance(owner)]
        if event.takes_index:
            args.append(index if index is not None else 0)
        args = args[: len(method.params)]
        while len(args) < len(method.params):
            args.append(None)
        return self._run_interaction(
            event_name,
            lambda: self._interp_method(event.handler, args),
            "interaction",
        )

    def available_events(self) -> List[str]:
        if self.current_screen is None:
            return []
        return self.apk.screen(self.current_screen).event_names()

    # ------------------------------------------------------------------
    def _run_interaction(self, name: str, body_factory, processing_kind: str) -> Generator:
        started_at = self.sim.now
        previous = self._current_transactions
        self._current_transactions = []
        yield from body_factory()
        processing = self.profile.processing_delay(processing_kind)
        if processing:
            yield Delay(processing)
        result = InteractionResult(
            event=name,
            screen=self.current_screen or "",
            started_at=started_at,
            finished_at=self.sim.now,
            processing_delay=processing,
            transactions=self._current_transactions,
        )
        self._current_transactions = previous
        self.interactions.append(result)
        return result

    def _component_for_screen(self, screen_name: str) -> Component:
        for component in self.apk.components.values():
            if component.screen == screen_name:
                return component
        raise KeyError("no component renders screen {!r}".format(screen_name))

    def _instance(self, component: Component) -> _ConcreteObj:
        if component.name not in self._instances:
            self._instances[component.name] = _ConcreteObj(component.class_name)
        return self._instances[component.name]

    def _start_component(self, component: Component, intent: _Intent) -> Generator:
        method = self.apk.resolve(component.start_ref)
        args: List[Any] = [self._instance(component), intent]
        args = args[: len(method.params)]
        while len(args) < len(method.params):
            args.append(None)
        if component.screen is not None:
            self.current_screen = component.screen
        yield from self._interp_method(component.start_ref, args)

    # ------------------------------------------------------------------
    # interpretation
    # ------------------------------------------------------------------
    def _interp_method(self, ref: MethodRef, args: List[Any]) -> Generator:
        method = self.apk.resolve(ref)
        frame = _Frame(dict(zip(method.params, args)))
        yield from self._interp_block(method.body, frame)
        return frame.returned

    def _interp_block(self, block: Block, frame: _Frame) -> Generator:
        for instruction in block:
            if frame.done:
                return
            yield from self._interp_instruction(instruction, frame)

    def _interp_instruction(self, instruction: Instruction, frame: _Frame) -> Generator:
        env = frame.env
        if isinstance(instruction, Const):
            env[instruction.dst] = instruction.value
        elif isinstance(instruction, Move):
            env[instruction.dst] = env[instruction.src]
        elif isinstance(instruction, New):
            env[instruction.dst] = _ConcreteObj(instruction.class_name)
        elif isinstance(instruction, GetField):
            obj = env[instruction.obj]
            if isinstance(obj, _ConcreteObj):
                env[instruction.dst] = obj.fields.get(instruction.field)
            elif isinstance(obj, dict):
                env[instruction.dst] = obj.get(instruction.field)
            else:
                env[instruction.dst] = None
        elif isinstance(instruction, PutField):
            obj = env[instruction.obj]
            if isinstance(obj, _ConcreteObj):
                obj.fields[instruction.field] = env[instruction.src]
            elif isinstance(obj, dict):
                obj[instruction.field] = env[instruction.src]
        elif isinstance(instruction, Invoke):
            result = yield from self._invoke(instruction, frame)
            if instruction.dst is not None:
                env[instruction.dst] = result
        elif isinstance(instruction, CallMethod):
            value = yield from self._interp_method(
                instruction.ref, [env[a] for a in instruction.args]
            )
            if instruction.dst is not None:
                env[instruction.dst] = value
        elif isinstance(instruction, If):
            taken = instruction.then_block if env[instruction.cond] else instruction.else_block
            yield from self._interp_block(taken, frame)
        elif isinstance(instruction, ForEach):
            yield from self._interp_foreach(instruction, frame)
        elif isinstance(instruction, Return):
            frame.returned = env[instruction.src] if instruction.src else None
            frame.done = True
        else:  # pragma: no cover
            raise TypeError("unknown instruction {!r}".format(instruction))

    def _interp_foreach(self, instruction: ForEach, frame: _Frame) -> Generator:
        source = frame.env[instruction.src]
        items = source if isinstance(source, list) else []
        if not instruction.parallel:
            for item in items:
                frame.env[instruction.var] = item
                yield from self._interp_block(instruction.body, frame)
            return
        # parallel: each iteration is its own simulator process over a
        # forked frame (registers defined inside stay per-iteration)
        processes = []
        for item in items:
            iteration_frame = _Frame(dict(frame.env))
            iteration_frame.env[instruction.var] = item
            processes.append(
                self.sim.spawn(self._interp_block(instruction.body, iteration_frame))
            )
        for process in processes:
            yield process

    # ------------------------------------------------------------------
    # API dispatch
    # ------------------------------------------------------------------
    def _invoke(self, instruction: Invoke, frame: _Frame) -> Generator:
        api = instruction.api
        args = [frame.env[a] for a in instruction.args]

        # --- network (the only genuinely asynchronous API) -----------
        if api == "Http.execute":
            return (yield from self._execute(args[0]))
        if api == "Rx.defer":
            fn = args[0]
            result = yield from self._rx_call(frame, fn, [])
            return result if isinstance(result, _Obs) else _Obs(result)
        if api == "Rx.map":
            obs, fn = args
            value = obs.value if isinstance(obs, _Obs) else obs
            result = yield from self._rx_call(frame, fn, [value])
            return _Obs(result)
        if api == "Rx.flatMap":
            obs, fn = args
            value = obs.value if isinstance(obs, _Obs) else obs
            result = yield from self._rx_call(frame, fn, [value])
            return result if isinstance(result, _Obs) else _Obs(result)
        if api == "Rx.zip":
            left, right, fn = args
            lvalue = left.value if isinstance(left, _Obs) else left
            rvalue = right.value if isinstance(right, _Obs) else right
            result = yield from self._rx_call(frame, fn, [lvalue, rvalue])
            return result if isinstance(result, _Obs) else _Obs(result)
        if api == "Rx.subscribe":
            obs, fn = args
            value = obs.value if isinstance(obs, _Obs) else obs
            yield from self._rx_call(frame, fn, [value])
            return None
        if api == "Component.start":
            intent, name = args
            component = self.apk.components[str(name)]
            carried = intent if isinstance(intent, _Intent) else _Intent()
            yield from self._start_component(component, carried)
            return None

        # --- synchronous APIs ----------------------------------------
        return self._invoke_sync(api, args)

    def _rx_call(self, frame: _Frame, fn: Any, upstream: List[Any]) -> Generator:
        ref = MethodRef.parse(str(fn))
        this = frame.env.get("this")
        result = yield from self._interp_method(ref, [this] + upstream)
        return result

    def _invoke_sync(self, api: str, args: List[Any]) -> Any:
        if api == "Str.concat":
            return "{}{}".format(_text(args[0]), _text(args[1]))
        if api == "Http.newRequest":
            return _RequestBuilder(str(args[0]), _text(args[1]))
        if api == "Http.addHeader":
            args[0].headers.append((str(args[1]), args[2]))
            return None
        if api == "Http.addQuery":
            args[0].query.append((str(args[1]), args[2]))
            return None
        if api == "Http.addFormField":
            args[0].form.append((str(args[1]), args[2]))
            return None
        if api == "Http.setJsonBody":
            args[0].json_body = args[1]
            return None
        if api == "Http.bodyJson":
            response = args[0]
            if isinstance(response, Response) and isinstance(response.body, JsonBody):
                return response.body.value
            return {}
        if api == "Http.bodyBlob":
            response = args[0]
            if isinstance(response, Response) and isinstance(response.body, BlobBody):
                return response.body.label
            return ""
        if api == "Http.header":
            response = args[0]
            if isinstance(response, Response):
                return response.headers.get(str(args[1]), "")
            return ""
        if api == "Json.new":
            return {}
        if api == "Json.put":
            if isinstance(args[0], dict):
                args[0][str(args[1])] = args[2]
            return None
        if api == "Json.get":
            if isinstance(args[0], dict):
                return args[0].get(str(args[1]))
            if isinstance(args[0], _Intent):
                return args[0].extras.get(str(args[1]))
            return None
        if api == "Json.index":
            sequence, index = args
            if isinstance(sequence, list) and sequence:
                if not isinstance(index, int):
                    index = 0
                index = max(0, min(index, len(sequence) - 1))
                return sequence[index]
            return None
        if api == "Json.has":
            if isinstance(args[0], dict):
                return str(args[1]) in args[0] and args[0][str(args[1])] is not None
            return False
        if api == "List.new":
            return []
        if api == "List.add":
            if isinstance(args[0], list):
                args[0].append(args[1])
            return None
        if api == "Intent.new":
            return _Intent()
        if api == "Intent.putExtra":
            if isinstance(args[0], _Intent):
                args[0].extras[str(args[1])] = args[2]
            return None
        if api == "Intent.getExtra":
            if isinstance(args[0], _Intent):
                return args[0].extras.get(str(args[1]))
            return None
        if api == "Rx.just":
            return _Obs(args[0])
        if api == "Env.userAgent":
            return self.profile.user_agent
        if api == "Env.cookie":
            return self.cookie_jar.cookie_header(self._primary_origin())
        if api == "Env.config":
            return self.profile.config_value(str(args[0]), self.apk.config_defaults)
        if api == "Env.deviceId":
            return self.profile.device_id
        if api == "Env.flag":
            return self.profile.flag(str(args[0]))
        if api == "Env.nonce":
            self._nonce_counter += 1
            return "nonce-{}-{}".format(self.profile.user, self._nonce_counter)
        if api == "Ui.render":
            return None
        raise KeyError("no concrete semantics for {}".format(api))

    def _primary_origin(self) -> str:
        host = self.profile.config_value("api_host", self.apk.config_defaults)
        if not host:
            return ""
        try:
            return Uri.parse(host).origin()
        except ValueError:
            return host

    # ------------------------------------------------------------------
    def _execute(self, builder: _RequestBuilder) -> Generator:
        request = builder.build()
        origin = request.uri.origin()
        started_at = self.sim.now
        yield from self._acquire_connection(origin)
        try:
            response = yield from self.transport.send(request, self.profile.user)
        finally:
            self._release_connection(origin)
        transaction = Transaction(
            request=request,
            response=response,
            started_at=started_at,
            finished_at=self.sim.now,
            user=self.profile.user,
        )
        self.transaction_log.append(transaction)
        self._current_transactions.append(transaction)
        self.cookie_jar.store_from_response(origin, response)
        return response

    def _acquire_connection(self, origin: str) -> Generator:
        while self._active_connections.get(origin, 0) >= MAX_CONNECTIONS_PER_ORIGIN:
            waiter = self.sim.event()
            self._connection_waiters.setdefault(origin, []).append(waiter)
            yield waiter
        self._active_connections[origin] = self._active_connections.get(origin, 0) + 1

    def _release_connection(self, origin: str) -> None:
        self._active_connections[origin] = max(
            0, self._active_connections.get(origin, 0) - 1
        )
        waiters = self._connection_waiters.get(origin)
        if waiters:
            waiters.pop(0).succeed(None)


def _text(value: Any) -> str:
    if value is None:
        return ""
    return str(value)
