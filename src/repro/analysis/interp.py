"""Abstract interpretation of app entry points.

Walks every entry point of the program (the main component's lifecycle
method, then every screen event handler), propagating abstract values
(:mod:`repro.analysis.absval`) through registers, heap objects,
Intents, and Rx chains.  Every ``Http.execute`` reached records a
*transaction site* snapshot; :mod:`repro.analysis.signatures` merges
snapshots into :class:`~repro.analysis.model.TransactionSignature`.

Design notes mirroring the paper:

* **Branch conditions** (§4.2, Fig. 8): an ``If`` on a run-time-unknown
  condition interprets both arms, tagging request-field additions with
  a branch context; the signature builder expands the contexts into
  field-set *variants*.
* **Intent map** (§4.1): ``Intent.putExtra``/``getExtra`` pairs carry
  abstract values across components; ``Component.start`` inlines the
  target's lifecycle handler.
* **Rx semantics** (§4.1): ``map``/``flatMap``/``defer``/``subscribe``
  apply their function references to the wrapped abstract value.
* **Heap/alias precision** (§4.1): heap objects are shared by
  reference, so flows through aliased objects resolve; the
  ``precise_heap=False`` ablation deliberately loses them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.absval import (
    ABlob,
    AConst,
    AEntry,
    AIntent,
    AJson,
    AList,
    AObj,
    AObs,
    ARequest,
    AResp,
    ARespHeader,
    ARespJson,
    AUnknown,
    AVal,
    concat,
)
from repro.apk.api import unknown_tag
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
from repro.httpmsg.fieldpath import ALL, FieldPath


#: interpretation stops descending into calls this deep (bounds recursion)
MAX_CALL_DEPTH = 24
#: a ``ForEach`` over an app-built list interprets at most this many items
MAX_LIST_ITERATIONS = 8


class AnalysisOptions:
    """Analysis feature switches (the paper's three §4.1 extensions)."""

    def __init__(
        self,
        intent_support: bool = True,
        rx_support: bool = True,
        precise_heap: bool = True,
    ) -> None:
        self.intent_support = intent_support
        self.rx_support = rx_support
        self.precise_heap = precise_heap


class SiteSnapshot:
    """One abstract request observed at a transaction site."""

    __slots__ = ("request", "exec_branch", "side_effect")

    def __init__(self, request: ARequest, exec_branch, side_effect: bool) -> None:
        self.request = request
        self.exec_branch = exec_branch
        self.side_effect = side_effect


class SiteRecorder:
    """Accumulates everything observed about each transaction site."""

    def __init__(self) -> None:
        self.snapshots: Dict[str, List[SiteSnapshot]] = {}
        self.response_paths: Dict[str, Set[FieldPath]] = {}
        self.response_headers: Dict[str, Set[str]] = {}
        self.response_kind: Dict[str, str] = {}
        self.site_order: List[str] = []

    def record_request(self, site: str, snapshot: SiteSnapshot) -> None:
        if site not in self.snapshots:
            self.snapshots[site] = []
            self.site_order.append(site)
        self.snapshots[site].append(snapshot)

    def record_path(self, site: str, path: FieldPath) -> None:
        self.response_paths.setdefault(site, set()).add(path)

    def record_header(self, site: str, name: str) -> None:
        self.response_headers.setdefault(site, set()).add(name)

    def record_kind(self, site: str, kind: str) -> None:
        self.response_kind[site] = kind


class _Frame:
    __slots__ = ("env", "returned", "done")

    def __init__(self, env: Dict[str, AVal]) -> None:
        self.env = env
        self.returned: AVal = AConst(None)
        self.done = False


class AbstractInterpreter:
    """Whole-app abstract interpretation pass."""

    def __init__(self, apk: ApkFile, options: Optional[AnalysisOptions] = None) -> None:
        self.apk = apk
        self.options = options or AnalysisOptions()
        self.recorder = SiteRecorder()
        self._site_names: Dict[int, str] = {}
        self._branch_names: Dict[int, str] = {}
        self._index_sites()
        self._instances: Dict[str, AObj] = {}
        self._branch_stack: List[Tuple[str, str]] = []
        self._call_depth = 0
        self._active_components: Set[str] = set()
        self._ever_started: Set[str] = set()
        self._current_side_effect = False

    # ------------------------------------------------------------------
    # site naming: Class.method#k for the k-th execute in that method
    # ------------------------------------------------------------------
    def _index_sites(self) -> None:
        for method in self.apk.all_methods():
            execute_index = 0
            branch_index = 0
            for instruction in method.body.walk():
                if isinstance(instruction, Invoke) and instruction.api == "Http.execute":
                    self._site_names[id(instruction)] = "{}#{}".format(
                        method.ref.to_string(), execute_index
                    )
                    execute_index += 1
                if isinstance(instruction, If):
                    self._branch_names[id(instruction)] = "{}@b{}".format(
                        method.ref.to_string(), branch_index
                    )
                    branch_index += 1

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self) -> SiteRecorder:
        """Interpret every entry point; return the populated recorder."""
        main = self.apk.main()
        self._start_component(main, AIntent())
        for screen in self.apk.screens.values():
            owner = self._component_for_screen(screen.name)
            if owner is None:
                continue
            for event in screen.events.values():
                self._current_side_effect = event.side_effect
                method = self.apk.resolve(event.handler)
                args: List[AVal] = [self._instance(owner)]
                if event.takes_index:
                    args.append(AUnknown("ui:index"))
                # handlers may declare (this) or (this, index)
                args = args[: len(method.params)]
                while len(args) < len(method.params):
                    args.append(AUnknown("ui:arg"))
                self._interp_method(event.handler, args)
                self._current_side_effect = False
        # components never reached interactively (background services,
        # push-notification handlers) are still static entry points —
        # this is exactly the coverage UI fuzzing cannot reach (§6.1)
        for component in self.apk.components.values():
            if component.name not in self._ever_started:
                self._start_component(component, AIntent())
        return self.recorder

    def _component_for_screen(self, screen_name: str) -> Optional[Component]:
        for component in self.apk.components.values():
            if component.screen == screen_name:
                return component
        return None

    def _instance(self, component: Component) -> AObj:
        if component.name not in self._instances:
            self._instances[component.name] = AObj(
                component.class_name, "component:{}".format(component.name)
            )
        return self._instances[component.name]

    def _start_component(self, component: Component, intent: AVal) -> None:
        if component.name in self._active_components:
            return  # avoid start cycles
        self._active_components.add(component.name)
        self._ever_started.add(component.name)
        try:
            method = self.apk.resolve(component.start_ref)
            args: List[AVal] = [self._instance(component), intent]
            args = args[: len(method.params)]
            while len(args) < len(method.params):
                args.append(AUnknown("lifecycle:arg"))
            self._interp_method(component.start_ref, args)
        finally:
            self._active_components.discard(component.name)

    # ------------------------------------------------------------------
    # method / block interpretation
    # ------------------------------------------------------------------
    def _interp_method(self, ref: MethodRef, args: List[AVal]) -> AVal:
        if self._call_depth >= MAX_CALL_DEPTH:
            return AUnknown("depth:{}".format(ref.to_string()))
        method = self.apk.resolve(ref)
        frame = _Frame(dict(zip(method.params, args)))
        self._call_depth += 1
        try:
            self._interp_block(method.body, frame)
        finally:
            self._call_depth -= 1
        return frame.returned

    def _interp_block(self, block: Block, frame: _Frame) -> None:
        for instruction in block:
            if frame.done:
                return
            self._interp_instruction(instruction, frame)

    def _interp_instruction(self, instruction: Instruction, frame: _Frame) -> None:
        env = frame.env
        if isinstance(instruction, Const):
            env[instruction.dst] = AConst(instruction.value)
        elif isinstance(instruction, Move):
            env[instruction.dst] = env[instruction.src]
        elif isinstance(instruction, New):
            env[instruction.dst] = AObj(
                instruction.class_name, "alloc:{}".format(id(instruction))
            )
        elif isinstance(instruction, GetField):
            env[instruction.dst] = self._get_field(env[instruction.obj], instruction.field)
        elif isinstance(instruction, PutField):
            target = env[instruction.obj]
            if isinstance(target, AObj):
                target.fields[instruction.field] = env[instruction.src]
        elif isinstance(instruction, Invoke):
            result = self._invoke(instruction, frame)
            if instruction.dst is not None:
                env[instruction.dst] = result if result is not None else AUnknown("void")
        elif isinstance(instruction, CallMethod):
            value = self._interp_method(
                instruction.ref, [env[a] for a in instruction.args]
            )
            if instruction.dst is not None:
                env[instruction.dst] = value
        elif isinstance(instruction, If):
            self._interp_if(instruction, frame)
        elif isinstance(instruction, ForEach):
            self._interp_foreach(instruction, frame)
        elif isinstance(instruction, Return):
            frame.returned = env[instruction.src] if instruction.src else AConst(None)
            frame.done = True
        else:  # pragma: no cover
            raise TypeError("unknown instruction {!r}".format(instruction))

    def _get_field(self, obj: AVal, field: str) -> AVal:
        if isinstance(obj, AObj):
            if not self.options.precise_heap and not obj.site.startswith("component:"):
                # ablation: without on-demand alias analysis the value
                # stored through another alias is not recovered
                return AUnknown("heap:unmodeled:{}".format(field))
            return obj.fields.get(field, AUnknown("field:{}".format(field)))
        if isinstance(obj, ARespJson):
            self.recorder.record_path(obj.site, obj.child(field).field_path())
            return obj.child(field)
        return AUnknown("field:{}".format(field))

    def _interp_if(self, instruction: If, frame: _Frame) -> None:
        cond = frame.env[instruction.cond]
        if isinstance(cond, AConst):
            taken = instruction.then_block if cond.value else instruction.else_block
            self._interp_block(taken, frame)
            return
        branch_id = self._branch_names.get(id(instruction), "b?{}".format(id(instruction)))
        for arm, block in (("then", instruction.then_block), ("else", instruction.else_block)):
            self._branch_stack.append((branch_id, arm))
            done_before = frame.done
            self._interp_block(block, frame)
            # a Return inside one abstract arm must not kill the other
            frame.done = done_before
            self._branch_stack.pop()

    def _interp_foreach(self, instruction: ForEach, frame: _Frame) -> None:
        source = frame.env[instruction.src]
        if isinstance(source, ARespJson):
            element = source.child(ALL)
            self.recorder.record_path(source.site, element.field_path())
            frame.env[instruction.var] = element
            self._interp_block(instruction.body, frame)
        elif isinstance(source, AList):
            for item in source.items[:MAX_LIST_ITERATIONS]:
                frame.env[instruction.var] = item
                self._interp_block(instruction.body, frame)
        else:
            frame.env[instruction.var] = AUnknown("foreach:element")
            self._interp_block(instruction.body, frame)

    # ------------------------------------------------------------------
    # API dispatch
    # ------------------------------------------------------------------
    def _invoke(self, instruction: Invoke, frame: _Frame) -> Optional[AVal]:
        api = instruction.api
        args = [frame.env[a] for a in instruction.args]
        handler = getattr(self, "_api_" + api.replace(".", "_"), None)
        if handler is None:
            raise KeyError("no abstract semantics for {}".format(api))
        return handler(instruction, frame, args)

    # strings ------------------------------------------------------------
    def _api_Str_concat(self, instruction, frame, args):
        return concat(args[0], args[1])

    # HTTP request construction -------------------------------------------
    def _api_Http_newRequest(self, instruction, frame, args):
        return ARequest(args[0], args[1])

    def _branch_ctx(self):
        return tuple(self._branch_stack)

    def _api_Http_addHeader(self, instruction, frame, args):
        request, name, value = args
        if isinstance(request, ARequest) and isinstance(name, AConst):
            request.headers.append(AEntry(str(name.value), value, self._branch_ctx()))
        return None

    def _api_Http_addQuery(self, instruction, frame, args):
        request, key, value = args
        if isinstance(request, ARequest) and isinstance(key, AConst):
            request.query.append(AEntry(str(key.value), value, self._branch_ctx()))
        return None

    def _api_Http_addFormField(self, instruction, frame, args):
        request, key, value = args
        if isinstance(request, ARequest) and isinstance(key, AConst):
            request.form.append(AEntry(str(key.value), value, self._branch_ctx()))
        return None

    def _api_Http_setJsonBody(self, instruction, frame, args):
        request, body = args
        if isinstance(request, ARequest):
            request.json_body = body
        return None

    def _api_Http_execute(self, instruction, frame, args):
        request = args[0]
        site = self._site_names[id(instruction)]
        if isinstance(request, ARequest):
            snapshot = SiteSnapshot(
                request.clone({}), self._branch_ctx(), self._current_side_effect
            )
            self.recorder.record_request(site, snapshot)
        return AResp(site)

    # HTTP response consumption -------------------------------------------
    def _api_Http_bodyJson(self, instruction, frame, args):
        response = args[0]
        if isinstance(response, AResp):
            self.recorder.record_kind(response.site, "json")
            return ARespJson(response.site, ())
        return AUnknown("body:json")

    def _api_Http_bodyBlob(self, instruction, frame, args):
        response = args[0]
        if isinstance(response, AResp):
            self.recorder.record_kind(response.site, "blob")
            return ABlob(response.site)
        return AUnknown("body:blob")

    def _api_Http_header(self, instruction, frame, args):
        response, name = args
        if isinstance(response, AResp) and isinstance(name, AConst):
            self.recorder.record_header(response.site, str(name.value))
            return ARespHeader(response.site, str(name.value))
        return AUnknown("resp:header")

    # JSON ----------------------------------------------------------------
    def _api_Json_new(self, instruction, frame, args):
        return AJson()

    def _api_Json_put(self, instruction, frame, args):
        obj, key, value = args
        if isinstance(obj, AJson) and isinstance(key, AConst):
            obj.entries[str(key.value)] = value
        return None

    def _api_Json_get(self, instruction, frame, args):
        obj, key = args
        key_text = str(key.value) if isinstance(key, AConst) else None
        if isinstance(obj, AJson):
            if key_text is not None and key_text in obj.entries:
                return obj.entries[key_text]
            return AUnknown("json:missing:{}".format(key_text))
        if isinstance(obj, ARespJson) and key_text is not None:
            child = obj.child(key_text)
            self.recorder.record_path(obj.site, child.field_path())
            return child
        if isinstance(obj, AIntent):
            return self._intent_get(obj, key_text)
        return AUnknown("json:get")

    def _api_Json_index(self, instruction, frame, args):
        obj, index = args
        if isinstance(obj, ARespJson):
            element = obj.child(ALL)
            self.recorder.record_path(obj.site, element.field_path())
            return element
        if isinstance(obj, AList):
            if isinstance(index, AConst):
                i = index.value
                if isinstance(i, int) and 0 <= i < len(obj.items):
                    return obj.items[i]
            # unknown index: any element may be selected; the elements
            # of an app-built list are abstractions of the same shape
            # (e.g. every flattened menu item), so the first stands in
            if obj.items:
                return obj.items[0]
        return AUnknown("json:index")

    def _api_Json_has(self, instruction, frame, args):
        obj, key = args
        key_text = str(key.value) if isinstance(key, AConst) else "?"
        if isinstance(obj, AJson):
            return AConst(key_text in obj.entries)
        if isinstance(obj, ARespJson):
            self.recorder.record_path(obj.site, obj.child(key_text).field_path())
        return AUnknown("cond:has:{}".format(key_text))

    # lists ----------------------------------------------------------------
    def _api_List_new(self, instruction, frame, args):
        return AList()

    def _api_List_add(self, instruction, frame, args):
        target, value = args
        if isinstance(target, AList):
            target.items.append(value)
        return None

    # Intents ---------------------------------------------------------------
    def _api_Intent_new(self, instruction, frame, args):
        return AIntent()

    def _api_Intent_putExtra(self, instruction, frame, args):
        intent, key, value = args
        if not self.options.intent_support:
            return None
        if isinstance(intent, AIntent) and isinstance(key, AConst):
            intent.extras[str(key.value)] = value
        return None

    def _api_Intent_getExtra(self, instruction, frame, args):
        intent, key = args
        key_text = str(key.value) if isinstance(key, AConst) else None
        if isinstance(intent, AIntent):
            return self._intent_get(intent, key_text)
        return AUnknown("intent:unmodeled")

    def _intent_get(self, intent: AIntent, key_text: Optional[str]) -> AVal:
        if not self.options.intent_support:
            return AUnknown("intent:unmodeled")
        if key_text is not None and key_text in intent.extras:
            return intent.extras[key_text]
        return AUnknown("intent:extra:{}".format(key_text))

    def _api_Component_start(self, instruction, frame, args):
        intent, name = args
        if not isinstance(name, AConst):
            return None
        component = self.apk.components.get(str(name.value))
        if component is None:
            return None
        carried = intent if self.options.intent_support else AIntent()
        self._start_component(component, carried)
        return None

    # Rx ---------------------------------------------------------------------
    def _rx_callback(self, frame, fn: AVal, upstream: List[AVal]) -> AVal:
        ref = MethodRef.parse(str(fn.value))
        this = frame.env.get("this", AUnknown("rx:this"))
        return self._interp_method(ref, [this] + upstream)

    def _api_Rx_just(self, instruction, frame, args):
        return AObs(args[0])

    def _api_Rx_defer(self, instruction, frame, args):
        if not self.options.rx_support:
            return AObs(AUnknown("rx:unmodeled"))
        result = self._rx_callback(frame, args[0], [])
        return result if isinstance(result, AObs) else AObs(result)

    def _api_Rx_map(self, instruction, frame, args):
        obs, fn = args
        if not self.options.rx_support or not isinstance(obs, AObs):
            return AObs(AUnknown("rx:unmodeled"))
        return AObs(self._rx_callback(frame, fn, [obs.value]))

    def _api_Rx_flatMap(self, instruction, frame, args):
        obs, fn = args
        if not self.options.rx_support or not isinstance(obs, AObs):
            return AObs(AUnknown("rx:unmodeled"))
        result = self._rx_callback(frame, fn, [obs.value])
        return result if isinstance(result, AObs) else AObs(result)

    def _api_Rx_zip(self, instruction, frame, args):
        left, right, fn = args
        if (
            not self.options.rx_support
            or not isinstance(left, AObs)
            or not isinstance(right, AObs)
        ):
            return AObs(AUnknown("rx:unmodeled"))
        result = self._rx_callback(frame, fn, [left.value, right.value])
        return result if isinstance(result, AObs) else AObs(result)

    def _api_Rx_subscribe(self, instruction, frame, args):
        obs, fn = args
        if not self.options.rx_support or not isinstance(obs, AObs):
            return None
        self._rx_callback(frame, fn, [obs.value])
        return None

    # environment -----------------------------------------------------------
    def _env_unknown(self, api: str, args: List[AVal]) -> AUnknown:
        literal = None
        if args and isinstance(args[0], AConst):
            literal = str(args[0].value)
        return AUnknown(unknown_tag(api, literal))

    def _api_Env_userAgent(self, instruction, frame, args):
        return self._env_unknown("Env.userAgent", args)

    def _api_Env_cookie(self, instruction, frame, args):
        return self._env_unknown("Env.cookie", args)

    def _api_Env_config(self, instruction, frame, args):
        return self._env_unknown("Env.config", args)

    def _api_Env_deviceId(self, instruction, frame, args):
        return self._env_unknown("Env.deviceId", args)

    def _api_Env_flag(self, instruction, frame, args):
        return self._env_unknown("Env.flag", args)

    def _api_Env_nonce(self, instruction, frame, args):
        return self._env_unknown("Env.nonce", args)

    # UI ----------------------------------------------------------------------
    def _api_Ui_render(self, instruction, frame, args):
        return None
