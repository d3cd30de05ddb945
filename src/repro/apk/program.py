"""Program-level containers: methods, classes, components, screens, APK."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apk.ir import Block, MethodRef


class Method:
    """A method body with named parameters."""

    def __init__(self, name: str, params: List[str], body: Optional[Block] = None) -> None:
        self.name = name
        self.params = list(params)
        self.body = body if body is not None else Block()
        self.class_name: Optional[str] = None  # set when attached

    @property
    def ref(self) -> MethodRef:
        if self.class_name is None:
            raise ValueError("method {!r} not attached to a class".format(self.name))
        return MethodRef(self.class_name, self.name)

    def __repr__(self) -> str:
        owner = self.class_name or "?"
        return "Method({}.{}({}))".format(owner, self.name, ", ".join(self.params))


class AppClass:
    """A class: a named bag of methods (fields are dynamic)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.methods: Dict[str, Method] = {}

    def add_method(self, method: Method) -> Method:
        method.class_name = self.name
        self.methods[method.name] = method
        return method

    def method(self, name: str) -> Method:
        return self.methods[name]

    def __repr__(self) -> str:
        return "AppClass({}, {} methods)".format(self.name, len(self.methods))


class EventSpec:
    """A user event available on a screen.

    ``takes_index`` marks events parameterized by a list position (e.g.
    "tap the i-th item of the feed").  ``side_effect`` marks events
    whose transaction must never be prefetched (1-click purchase, "like"
    — challenge C3 in the paper).  ``weight`` biases the fuzzer and the
    synthetic user-study traces.
    """

    def __init__(
        self,
        name: str,
        handler: MethodRef,
        takes_index: bool = False,
        side_effect: bool = False,
        weight: float = 1.0,
        description: str = "",
    ) -> None:
        self.name = name
        self.handler = handler
        self.takes_index = takes_index
        self.side_effect = side_effect
        self.weight = weight
        self.description = description

    def __repr__(self) -> str:
        return "EventSpec({} -> {})".format(self.name, self.handler.to_string())


class Screen:
    """A UI screen and the events a user can trigger on it."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.events: Dict[str, EventSpec] = {}

    def add_event(self, event: EventSpec) -> EventSpec:
        self.events[event.name] = event
        return event

    def event(self, name: str) -> EventSpec:
        return self.events[name]

    def event_names(self) -> List[str]:
        return list(self.events)

    def __repr__(self) -> str:
        return "Screen({}, events={})".format(self.name, list(self.events))


class Component:
    """An Android component (activity/service).

    ``on_start`` names the lifecycle method invoked when the component
    is started (directly at app launch or via an Intent); it receives
    ``(this, intent)``.  ``screen`` is the screen the component renders.
    """

    def __init__(
        self,
        name: str,
        class_name: str,
        kind: str = "activity",
        screen: Optional[str] = None,
        on_start: str = "onStart",
    ) -> None:
        if kind not in ("activity", "service"):
            raise ValueError("component kind must be activity|service")
        self.name = name
        self.class_name = class_name
        self.kind = kind
        self.screen = screen
        self.on_start = on_start

    @property
    def start_ref(self) -> MethodRef:
        return MethodRef(self.class_name, self.on_start)

    def __repr__(self) -> str:
        return "Component({}, class={}, screen={})".format(
            self.name, self.class_name, self.screen
        )


class ApkFile:
    """The "app binary": everything the analyzer and runtime consume."""

    def __init__(self, package: str, label: str = "") -> None:
        self.package = package
        self.label = label or package
        self.classes: Dict[str, AppClass] = {}
        self.components: Dict[str, Component] = {}
        self.screens: Dict[str, Screen] = {}
        self.main_component: Optional[str] = None
        #: config keys the app reads via ``Env.config`` with the
        #: defaults a device profile may override (API hosts, client
        #: version, build flavor, ...).
        self.config_defaults: Dict[str, str] = {}

    # -- construction ---------------------------------------------------
    def add_class(self, app_class: AppClass) -> AppClass:
        self.classes[app_class.name] = app_class
        return app_class

    def add_component(self, component: Component, main: bool = False) -> Component:
        self.components[component.name] = component
        if main or self.main_component is None:
            self.main_component = component.name
        return component

    def add_screen(self, screen: Screen) -> Screen:
        self.screens[screen.name] = screen
        return screen

    # -- lookup ----------------------------------------------------------
    def resolve(self, ref: MethodRef) -> Method:
        try:
            return self.classes[ref.class_name].methods[ref.method_name]
        except KeyError:
            raise KeyError("unresolved method {}".format(ref.to_string()))

    def component(self, name: str) -> Component:
        return self.components[name]

    def screen(self, name: str) -> Screen:
        return self.screens[name]

    def main(self) -> Component:
        if self.main_component is None:
            raise ValueError("apk {} has no main component".format(self.package))
        return self.components[self.main_component]

    def all_methods(self) -> List[Method]:
        methods: List[Method] = []
        for app_class in self.classes.values():
            methods.extend(app_class.methods.values())
        return methods

    def instruction_count(self) -> int:
        return sum(
            1 for method in self.all_methods() for _ in method.body.walk()
        )

    def __repr__(self) -> str:
        return "ApkFile({}, {} classes, {} components)".format(
            self.package, len(self.classes), len(self.components)
        )
