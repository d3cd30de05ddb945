"""Exclusive-time ledger for the traced benchmark run.

The traced run times calls into each layer's public functions from
outside the program: the classes' methods are replaced for the length
of the run (``Instrumentation``) and every simulator process gets its
own timer around each resume (``TimedGenerator``, installed by wrapping
what ``Simulator.spawn`` receives).  Nothing under ``src/`` changes.

Timers nest on one stack.  A frame's *self* time is its elapsed time
minus the elapsed time of the frames opened inside it, so the self
times of all frames under the root (``Simulator.run``) add up to the
root's elapsed time exactly.  Every frame belongs to one ledger
category: the proxy's demand path, its prefetch path, its telemetry
plane, or the harness (simulated origins, network and workload
replay).  Generators the layer table does not know land in
``unattributed``, which is how new, unclassified code shows up.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

DEMAND = "demand"
PREFETCH = "prefetch"
TELEMETRY = "telemetry"
HARNESS = "harness"
UNATTRIBUTED = "unattributed"
#: the three categories that make up the proxy's own cost
PROXY_CATEGORIES = (DEMAND, PREFETCH, TELEMETRY)

#: the root frame: scheduler time outside every process resume
ROOT_KEY = "netsim"

#: simulator processes by (module, generator qualname)
GENERATOR_LAYERS: Dict[Tuple[str, str], Tuple[str, str]] = {
    ("repro.proxy.multiapp", "MultiAppProxy.handle_request"): ("proxy.route", DEMAND),
    ("repro.proxy.proxy", "AccelerationProxy.handle_request"): ("proxy.demand", DEMAND),
    ("repro.proxy.prefetcher", "Prefetcher._fetch"): ("prefetcher.fetch", PREFETCH),
    ("repro.proxy.expiration", "ExpirationEstimator.run"): ("expiration", PREFETCH),
    ("repro.proxy.expiration", "ExpirationEstimator.probe_site"): ("expiration", PREFETCH),
    ("repro.proxy.prefetcher", "origin_fetch"): ("netsim.transport", HARNESS),
    ("repro.proxy.multiapp", "MultiAppTransport.send"): ("netsim.transport", HARNESS),
    # pass-through forwarding, wrapped by the origin byte counter
    ("perfbench.served", "OriginBytes.install.<locals>.passthrough_fetch"): (
        "netsim.transport",
        HARNESS,
    ),
    ("repro.server.origin", "OriginServer.handle"): ("server", HARNESS),
    ("repro.experiments.scale", "run_scale.<locals>.send_one"): ("scale.replay", HARNESS),
    ("repro.experiments.scale", "run_scale.<locals>.arrivals"): ("scale.replay", HARNESS),
    ("repro.experiments.scale", "run_scale.<locals>.scheduled_arrivals"): (
        "scale.replay",
        HARNESS,
    ),
    ("repro.experiments.scale", "run_scale.<locals>.sweeper"): ("scale.replay", HARNESS),
    ("repro.experiments.scale", "run_scale.<locals>.sampler"): ("scale.replay", HARNESS),
    ("repro.experiments.scale", "run_scale.<locals>.telemetry_loop"): (
        "metrics.telemetry",
        TELEMETRY,
    ),
}


class FunctionLayer:
    """One public method timed as a layer boundary.

    ``chain_key`` renames the frame when the caller is on the prefetch
    path (the learner's ``observe`` serves both the demand path and
    chain prefetches); ``counts`` is a predicate over the return value
    whose true results ``Ledger.useful`` counts per frame key.
    """

    __slots__ = ("module", "owner", "attr", "key", "category", "chain_key", "counts")

    def __init__(
        self,
        module: str,
        owner: str,
        attr: str,
        key: str,
        category: str,
        chain_key: Optional[str] = None,
        counts: Optional[Callable[[object], bool]] = None,
    ) -> None:
        self.module = module
        self.owner = owner
        self.attr = attr
        self.key = key
        self.category = category
        self.chain_key = chain_key
        self.counts = counts


def _built(request: object) -> bool:
    return request is not None


def _admitted(outcome: object) -> bool:
    return outcome in ("started", "queued")


FUNCTION_LAYERS: Tuple[FunctionLayer, ...] = (
    FunctionLayer("repro.proxy.learning", "DynamicLearner", "signature_for",
                  "learning.dispatch", DEMAND),
    FunctionLayer("repro.proxy.learning", "DynamicLearner", "observe",
                  "learning.observe", DEMAND, chain_key="learning.observe.chain"),
    FunctionLayer("repro.proxy.learning", "DynamicLearner", "drain_learn_queue",
                  "learning.drain", PREFETCH),
    FunctionLayer("repro.proxy.proxy", "AccelerationProxy", "pump_learning",
                  "learning.pump", PREFETCH),
    FunctionLayer("repro.proxy.instances", "RequestInstance", "try_build",
                  "instances.build", PREFETCH, counts=_built),
    FunctionLayer("repro.proxy.prefetcher", "Prefetcher", "submit",
                  "prefetcher.submit", PREFETCH, counts=_admitted),
    FunctionLayer("repro.proxy.cache", "PrefetchCache", "lookup",
                  "cache.lookup", DEMAND),
    FunctionLayer("repro.proxy.cache", "PrefetchCache", "put", "cache.put", PREFETCH),
    FunctionLayer("repro.proxy.cache", "PrefetchCache", "purge_expired",
                  "cache.purge", PREFETCH),
    FunctionLayer("repro.metrics.live", "LiveTelemetry", "on_request",
                  "metrics.telemetry", TELEMETRY),
    FunctionLayer("repro.metrics.live", "LiveTelemetry", "tick",
                  "metrics.telemetry", TELEMETRY),
)

#: generator keys whose per-instance own-category time is sampled
SAMPLED_KEYS = ("proxy.demand",)


class Ledger:
    """A stack of exclusive-time timers.

    A frame is ``[key, category, start, child_s, foreign_s]``, where
    ``child_s`` is the time its direct children took and ``foreign_s``
    the part of its elapsed time spent in frames of another category.
    ``exit`` returns the frame's own-category inclusive time, which is
    what per-request samples of a layer are made of.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.categories: Dict[str, str] = {}
        self.calls: Dict[str, int] = {}
        self.useful: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {key: [] for key in SAMPLED_KEYS}

    def enter(self, key: str, category: str) -> None:
        self.stack.append([key, category, self.clock(), 0.0, 0.0])

    def exit(self) -> float:
        now = self.clock()
        key, category, start, child_s, foreign_s = self.stack.pop()
        elapsed = now - start
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - child_s
        self.categories[key] = category
        if self.stack:
            parent = self.stack[-1]
            parent[3] += elapsed
            parent[4] += foreign_s if parent[1] == category else elapsed
        return elapsed - foreign_s

    def count(self, table: Dict[str, int], key: str) -> None:
        table[key] = table.get(key, 0) + 1

    def by_category(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for key, seconds in self.self_s.items():
            category = self.categories[key]
            totals[category] = totals.get(category, 0.0) + seconds
        return totals

    def to_dict(self) -> Dict[str, object]:
        return {"self_s": self.self_s, "categories": self.categories,
                "calls": self.calls, "useful": self.useful, "samples": self.samples}

    def merge(self, other: Dict[str, object]) -> None:
        """Add another ledger's totals (a ``to_dict`` record) to this one."""
        for table in ("self_s", "calls", "useful"):
            mine = getattr(self, table)
            for key, value in other[table].items():
                mine[key] = mine.get(key, 0) + value
        self.categories.update(other["categories"])
        for key, values in other["samples"].items():
            self.samples.setdefault(key, []).extend(values)

    # -- wrappers ------------------------------------------------------
    def wrap_generator(self, generator) -> "TimedGenerator":
        frame = getattr(generator, "gi_frame", None)
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        qualname = getattr(generator, "__qualname__", type(generator).__name__)
        key, category = GENERATOR_LAYERS.get(
            (module, qualname), ("unattributed:{}:{}".format(module, qualname), UNATTRIBUTED)
        )
        self.count(self.calls, key)
        return TimedGenerator(generator, key, category, self, self.samples.get(key))

    def wrap_function(self, function: Callable, layer: FunctionLayer) -> Callable:
        ledger = self
        stack = self.stack
        key, category, chain_key, counts = (
            layer.key, layer.category, layer.chain_key, layer.counts
        )

        def timed(*args, **kwargs):
            frame_key = key
            if chain_key is not None and stack and stack[-1][1] == PREFETCH:
                frame_key = chain_key
            ledger.count(ledger.calls, frame_key)
            ledger.enter(frame_key, PREFETCH if frame_key == chain_key else category)
            try:
                result = function(*args, **kwargs)
            finally:
                ledger.exit()
            if counts is not None and counts(result):
                ledger.count(ledger.useful, frame_key)
            return result

        timed.__wrapped__ = function
        timed.__name__ = getattr(function, "__name__", "timed")
        return timed


class TimedGenerator:
    """A simulator process body with a timer around each resume.

    It offers what :class:`repro.netsim.sim.Process` calls on a
    generator — ``send``, ``throw`` and ``close`` — and passes return
    values, raised errors and ``StopIteration`` through unchanged.
    """

    __slots__ = ("generator", "key", "category", "ledger", "samples", "own_s")

    def __init__(self, generator, key: str, category: str, ledger: Ledger,
                 samples: Optional[List[float]] = None) -> None:
        self.generator = generator
        self.key = key
        self.category = category
        self.ledger = ledger
        self.samples = samples
        self.own_s = 0.0

    def _step(self, method: Callable, argument) -> object:
        ledger = self.ledger
        ledger.enter(self.key, self.category)
        finished = False
        try:
            return method(argument)
        except StopIteration:
            finished = True
            raise
        finally:
            self.own_s += ledger.exit()
            if finished and self.samples is not None:
                self.samples.append(self.own_s)

    def send(self, value) -> object:
        return self._step(self.generator.send, value)

    def throw(self, error) -> object:
        return self._step(self.generator.throw, error)

    def close(self) -> None:
        self.ledger.enter(self.key, self.category)
        try:
            self.generator.close()
        finally:
            self.ledger.exit()


class Patches:
    """Class attributes replaced for a while, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def replace(self, owner: type, name: str, value: object) -> object:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, value)
        return original

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _resolve(module: str, owner: str) -> type:
    import importlib

    return getattr(importlib.import_module(module), owner)


class Instrumentation:
    """Context manager that times every layer boundary into ``ledger``."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.patches = Patches()

    def __enter__(self) -> Ledger:
        from repro.netsim.sim import Simulator

        ledger = self.ledger
        try:
            spawn = Simulator.spawn
            run = Simulator.run

            def timed_spawn(sim, generator):
                return spawn(sim, ledger.wrap_generator(generator))

            def timed_run(sim, until=None):
                ledger.enter(ROOT_KEY, HARNESS)
                try:
                    return run(sim, until)
                finally:
                    ledger.exit()

            self.patches.replace(Simulator, "spawn", timed_spawn)
            self.patches.replace(Simulator, "run", timed_run)
            for layer in FUNCTION_LAYERS:
                owner = _resolve(layer.module, layer.owner)
                function = owner.__dict__[layer.attr]
                self.patches.replace(
                    owner, layer.attr, ledger.wrap_function(function, layer)
                )
        except BaseException:
            self.patches.restore()
            raise
        return ledger

    def __exit__(self, *exc_info) -> None:
        self.patches.restore()
