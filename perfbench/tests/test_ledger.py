"""The exclusive-time timer stack and the generator wrappers."""

import pytest

from perfbench.ledger import (
    DEMAND,
    PREFETCH,
    ROOT_KEY,
    UNATTRIBUTED,
    FunctionLayer,
    Instrumentation,
    Ledger,
    TimedGenerator,
)
from repro.metrics.perf import PERF
from repro.netsim.sim import Delay, Simulator


class FakeClock:
    """Wall time that moves only when a toy process says it worked."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def key_of(function) -> str:
    return "unattributed:{}:{}".format(__name__, function.__qualname__)


def test_self_time_subtracts_children_and_tracks_own_category():
    clock = FakeClock()
    ledger = Ledger(clock)
    ledger.enter("route", DEMAND)
    clock.work(1.0)
    ledger.enter("lookup", DEMAND)
    clock.work(2.0)
    ledger.enter("drain", PREFETCH)
    clock.work(4.0)
    assert ledger.exit() == pytest.approx(4.0)
    assert ledger.exit() == pytest.approx(2.0)  # own category: lookup minus drain
    clock.work(0.5)
    assert ledger.exit() == pytest.approx(3.5)  # route + lookup, not the drain
    assert ledger.self_s == pytest.approx({"route": 1.5, "lookup": 2.0, "drain": 4.0})
    assert ledger.by_category() == pytest.approx({DEMAND: 3.5, PREFETCH: 4.0})
    assert ledger.stack == []


def test_nested_processes_and_inline_children_sum_to_the_wall_total():
    clock = FakeClock()
    ledger = Ledger(clock)
    sim = Simulator()
    layer = FunctionLayer(__name__, "-", "-", "toy.function", PREFETCH)
    timed_work = ledger.wrap_function(clock.work, layer)

    def grandchild():
        clock.work(0.125)
        yield Delay(0.5)
        clock.work(0.125)
        return "deep"

    def child():
        clock.work(2.0)
        timed_work(0.25)
        value = yield sim.spawn(grandchild())
        clock.work(0.5)
        return value + "-child"

    def parent(results):
        clock.work(1.0)
        # the child's start is the next ready entry, so it runs inline
        results.append((yield sim.spawn(child())))
        clock.work(0.25)

    results = []
    with PERF.capture():
        with Instrumentation(ledger):
            sim.spawn(parent(results))
            started = clock()
            sim.run()
            wall = clock() - started
        inline_starts = PERF.get("sim.inline_starts")

    assert results == ["deep-child"]
    assert inline_starts >= 1
    assert ledger.self_s[key_of(parent)] == pytest.approx(1.25)
    assert ledger.self_s[key_of(child)] == pytest.approx(2.5)
    assert ledger.self_s[key_of(grandchild)] == pytest.approx(0.25)
    assert ledger.self_s["toy.function"] == pytest.approx(0.25)
    assert ledger.self_s[ROOT_KEY] == pytest.approx(0.0)
    assert sum(ledger.self_s.values()) == pytest.approx(wall)
    assert wall == pytest.approx(4.25)
    assert ledger.categories[key_of(child)] == UNATTRIBUTED
    assert ledger.stack == []


def test_wrappers_pass_thrown_errors_through():
    clock = FakeClock()
    ledger = Ledger(clock)
    sim = Simulator()
    seen = []

    def failing():
        clock.work(1.0)
        yield Delay(1.0)
        raise ValueError("origin exploded")

    def caller():
        try:
            yield sim.spawn(failing())
        except ValueError as error:
            seen.append(str(error))
        clock.work(0.5)
        return "recovered"

    with Instrumentation(ledger):
        process = sim.spawn(caller())
        sim.run()

    assert seen == ["origin exploded"]
    assert process.value == "recovered" and not process.is_error
    assert ledger.self_s[key_of(failing)] == pytest.approx(1.0)
    assert ledger.self_s[key_of(caller)] == pytest.approx(0.5)
    assert ledger.stack == []


def test_interrupt_closes_the_wrapped_generator_under_its_timer():
    clock = FakeClock()
    ledger = Ledger(clock)
    sim = Simulator()
    cleaned = []

    def sleeper():
        try:
            yield Delay(10.0)
            cleaned.append("resumed")
        finally:
            clock.work(0.75)
            cleaned.append("finally")

    def killer(victim):
        yield Delay(1.0)
        victim.interrupt()

    with Instrumentation(ledger):
        victim = sim.spawn(sleeper())
        sim.spawn(killer(victim))
        sim.run()

    assert cleaned == ["finally"]
    assert not victim.triggered and not victim.alive
    assert isinstance(victim._generator, TimedGenerator)
    assert ledger.self_s[key_of(sleeper)] == pytest.approx(0.75)
    assert ledger.stack == []


def test_sampled_generators_record_their_own_time_per_instance():
    clock = FakeClock()
    ledger = Ledger(clock)
    ledger.samples["toy"] = []

    def body():
        clock.work(1.0)
        yield None
        clock.work(2.0)
        return 7

    wrapped = TimedGenerator(body(), "toy", DEMAND, ledger, ledger.samples["toy"])
    wrapped.send(None)
    with pytest.raises(StopIteration) as stop:
        wrapped.send(None)
    assert stop.value.value == 7
    assert ledger.samples["toy"] == [pytest.approx(3.0)]


def test_instrumentation_restores_every_patched_attribute():
    from perfbench.ledger import FUNCTION_LAYERS, _resolve

    before = {(layer.owner, layer.attr): _resolve(layer.module, layer.owner).__dict__[layer.attr]
              for layer in FUNCTION_LAYERS}
    spawn = Simulator.__dict__["spawn"]
    with Instrumentation(Ledger()):
        assert Simulator.__dict__["spawn"] is not spawn
    assert Simulator.__dict__["spawn"] is spawn
    for layer in FUNCTION_LAYERS:
        owner = _resolve(layer.module, layer.owner)
        assert owner.__dict__[layer.attr] is before[(layer.owner, layer.attr)]
