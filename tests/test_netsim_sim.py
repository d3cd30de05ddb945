"""Tests for the discrete-event simulation core.

The golden traces below were recorded with the scheduler that also
kept a zero-delay FIFO ring beside the heap; that scheduler and the
heap-only loop agreed on every entry, so the heap with its inline
child starts must keep reproducing them.
"""

import pytest

from repro.metrics.perf import PERF
from repro.netsim.sim import Delay, Event, Process, Simulator, Timeout


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_delay_advances_clock():
    sim = Simulator()

    def process():
        yield Delay(1.5)
        return sim.now

    assert sim.run_process(process()) == 1.5


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_child_process_returns_value():
    sim = Simulator()

    def child():
        yield Delay(0.1)
        return "payload"

    def parent():
        value = yield sim.spawn(child())
        return value, sim.now

    assert sim.run_process(parent()) == ("payload", 0.1)


def test_parallel_children_overlap():
    sim = Simulator()

    def child(duration):
        yield Delay(duration)
        return duration

    def parent():
        a = sim.spawn(child(1.0))
        b = sim.spawn(child(2.0))
        first = yield a
        second = yield b
        return first, second, sim.now

    assert sim.run_process(parent()) == (1.0, 2.0, 2.0)


def test_waiting_on_triggered_event_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("already")

    def process():
        value = yield event
        return value

    assert sim.run_process(process()) == "already"


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    event = sim.event()

    def failer():
        yield Delay(0.1)
        event.fail(RuntimeError("boom"))
        return None

    def waiter():
        yield event
        return "not reached"

    sim.spawn(failer())
    process = sim.spawn(waiter())
    sim.run()
    assert process.is_error
    assert isinstance(process.value, RuntimeError)


def test_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_process_exception_propagates_to_run_process():
    sim = Simulator()

    def bad():
        yield Delay(0.1)
        raise ValueError("bad process")

    with pytest.raises(ValueError):
        sim.run_process(bad())


def test_yielding_garbage_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    with pytest.raises(TypeError):
        sim.run_process(bad())


def test_deterministic_fifo_tiebreak():
    sim = Simulator()
    order = []

    def make(name):
        def process():
            yield Delay(1.0)
            order.append(name)
        return process()

    for name in "abc":
        sim.spawn(make(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    sim = Simulator()

    def process():
        yield Delay(10.0)

    sim.spawn(process())
    assert sim.run(until=3.0) == 3.0
    assert sim.now == 3.0


def test_timeout_event():
    sim = Simulator()

    def process():
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(process()) == 2.5


def test_interrupt_stops_process():
    sim = Simulator()
    progressed = []

    def victim():
        yield Delay(1.0)
        progressed.append(True)

    process = sim.spawn(victim())
    process.interrupt()
    sim.run()
    assert progressed == []
    assert not process.triggered


def test_schedule_in_past_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def spawn_heavy_workload(sim, trace):
    """Nested spawn chains + ties in time + failures, fully recorded."""

    def leaf(tag, delay):
        trace.append(("leaf-start", tag, sim.now))
        if delay:
            yield Delay(delay)
        trace.append(("leaf-end", tag, sim.now))
        return tag

    def failing():
        yield Delay(0.05)
        raise ValueError("boom")

    def mid(tag):
        first = yield sim.spawn(leaf(tag + ".a", 0.0))
        second = yield sim.spawn(leaf(tag + ".b", 0.1))
        try:
            yield sim.spawn(failing())
        except ValueError as error:
            trace.append(("caught", tag, str(error), sim.now))
        return first, second

    def root():
        # multi-spawn-then-wait: children start in spawn order even
        # though the parent only waits afterwards
        children = [sim.spawn(mid("m{}".format(i))) for i in range(3)]
        gate = sim.event()
        sim.schedule(0.2, gate.succeed, "gated")
        trace.append(("gate", (yield gate), sim.now))
        timeout = sim.timeout(0.01)
        yield timeout
        results = []
        for child in children:
            results.append((yield child))
        trace.append(("done", sim.now))
        return results

    return root


def test_spawn_chain_trace_matches_golden():
    sim = Simulator()
    trace = []
    value = sim.run_process(spawn_heavy_workload(sim, trace)())
    assert trace == [
        ("leaf-start", "m0.a", 0.0),
        ("leaf-end", "m0.a", 0.0),
        ("leaf-start", "m1.a", 0.0),
        ("leaf-end", "m1.a", 0.0),
        ("leaf-start", "m2.a", 0.0),
        ("leaf-end", "m2.a", 0.0),
        ("leaf-start", "m0.b", 0.0),
        ("leaf-start", "m1.b", 0.0),
        ("leaf-start", "m2.b", 0.0),
        ("leaf-end", "m0.b", 0.1),
        ("leaf-end", "m1.b", 0.1),
        ("leaf-end", "m2.b", 0.1),
        ("caught", "m0", "boom", 0.15000000000000002),
        ("caught", "m1", "boom", 0.15000000000000002),
        ("caught", "m2", "boom", 0.15000000000000002),
        ("gate", "gated", 0.2),
        ("done", 0.21000000000000002),
    ]
    assert value == [("m0.a", "m0.b"), ("m1.a", "m1.b"), ("m2.a", "m2.b")]
    assert sim.now == 0.21000000000000002


def test_sequential_spawn_chain_event_count():
    sim = Simulator()

    def child():
        yield Delay(0.0)
        return 1

    def parent():
        total = 0
        for _ in range(5):
            total += yield sim.spawn(child())
        return total

    with PERF.capture():
        assert sim.run_process(parent()) == 5
        events = PERF.get("sim.events")
        inline_starts = PERF.get("sim.inline_starts")
    # per child: its start, its zero-delay resume, the parent's resume;
    # plus the parent's own start
    assert events == 16
    # each awaited child's start was the heap's head, so it ran inline
    assert inline_starts == 5


def test_child_behind_an_earlier_entry_is_not_started_inline():
    sim = Simulator()
    log = []

    def child(name):
        log.append(name)
        yield Delay(0.0)
        return name

    def parent():
        first = sim.spawn(child("first"))
        second = sim.spawn(child("second"))
        # ``first`` is queued ahead of ``second``'s start
        log.append((yield second))
        log.append((yield first))

    with PERF.capture():
        sim.run_process(parent())
        inline_starts = PERF.get("sim.inline_starts")
    assert log == ["first", "second", "second", "first"]
    assert inline_starts == 0


def test_run_until_golden_ticks():
    sim = Simulator()
    ticks = []

    def clocked():
        for _ in range(10):
            yield Delay(0.1)
            ticks.append(sim.now)

    sim.spawn(clocked())
    assert sim.run(until=0.35) == 0.35
    assert ticks == [0.1, 0.2, 0.30000000000000004]
    assert sim.now == 0.35


def test_interrupt_after_start_never_resumes_or_completes():
    sim = Simulator()
    log = []

    def worker():
        log.append("started")
        yield Delay(1.0)
        log.append("never")

    process = sim.spawn(worker())
    sim.run(until=0.5)
    process.interrupt()
    sim.run()
    assert (log, process.alive, process.triggered) == (["started"], False, False)


def test_slots_reject_stray_attributes():
    sim = Simulator()
    event = Event(sim)
    with pytest.raises(AttributeError):
        event.stray = 1
    with pytest.raises(AttributeError):
        Delay(1.0).stray = 1
    with pytest.raises(AttributeError):
        Timeout(sim, 1.0).stray = 1

    def noop():
        yield Delay(0.0)

    with pytest.raises(AttributeError):
        Process(sim, noop()).stray = 1
