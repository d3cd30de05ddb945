"""Calibrated timing: slicing the event loop must not change what it runs."""

import pytest

from perfbench import hostclock
from repro.netsim.sim import Delay, Simulator


def toy_run(log):
    sim = Simulator()

    def ticker(name, period, count):
        for index in range(count):
            yield Delay(period)
            log.append((sim.now, name, index))
        return name

    def parent():
        first = yield sim.spawn(ticker("fast", 0.1, 30))
        yield Delay(40.0)  # a long, empty stretch of sim time
        second = yield sim.spawn(ticker("late", 0.3, 5))
        return first + second

    sim.spawn(ticker("slow", 0.7, 8))
    return sim.run_process(parent()), sim.now


def test_sliced_loop_runs_the_same_events_in_the_same_order():
    plain_log, sliced_log = [], []
    expected = toy_run(plain_log)
    with hostclock.SlicedLoop() as loop:
        got = toy_run(sliced_log)
    assert got == expected
    assert sliced_log == plain_log
    assert loop.slices >= 1 and loop.raw_s > 0 and loop.calibrated_s > 0
    assert Simulator.__dict__["run"].__name__ == "run"


def test_sliced_loop_leaves_bounded_runs_alone():
    sim = Simulator()

    def sleeper():
        yield Delay(5.0)

    with hostclock.SlicedLoop() as loop:
        sim.spawn(sleeper())
        assert sim.run(until=1.0) == 1.0
    assert loop.slices == 0
    assert sim.run() == 5.0


def test_calibrated_call_passes_the_result_and_scales_by_the_kernel():
    result, raw, calibrated = hostclock.calibrated_call(lambda: "built")
    assert result == "built"
    assert raw >= 0 and calibrated >= 0
    assert hostclock.kernel() == hostclock.kernel()
    assert hostclock.kernel_time() > 0


def test_a_slower_host_is_rescaled_away(monkeypatch):
    ticks = iter([0.0, 3.0])
    kernel_times = iter([2.0 * hostclock.KERNEL_REF_S, 2.0 * hostclock.KERNEL_REF_S])
    monkeypatch.setattr(hostclock, "kernel_time", lambda: next(kernel_times))
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: next(ticks))
    _, raw, calibrated = hostclock.calibrated_call(lambda: None)
    assert raw == 3.0
    assert calibrated == pytest.approx(1.5)
