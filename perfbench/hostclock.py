"""Host-speed calibration for the benchmark's host metrics.

On a shared host the same Python code runs at speeds that swing by
1.5–2x for stretches of a fraction of a second to minutes, and CPU time
swings with wall time (the slowdown is contention for the core, not
preemption), so neither raw wall time nor CPU time repeats between runs.
A host metric is therefore taken in short pieces, and each piece is
rescaled by the time a fixed calibration kernel took right around it::

    calibrated = measured * KERNEL_REF_S / kernel time

``KERNEL_REF_S`` is close to the kernel's time on a 2-core 2.1 GHz Xeon
VM at its fast speed, so calibrated values read as wall time on that
host.  The kernel mixes the work the proxy does: small-object
allocation, dict traffic, string formatting, Python calls and a JSON
round trip.  A change that makes the program faster shortens the
measured pieces and leaves the kernel alone, so it shows in full.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Callable, Tuple

from perfbench.ledger import Patches

#: nominal kernel time; calibrated seconds are measured seconds at this
#: kernel speed
KERNEL_REF_S = 0.5e-3
#: sim seconds per timed slice of the event loop
SLICE_S = 0.25
#: a slice shorter than this wall time is not calibrated on its own: it
#: is added to the next slice, and the slice width doubles meanwhile
#: (this skips long, nearly empty sim tails cheaply)
MIN_SLICE_WALL_S = 2.0e-3


class _Item:
    __slots__ = ("key", "size")

    def __init__(self, key: str, size: int) -> None:
        self.key = key
        self.size = size


_DOCUMENT = {
    "items": [
        {"id": i, "name": "item %d" % i, "price": i * 1.5, "tags": ["a", "b", str(i)]}
        for i in range(40)
    ]
}
_KEYS = tuple("k%d" % i for i in range(64))


def _weigh(table: dict, key: str, i: int) -> int:
    return table[key].size + (i & 7)


def kernel() -> int:
    """A fixed piece of interpreter work; its result is deterministic."""
    table = {}
    total = 0
    for i in range(250):
        key = "k%d" % (i & 63)
        table[key] = _Item(key, i)
        total += len(table[key].key)
    for i in range(800):
        total ^= _weigh(table, _KEYS[i & 63], i) << (i & 3)
    for _ in range(2):
        total += len(json.loads(json.dumps(_DOCUMENT))["items"])
    return total


def kernel_time(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds the kernel takes now, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        kernel()
        return clock() - started
    finally:
        if enabled:
            gc.enable()


def warm_up(rounds: int = 20) -> None:
    """Run the kernel until the interpreter has specialised it."""
    for _ in range(rounds):
        kernel()


def calibrated_call(function: Callable[[], object]) -> Tuple[object, float, float]:
    """Run ``function``; return its result, raw seconds and calibrated seconds."""
    before = kernel_time()
    started = time.perf_counter()
    result = function()
    elapsed = time.perf_counter() - started
    after = kernel_time()
    return result, elapsed, elapsed * 2.0 * KERNEL_REF_S / (before + after)


class SlicedLoop:
    """Time the top-level ``Simulator.run`` in calibrated slices of sim time.

    While installed, ``Simulator.run()`` without ``until`` drives the
    original loop with ``until`` set to successive slice boundaries and
    runs the calibration kernel between slices.  Stopping at a boundary
    and going on runs the same events in the same order, because nothing
    else runs in between, so slicing changes no simulated outcome; a
    final unbounded ``run`` drains whatever is left.  Only the slices
    are timed, so ``raw_s`` is the loop's own wall time without the
    kernels.
    """

    def __init__(self) -> None:
        self.patches = Patches()
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.slices = 0
        self.kernel_s: list = []

    def __enter__(self) -> "SlicedLoop":
        from repro.netsim.sim import Simulator

        run = Simulator.__dict__["run"]
        loop = self

        def sliced_run(sim, until=None):
            if until is not None:
                return run(sim, until)
            return loop._drive(run, sim)

        self.patches.replace(Simulator, "run", sliced_run)
        return self

    def __exit__(self, *exc_info) -> None:
        self.patches.restore()

    def _drive(self, run: Callable, sim) -> float:
        clock = time.perf_counter
        before = kernel_time()
        pending = 0.0
        width = SLICE_S
        boundary = sim.now + width
        while True:
            started = clock()
            run(sim, boundary)
            pending += clock() - started
            if sim.now < boundary:
                break  # the queue ran dry before the boundary
            if pending < MIN_SLICE_WALL_S:
                width *= 2.0
            else:
                before = self._settle(pending, before)
                pending = 0.0
                width = SLICE_S
            boundary = sim.now + width
        started = clock()
        now = run(sim)
        pending += clock() - started
        self._settle(pending, before)
        return now

    def _settle(self, elapsed: float, before: float) -> float:
        after = kernel_time()
        self.kernel_s.append(after)
        self.raw_s += elapsed
        self.calibrated_s += elapsed * 2.0 * KERNEL_REF_S / (before + after)
        self.slices += 1
        return after
