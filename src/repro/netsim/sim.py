"""Generator-based discrete-event simulation core.

A *process* is a generator.  Each ``yield`` hands the simulator one of:

* :class:`Delay` — resume after a fixed virtual-time interval;
* :class:`Event` — resume when the event is triggered (with its value);
* :class:`Process` — resume when the child process finishes (with its
  return value), so ``response = yield self.sim.spawn(child())`` works.

``return value`` inside a process delivers ``value`` to whoever waits
on it.  The scheduler is deterministic: ties in time break by
scheduling order.

Every scheduled callback — zero-delay starts, event triggers and
resumes included — goes on one heap keyed ``(time, sequence)``.  A
zero-delay FIFO ring beside the heap was measured within the
end-to-end benchmark's noise, so the heap is the only queue.

``yield sim.spawn(child)`` starts the child inside the parent's step
when the child's queued start is the heap's head: that is the entry
the loop would pop next, so the order is unchanged, and the child's
frames nest inside the parent's (``perfbench/tests/test_ledger.py``
times such inline children and reads ``sim.inline_starts``).
``tests/test_netsim_sim.py`` pins the order with golden traces of
spawn chains, ties in time, failures, timeouts and interrupts.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.metrics.perf import PERF

#: bound on nested inline starts (flow → launch → transport → origin
#: handler ...); a deeper child starts from the loop instead
_MAX_INLINE_DEPTH = 64


class Delay:
    """Yielded by a process to sleep for ``seconds`` of virtual time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative delay: {}".format(seconds))
        self.seconds = float(seconds)

    def __repr__(self) -> str:
        return "Delay({})".format(self.seconds)


class Event:
    """One-shot event; processes wait on it, someone triggers it."""

    __slots__ = ("sim", "triggered", "value", "is_error", "_waiters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self.is_error = False
        self._waiters: List["Process"] = []

    def succeed(self, value: Any = None) -> None:
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        for process in self._waiters:
            self.sim.schedule(0.0, process._resume, value, False)
        self._waiters = []

    def fail(self, error: BaseException) -> None:
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = error
        self.is_error = True
        for process in self._waiters:
            self.sim.schedule(0.0, process._resume, error, True)
        self._waiters = []

    def _add_waiter(self, process: "Process") -> None:
        if self.triggered:
            self.sim.schedule(0.0, process._resume, self.value, self.is_error)
        else:
            self._waiters.append(process)


class Process(Event):
    """A running generator; also an event that fires on completion."""

    __slots__ = ("_generator", "alive")

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        super().__init__(sim)
        self._generator = generator
        self.alive = True

    def _start(self) -> None:
        if self.alive:
            self._advance(None, False)

    def _resume(self, value: Any, is_error: bool) -> None:
        if self.alive:
            self._advance(value, is_error)

    def _advance(self, value: Any, is_error: bool) -> None:
        """Run one step of the generator (no per-step closures)."""
        generator = self._generator
        try:
            if is_error:
                yielded = generator.throw(value)
            else:
                # send(None) on a fresh generator == next(generator)
                yielded = generator.send(value)
        except StopIteration as stop:
            self.alive = False
            self.succeed(stop.value)
            return
        except Exception as error:
            self.alive = False
            self.fail(error)
            return
        if yielded.__class__ is Delay:
            self.sim.schedule(yielded.seconds, self._resume, None, False)
        elif isinstance(yielded, Event):
            if yielded.__class__ is Process and not yielded.triggered:
                self.sim._start_inline(yielded)
            yielded._add_waiter(self)
        else:
            self.alive = False
            self.fail(
                TypeError("process yielded {!r}; expected Delay/Event".format(yielded))
            )

    def interrupt(self) -> None:
        """Stop the process; it never resumes and never completes."""
        self.alive = False
        self._generator.close()


class Timeout(Event):
    """Event that fires after a fixed interval (composable wait)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", seconds: float) -> None:
        super().__init__(sim)
        sim.schedule(seconds, self._fire)

    def _fire(self) -> None:
        if not self.triggered:
            self.succeed(None)


class Simulator:
    """Deterministic discrete-event loop with a virtual clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._inline_depth = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, callback, args))

    def spawn(self, generator: Generator) -> Process:
        """Start a process now; returns its completion event."""
        process = Process(self, generator)
        self.schedule(0.0, process._start)
        return process

    def _start_inline(self, process: Process) -> None:
        """Pop and run ``process``'s queued start if it is the next entry."""
        queue = self._queue
        if not queue or self._inline_depth >= _MAX_INLINE_DEPTH:
            return
        callback = queue[0][2]
        if (
            getattr(callback, "__self__", None) is not process
            or callback.__func__ is not Process._start
        ):
            return
        heapq.heappop(queue)
        if PERF.enabled:
            PERF.incr("sim.events")
            PERF.incr("sim.inline_starts")
        self._inline_depth += 1
        try:
            process._start()
        finally:
            self._inline_depth -= 1

    def event(self) -> Event:
        return Event(self)

    def timeout(self, seconds: float) -> Timeout:
        return Timeout(self, seconds)

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time ``until``)."""
        queue = self._queue
        perf = PERF
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                self._now = until
                return self._now
            _, _, callback, args = heapq.heappop(queue)
            self._now = when
            if perf.enabled:
                perf.incr("sim.events")
            callback(*args)
        return self._now

    def run_process(self, generator: Generator) -> Any:
        """Spawn ``generator``, run to completion, return its value."""
        process = self.spawn(generator)
        self.run()
        if not process.triggered:
            raise RuntimeError("process did not complete (deadlock?)")
        if process.is_error:
            raise process.value
        return process.value
