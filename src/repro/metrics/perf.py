"""Hot-path performance counters (near-zero overhead when disabled).

The proxy's request path — signature dispatch, pending-instance wakes,
cache lookups, prefetch issuing — is instrumented with named counters
so benchmarks can assert *work done* (regex attempts, candidates
examined, retries) instead of flaky wall time.  Everything funnels
through one process-global :class:`PerfCounters` instance,
:data:`PERF`.  Per-stage wall time is not kept here: it comes from
trace spans only (:mod:`repro.metrics.trace`), which a run records
when it arms the tracer.

:class:`PerfCounters` is a thin facade over a
:class:`~repro.metrics.registry.MetricRegistry`: its ``counters`` dict
*is* the registry's store (same object), so the hot path keeps its
raw-dict writes while labeled series, histograms, and the Prometheus
export live in the registry.  The simulator tallies ``sim.events`` and
``sim.inline_starts`` itself and adds them here once per
``Simulator.run`` call.

Disabled (the default) the cost at a call site is one attribute load
and a branch; the hottest loops guard with ``if PERF.enabled:`` so not
even the call happens.  Enable around a measured region::

    from repro.metrics.perf import PERF

    with PERF.capture():          # enable + reset, restore on exit
        run_workload()
        snapshot = PERF.snapshot()
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.metrics.registry import MetricRegistry


class PerfCounters:
    """Named monotonic counters over a metric registry."""

    __slots__ = ("enabled", "registry", "counters")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricRegistry()
        # facade: the registry's own store, not a copy — reset()
        # clears it in place so the alias stays live
        self.counters: Dict[str, int] = self.registry.counters

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.registry.reset()

    @contextmanager
    def capture(self, reset: bool = True) -> Iterator["PerfCounters"]:
        """Enable counting inside the block; restore prior state after."""
        previous = self.enabled
        if reset:
            self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous

    # -- recording ------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        """Record a high-water mark (keeps the max seen under ``name``)."""
        if self.enabled and value > self.counters.get(name, 0):
            self.counters[name] = value

    # -- reading --------------------------------------------------------
    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def snapshot(self) -> Dict[str, Dict]:
        data: Dict[str, Dict] = {"counters": dict(self.counters)}
        histograms = self.registry.snapshot_histograms()
        if histograms:
            data["histograms"] = histograms
        if self.registry.gauges:
            data["gauges"] = dict(self.registry.gauges)
        return data

    def __repr__(self) -> str:
        return "PerfCounters(enabled={}, {} counters)".format(
            self.enabled, len(self.counters)
        )


def rss_peak_bytes() -> int:
    """This process's peak resident set size, in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the scale
    harness reports it alongside per-request cost so memory growth with
    the user population is visible in the trajectory artifacts.  The
    value is a process-lifetime high-water mark, so within one process
    successive measurements only ever rise.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return int(peak)
    return int(peak) * 1024


#: process-global counter sink used by the proxy hot path
PERF = PerfCounters()
