"""Hot-path performance counters (near-zero overhead when disabled).

The proxy's request path — signature dispatch, pending-instance wakes,
cache lookups, prefetch issuing — is instrumented with named counters
and per-stage wall-clock timings so benchmarks can assert *work done*
(regex attempts, candidates examined, retries) instead of flaky wall
time.  Everything funnels through one process-global
:class:`PerfCounters` instance, :data:`PERF`.

:class:`PerfCounters` is a thin facade over a
:class:`~repro.metrics.registry.MetricRegistry`: its ``counters`` and
``timings`` dicts *are* the registry's stores (same objects), so the
hot path keeps its raw-dict writes while labeled series, histograms,
and the Prometheus export live in the registry.  ``stage()``
additionally feeds a ``stage_seconds{stage=...}`` histogram so the
scale harness can report per-stage p50/p95/p99, not just totals.

Instrumentation cost: ``stage()`` returns a fresh ``__slots__`` timer
(a shared no-op when disabled) whose histogram series key was
formatted once per stage name, so a timed block costs two clock reads,
a ``timings`` add and a histogram observe; nesting the same stage
records both blocks.  The simulator tallies ``sim.events`` and
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
import time
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.metrics.catalog import STAGE_SECONDS
from repro.metrics.registry import MetricRegistry, series_key

_perf_counter = time.perf_counter


class _StageTimer:
    """One timed ``PERF.stage`` block; a fresh one per ``with``."""

    __slots__ = ("perf", "name", "key", "started")

    def __init__(self, perf: "PerfCounters", name: str, key: str) -> None:
        self.perf = perf
        self.name = name
        self.key = key

    def __enter__(self) -> None:
        self.started = _perf_counter()

    def __exit__(self, *exc_info) -> None:
        elapsed = _perf_counter() - self.started
        perf = self.perf
        name = self.name
        timings = perf.timings
        timings[name] = timings.get(name, 0.0) + elapsed
        histogram = perf.registry.histograms.get(self.key)
        if histogram is None:
            # first block since a reset: the registry admits the series
            perf.registry.observe(STAGE_SECONDS, elapsed, labels={"stage": name})
        else:
            histogram.observe(elapsed)


class _NoStage:
    """The stage block while counting is disabled: records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NO_STAGE = _NoStage()


class PerfCounters:
    """Named monotonic counters plus accumulated stage timings."""

    __slots__ = ("enabled", "registry", "counters", "timings", "_stage_keys")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricRegistry()
        # facade: these are the registry's own stores, not copies —
        # reset() clears them in place so the aliases stay live
        self.counters: Dict[str, int] = self.registry.counters
        self.timings: Dict[str, float] = self.registry.timings
        #: stage name -> its ``stage_seconds`` series key
        self._stage_keys: Dict[str, str] = {}

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

    def stage(self, name: str):
        """Accumulate wall-clock time under ``name`` while enabled.

        Use as ``with PERF.stage("proxy.learn"):``; a block entered
        while disabled records nothing.
        """
        if not self.enabled:
            return _NO_STAGE
        key = self._stage_keys.get(name)
        if key is None:
            key = self._stage_keys[name] = series_key(STAGE_SECONDS, {"stage": name})
        return _StageTimer(self, name, key)

    # -- reading --------------------------------------------------------
    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def snapshot(self) -> Dict[str, Dict]:
        data: Dict[str, Dict] = {
            "counters": dict(self.counters),
            "timings_s": dict(self.timings),
        }
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
