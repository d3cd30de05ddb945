"""Live telemetry plane: deterministic rolling windows.

The registry (:mod:`repro.metrics.registry`) accumulates *run-total*
series: perfect for a post-run report, useless for answering "what is
the p99 **right now**" while a large scale cell is still serving.
This module adds the missing time dimension as **ring-of-buckets
sliding windows** driven entirely by the simulator clock:

* :class:`RollingCounter` / :class:`RollingHistogram` — a fixed number
  of ``bucket_width``-second buckets addressed by the *absolute* bucket
  index ``int(now // bucket_width)``.  Advancing the window is just
  pruning indices older than the horizon; no wall clock, no timers, so
  a seeded run produces byte-identical windows every time.
* :class:`LiveWindows` — the named collection of windows declared in
  :data:`repro.metrics.catalog.WINDOWS` (undeclared names are refused
  at runtime, mirroring the ``met-*`` lint family).
* :class:`LiveTelemetry` — the per-process plane: samples cumulative
  proxy/learner counters into per-tick window deltas, feeds per-request
  latency observations, and runs the SLO engine each tick.

Overhead when disabled is literally zero: the scale harness only
constructs a plane when ``--slo`` / ``--telemetry`` ask for one, and
the per-request hook is a single ``is None`` branch (CI gates the
enabled cost at <5%).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.metrics import catalog
from repro.metrics.perf import PERF
from repro.metrics.registry import DEFAULT_BUCKETS, Histogram
from repro.metrics.trace import TRACER

#: default sliding-window horizon (virtual seconds) and resolution
DEFAULT_WINDOW_S = 10.0
DEFAULT_NUM_BUCKETS = 20
#: default telemetry tick cadence (virtual seconds)
DEFAULT_TICK_S = 0.5


class RollingCounter:
    """A sliding-window sum over ``num_buckets`` fixed-width buckets.

    Buckets are keyed by the absolute index ``int(now // width)`` so
    the mapping from virtual time to bucket never depends on when the
    window was created.  Reads prune lazily; writes prune on bucket
    roll.
    """

    __slots__ = ("bucket_width", "num_buckets", "buckets", "_head")

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ) -> None:
        if window_s <= 0 or num_buckets <= 0:
            raise ValueError("window_s and num_buckets must be positive")
        self.bucket_width = window_s / num_buckets
        self.num_buckets = num_buckets
        self.buckets: Dict[int, float] = {}
        self._head = 0

    # -- writing --------------------------------------------------------
    def inc(self, now: float, amount: float = 1) -> None:
        index = int(now // self.bucket_width)
        if index > self._head:
            self._head = index
            self._prune()
        self.buckets[index] = self.buckets.get(index, 0) + amount

    def _prune(self) -> None:
        floor = self._head - self.num_buckets + 1
        for index in [i for i in self.buckets if i < floor]:
            del self.buckets[index]

    # -- reading --------------------------------------------------------
    def _live_indices(self, now: float, horizon_s: Optional[float]) -> range:
        head = int(now // self.bucket_width)
        span = self.num_buckets
        if horizon_s is not None:
            span = min(span, max(1, int(round(horizon_s / self.bucket_width))))
        return range(head - span + 1, head + 1)

    def total(self, now: float, horizon_s: Optional[float] = None) -> float:
        """Windowed sum ending at ``now`` (optionally a shorter horizon)."""
        return sum(
            self.buckets.get(i, 0) for i in self._live_indices(now, horizon_s)
        )

    def rate(self, now: float, horizon_s: Optional[float] = None) -> float:
        """Windowed per-second rate ending at ``now``."""
        indices = self._live_indices(now, horizon_s)
        return self.total(now, horizon_s) / (len(indices) * self.bucket_width)


class RollingHistogram:
    """A sliding window of per-bucket :class:`Histogram` states.

    Each time bucket holds a full fixed-bound histogram; windowed
    percentiles fold the live time buckets into one histogram and read
    it the same way the registry does, so windowed p99 and run-total
    p99 share one estimator.
    """

    __slots__ = ("bucket_width", "num_buckets", "bounds", "buckets", "_head")

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if window_s <= 0 or num_buckets <= 0:
            raise ValueError("window_s and num_buckets must be positive")
        self.bucket_width = window_s / num_buckets
        self.num_buckets = num_buckets
        self.bounds = tuple(bounds)
        self.buckets: Dict[int, Histogram] = {}
        self._head = 0

    # -- writing --------------------------------------------------------
    def _bucket(self, now: float) -> Histogram:
        index = int(now // self.bucket_width)
        if index > self._head:
            self._head = index
            self._prune()
        histogram = self.buckets.get(index)
        if histogram is None:
            histogram = self.buckets[index] = Histogram(self.bounds)
        return histogram

    def observe(self, now: float, value: float) -> None:
        self._bucket(now).observe(value)

    def _prune(self) -> None:
        floor = self._head - self.num_buckets + 1
        for index in [i for i in self.buckets if i < floor]:
            del self.buckets[index]

    # -- reading --------------------------------------------------------
    def _live_indices(self, now: float, horizon_s: Optional[float]) -> range:
        head = int(now // self.bucket_width)
        span = self.num_buckets
        if horizon_s is not None:
            span = min(span, max(1, int(round(horizon_s / self.bucket_width))))
        return range(head - span + 1, head + 1)

    def fold(self, now: float, horizon_s: Optional[float] = None) -> Histogram:
        """One combined histogram over the live window ending at ``now``."""
        combined = Histogram(self.bounds)
        for index in self._live_indices(now, horizon_s):
            histogram = self.buckets.get(index)
            if histogram is not None:
                combined.merge(histogram.snapshot())
        return combined

    def count(self, now: float, horizon_s: Optional[float] = None) -> int:
        return sum(
            self.buckets[i].count
            for i in self._live_indices(now, horizon_s)
            if i in self.buckets
        )

    def percentile(
        self, now: float, q: float, horizon_s: Optional[float] = None
    ) -> float:
        return self.fold(now, horizon_s).percentile(q)


class LiveWindows:
    """The catalog-declared set of rolling windows for one process."""

    __slots__ = ("window_s", "num_buckets", "counters", "histograms")

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.window_s = float(window_s)
        self.num_buckets = int(num_buckets)
        self.counters: Dict[str, RollingCounter] = {}
        self.histograms: Dict[str, RollingHistogram] = {}
        for name, kind in catalog.WINDOWS.items():
            if kind == "histogram":
                self.histograms[name] = RollingHistogram(
                    window_s, num_buckets, bounds
                )
            else:
                self.counters[name] = RollingCounter(window_s, num_buckets)

    # -- writing --------------------------------------------------------
    def inc(self, name: str, now: float, amount: float = 1) -> None:
        counter = self.counters.get(name)
        if counter is None:
            raise KeyError(
                "undeclared rolling-window counter {!r}; declare it in "
                "repro.metrics.catalog.WINDOWS".format(name)
            )
        counter.inc(now, amount)

    def observe(self, name: str, now: float, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            raise KeyError(
                "undeclared rolling-window histogram {!r}; declare it in "
                "repro.metrics.catalog.WINDOWS".format(name)
            )
        histogram.observe(now, value)

    # -- reading --------------------------------------------------------
    def total(
        self, name: str, now: float, horizon_s: Optional[float] = None
    ) -> float:
        if name in self.counters:
            return self.counters[name].total(now, horizon_s)
        return float(self.histograms[name].count(now, horizon_s))

    def rate(
        self, name: str, now: float, horizon_s: Optional[float] = None
    ) -> float:
        counter = self.counters.get(name)
        if counter is not None:
            return counter.rate(now, horizon_s)
        histogram = self.histograms[name]
        indices = histogram._live_indices(now, horizon_s)
        return histogram.count(now, horizon_s) / (
            len(indices) * histogram.bucket_width
        )

    def percentile(
        self, name: str, now: float, q: float, horizon_s: Optional[float] = None
    ) -> float:
        return self.histograms[name].percentile(now, q, horizon_s)


def standard_readings(windows: LiveWindows, now: float) -> Dict[str, object]:
    """The canonical windowed readout: rates, ratios, percentiles."""
    answered = windows.total(catalog.W_ANSWERED, now)
    hits = windows.total(catalog.W_HITS, now)
    request = windows.histograms[catalog.W_REQUEST].fold(now)
    return {
        "sim_now": now,
        "window_s": windows.window_s,
        "request_rate": windows.rate(catalog.W_REQUEST, now),
        "requests": request.count,
        "request_p50_ms": request.percentile(50) * 1e3,
        "request_p95_ms": request.percentile(95) * 1e3,
        "request_p99_ms": request.percentile(99) * 1e3,
        "hit_rate": hits / answered if answered else 0.0,
        "overflow": windows.total(catalog.W_OVERFLOW, now),
        "wasted": windows.total(catalog.W_WASTED, now),
    }


class LiveTelemetry:
    """One process's live plane: sampling and SLO evaluation.

    ``proxies`` is the list of :class:`AccelerationProxy` instances this
    process serves (one per app).  Each :meth:`tick` diffs their
    cumulative counters (hits, answered, learner overflows, wasted
    prefetches) into the current window bucket, then lets the SLO
    engine read the windows.
    """

    def __init__(
        self,
        proxies: Sequence[object],
        windows: Optional[LiveWindows] = None,
        slo: Optional[object] = None,
        interval_s: float = DEFAULT_TICK_S,
    ) -> None:
        self.proxies = list(proxies)
        self.windows = windows if windows is not None else LiveWindows()
        self.slo = slo
        self.interval_s = float(interval_s)
        self.ticks = 0
        #: the last virtual instant the plane observed serving work.
        #: End-of-run reads anchor here instead of the simulator's
        #: final clock: terminal events (in-flight prefetch chains,
        #: estimator probes) can run the clock far past ``duration``,
        #: and a window read there would have slid past the whole run.
        self.last_now = 0.0
        #: latency threshold (seconds) above which a request is "slow";
        #: wired from the SLO latency objective when one is configured
        self.slow_threshold_s: Optional[float] = None
        if slo is not None:
            self.slow_threshold_s = getattr(slo, "slow_threshold_s", None)
        self._prev: Dict[str, float] = {}

    @property
    def alerts(self) -> List[Dict[str, object]]:
        """Every alert the SLO engine fired, oldest first."""
        return self.slo.alerts if self.slo is not None else []

    # -- per-request hook (the only hot-path touch) ---------------------
    def on_request(self, latency_s: float, now: float) -> None:
        if now > self.last_now:
            self.last_now = now
        self.windows.observe(catalog.W_REQUEST, now, latency_s)
        if self.slow_threshold_s is not None and latency_s > self.slow_threshold_s:
            self.windows.inc(catalog.W_REQUEST_SLOW, now)

    # -- periodic tick --------------------------------------------------
    def _cumulative(self) -> Dict[str, float]:
        served = forwarded = overflow = wasted = 0.0
        for proxy in self.proxies:
            served += proxy.served_prefetched
            forwarded += proxy.forwarded
            learner = getattr(proxy, "learner", None)
            if learner is not None:
                overflow += getattr(learner, "queue_overflows", 0)
            cache = getattr(proxy, "cache", None)
            if cache is not None:
                wasted += getattr(cache, "wasted", 0)
        return {
            "hits": served,
            "answered": served + forwarded,
            "overflow": overflow,
            "wasted": wasted,
        }

    def _sample_deltas(self, now: float) -> None:
        current = self._cumulative()
        deltas = {
            key: current[key] - self._prev.get(key, 0.0) for key in current
        }
        self._prev = current
        if deltas["hits"]:
            self.windows.inc(catalog.W_HITS, now, deltas["hits"])
        if deltas["answered"]:
            self.windows.inc(catalog.W_ANSWERED, now, deltas["answered"])
        if deltas["overflow"]:
            self.windows.inc(catalog.W_OVERFLOW, now, deltas["overflow"])
        if deltas["wasted"]:
            self.windows.inc(catalog.W_WASTED, now, deltas["wasted"])

    def tick(self, now: float) -> None:
        """One telemetry pass: sample, then evaluate SLOs."""
        self.ticks += 1
        if now > self.last_now:
            self.last_now = now
        PERF.incr("telemetry.ticks")
        self._sample_deltas(now)
        if self.slo is not None:
            for alert in self.slo.evaluate(self.windows, now):
                PERF.incr("slo.alerts")
                TRACER.append_record(_alert_record(alert))

    def finalize(self) -> None:
        """Last sample at run end so trailing deltas land in a window.

        Anchored at :attr:`last_now` — counter increments from
        terminal events are attributed to the final serving instant,
        keeping them inside the window the end-of-run verdict reads.
        """
        self._sample_deltas(self.last_now)

    # -- end-of-run summary ---------------------------------------------
    def summary(self, now: float) -> Dict[str, object]:
        return {
            "ticks": self.ticks,
            "alerts": len(self.alerts),
            "readings": standard_readings(self.windows, now),
        }


def _alert_record(alert: Dict[str, object]) -> Dict[str, object]:
    """An SLO alert as a spanless trace record (``kind=alert``)."""
    return {
        "trace_id": "alert:{}:{:06d}".format(
            alert.get("objective", "?"), int(alert.get("seq", 0))
        ),
        "user": "-",
        "kind": "alert",
        "spans": [],
        "tags": {str(k): v for k, v in alert.items()},
    }
