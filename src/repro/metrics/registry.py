"""Labeled metric registry: counters, gauges, fixed-bucket histograms.

One process-wide store for everything the serving core measures about
itself.  Series are addressed by a metric *name* plus an optional
label set — ``cache.miss{cause="miss_expired"}`` — and come in three
kinds:

* **counters** — monotonic sums (plain ``dict`` writes on the hot
  path, exactly what :mod:`repro.metrics.perf` has always done);
* **gauges** — last-written values (queue depths, shard counts);
* **histograms** — fixed-bucket latency distributions with a
  p50/p95/p99 readout estimated by linear interpolation inside the
  bucket holding the rank.

:data:`~repro.metrics.perf.PERF` is a thin facade over one registry:
its ``counters``/``timings`` dicts *are* the registry's stores, so
every existing ``PERF.incr`` call site is already writing labeled-less
series here, and ``PERF.stage`` feeds a ``stage_seconds{stage=...}``
histogram alongside the accumulated total.

Label cardinality is bounded per metric (``max_series_per_metric``):
once a metric has that many live series, further new label sets are
folded into one ``{overflow="true"}`` series instead of growing the
store without bound — label values must be *bounded* dimensions
(signature site, stage, outcome), never per-request values.

``snapshot()`` returns the whole state as plain data, and
``render_prometheus()`` emits the text exposition format for scraping
or file dumps.
"""

from __future__ import annotations

import os
import tempfile
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: default histogram bucket upper bounds, in seconds: 1 µs doubling up
#: to ~134 s, plus the implicit +Inf overflow bucket
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(1e-6 * 2 ** i for i in range(28))


def series_key(name: str, labels: Optional[Dict[str, object]] = None) -> str:
    """Canonical series key: ``name`` or ``name{a="x",b="y"}`` (sorted)."""
    if not labels:
        return name
    return "{}{{{}}}".format(
        name,
        ",".join('{}="{}"'.format(k, labels[k]) for k in sorted(labels)),
    )


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`series_key` (labels come back as strings)."""
    if "{" not in key:
        return key, {}
    name, _, raw = key.partition("{")
    labels: Dict[str, str] = {}
    for part in raw.rstrip("}").split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value.strip('"')
    return name, labels


class Histogram:
    """Fixed-bucket histogram over non-negative values (seconds)."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        #: one slot per bound plus the +Inf overflow slot
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (linear within the bucket)."""
        if not self.count:
            return 0.0
        target = max(1.0, self.count * q / 100.0)
        cumulative = 0
        for index, bucket in enumerate(self.bucket_counts):
            if not bucket:
                continue
            cumulative += bucket
            if cumulative >= target:
                lower = self.bounds[index - 1] if index else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]
                )
                inside = (target - (cumulative - bucket)) / bucket
                return lower + (upper - lower) * inside
        return self.bounds[-1]  # pragma: no cover - unreachable

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, snapshot: Dict[str, object]) -> None:
        counts = list(snapshot["bucket_counts"])
        if tuple(snapshot["bounds"]) != self.bounds:
            raise ValueError(
                "cannot merge histograms: local bounds {} != snapshot "
                "bounds {}".format(self.bounds, tuple(snapshot["bounds"]))
            )
        for index, value in enumerate(counts):
            self.bucket_counts[index] += value
        self.count += int(snapshot["count"])
        self.sum += float(snapshot["sum"])

    def snapshot(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }

    def __repr__(self) -> str:
        return "Histogram(count={}, sum={:.6f})".format(self.count, self.sum)


class MetricRegistry:
    """Process-wide labeled counters, gauges, timings, and histograms."""

    __slots__ = (
        "counters",
        "gauges",
        "timings",
        "histograms",
        "max_series_per_metric",
        "overflow_series",
        "_series_count",
        "_keys",
    )

    def __init__(self, max_series_per_metric: int = 512) -> None:
        #: plain name (or series key) -> monotonic sum; shared with
        #: :class:`~repro.metrics.perf.PerfCounters` as its ``counters``
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: accumulated stage seconds, the facade's ``timings`` store
        self.timings: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.max_series_per_metric = max_series_per_metric
        self.overflow_series = 0
        self._series_count: Dict[str, int] = {}
        #: (name, *label items) -> series key, for admitted series only
        #: (bounded by the guard; cleared on reset)
        self._keys: Dict[Tuple, str] = {}

    # -- keying ---------------------------------------------------------
    def _key(self, store: Dict[str, object], name: str, labels) -> str:
        if not labels:
            return name
        # a live series' key is formatted once, not per recording
        memo = (name,) + tuple(labels.items())
        key = self._keys.get(memo)
        if key is not None and key in store:
            return key
        key = series_key(name, labels)
        if key in store:
            self._keys[memo] = key
            return key
        used = self._series_count.get(name, 0)
        if used >= self.max_series_per_metric:
            self.overflow_series += 1
            return series_key(name, {"overflow": "true"})
        self._series_count[name] = used + 1
        self._keys[memo] = key
        return key

    # -- recording ------------------------------------------------------
    def inc(self, name: str, amount: int = 1, labels=None) -> None:
        key = self._key(self.counters, name, labels)
        self.counters[key] = self.counters.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, labels=None) -> None:
        self.gauges[self._key(self.gauges, name, labels)] = value

    def observe(
        self,
        name: str,
        value: float,
        labels=None,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        key = self._key(self.histograms, name, labels)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(bounds)
        histogram.observe(value)

    # -- reading --------------------------------------------------------
    def histogram(self, name: str, labels=None) -> Optional[Histogram]:
        return self.histograms.get(series_key(name, labels))

    def series(self, name: str) -> Iterator[Tuple[Dict[str, str], Histogram]]:
        """Every histogram series of ``name``: (labels, histogram)."""
        for key, histogram in self.histograms.items():
            base, labels = parse_series_key(key)
            if base == name:
                yield labels, histogram

    def percentiles(
        self, name: str, labels=None, qs: Sequence[float] = (50, 95, 99)
    ) -> Dict[str, float]:
        histogram = self.histogram(name, labels)
        if histogram is None:
            return {}
        return {"p{:g}".format(q): histogram.percentile(q) for q in qs}

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Clear every store *in place* (facade dicts stay aliased)."""
        self.counters.clear()
        self.gauges.clear()
        self.timings.clear()
        self.histograms.clear()
        self._series_count.clear()
        self._keys.clear()
        self.overflow_series = 0

    def snapshot_histograms(self) -> Dict[str, Dict[str, object]]:
        return {key: h.snapshot() for key, h in self.histograms.items()}

    def snapshot(self) -> Dict[str, object]:
        """Full picklable registry state."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timings_s": dict(self.timings),
            "histograms": self.snapshot_histograms(),
            "overflow_series": self.overflow_series,
        }

    # -- export ---------------------------------------------------------
    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Text exposition format for every live series."""
        lines: List[str] = []
        emitted_types: Dict[str, str] = {}

        def emit(key: str, kind: str, suffix: str, value) -> None:
            name, labels = parse_series_key(key)
            metric = prefix + _sanitize(name) + suffix
            if metric not in emitted_types:
                emitted_types[metric] = kind
                lines.append("# TYPE {} {}".format(metric, kind))
            lines.append(
                "{}{} {}".format(metric, _label_text(labels), _fmt(value))
            )

        for key in sorted(self.counters):
            emit(key, "counter", "_total", self.counters[key])
        for key in sorted(self.timings):
            emit(key, "counter", "_seconds_total", self.timings[key])
        for key in sorted(self.gauges):
            emit(key, "gauge", "", self.gauges[key])
        for key in sorted(self.histograms):
            histogram = self.histograms[key]
            name, labels = parse_series_key(key)
            metric = prefix + _sanitize(name)
            if metric not in emitted_types:
                emitted_types[metric] = "histogram"
                lines.append("# TYPE {} histogram".format(metric))
            cumulative = 0
            bucket_bounds = list(histogram.bounds) + [float("inf")]
            for bound, count in zip(bucket_bounds, histogram.bucket_counts):
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = _fmt(bound)
                lines.append(
                    "{}_bucket{} {}".format(
                        metric, _label_text(bucket_labels), cumulative
                    )
                )
            label_text = _label_text(labels)
            lines.append("{}_sum{} {}".format(metric, label_text, _fmt(histogram.sum)))
            lines.append("{}_count{} {}".format(metric, label_text, histogram.count))
        return "\n".join(lines) + ("\n" if lines else "")

    def dump_prometheus(self, path: str, prefix: str = "repro_") -> str:
        """Atomically write :meth:`render_prometheus` output to ``path``.

        The text lands in a temp file next to ``path`` and is moved
        into place with ``os.replace``, so a scraper tailing the file
        never reads a half-written exposition.  The file gets the mode
        a plain ``open(path, "w")`` would give it (0666 less the
        umask), not the temp file's owner-only 0600, so a scraper
        running as another user can still read it.
        """
        text = self.render_prometheus(prefix=prefix)
        directory = os.path.dirname(os.path.abspath(path))
        handle, tmp_path = tempfile.mkstemp(
            prefix=".prom-", dir=directory or None
        )
        try:
            with os.fdopen(handle, "w") as tmp:
                tmp.write(text)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp_path, 0o666 & ~umask)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return text

    def __repr__(self) -> str:
        return "MetricRegistry({} counters, {} histograms)".format(
            len(self.counters), len(self.histograms)
        )


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _escape_label_value(value) -> str:
    """Escape per the exposition spec: backslash, quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_text(labels: Dict[str, object]) -> str:
    """``{a="x",b="y"}`` with spec-escaped values ('' when unlabeled)."""
    if not labels:
        return ""
    return "{{{}}}".format(
        ",".join(
            '{}="{}"'.format(_sanitize(k), _escape_label_value(v))
            for k, v in sorted(labels.items())
        )
    )


def _fmt(value) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float):
        return repr(value)
    return str(value)
