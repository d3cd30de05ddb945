"""The metric, label, and span-name catalog: every observable series.

The registry (:mod:`repro.metrics.registry`), the PERF facade
(:mod:`repro.metrics.perf`), and the tracer (:mod:`repro.metrics.trace`)
all address series by *string name*.  A typo'd name therefore does not
crash; it silently forks a parallel series that no dashboard, no
``repro stats`` rollup and no CI gate ever looks at.  This module is the single place those
names are declared, and ``python -m repro lint`` statically extracts
every name used at a call site and fails on anything undeclared
(rule family ``met-*`` in :mod:`repro.qa.rules.metrics_hygiene`).

Conventions
-----------
* **Unlabeled counters** (:data:`COUNTERS`) are the dotted
  ``PERF.incr`` names the hot path bumps (``matcher.memo_hits``).
* **Counter prefixes** (:data:`COUNTER_PREFIXES`) declare the few
  dynamically-suffixed families (``cache.miss.<cause>``) together with
  the *bounded* value set the suffix must come from — an unbounded
  suffix would be a cardinality leak, which is exactly what the lint
  rule exists to refuse.
* **Labeled metrics** (:data:`METRICS`) are registry series with their
  allowed label keys; label values must be bounded dimensions
  (signature site, stage, outcome), never per-request values.
* **Stage and span names** (:data:`PERF_STAGES`, :data:`SPAN_STAGES`)
  plus :data:`LOOKUP_OUTCOMES` / :data:`TRACE_KINDS` round out every
  vocabulary the trace schema validates.

Adding a metric is a two-line change: declare it here, then record it
at the call site through the constant (never a fresh string literal).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class MetricSpec:
    """One declared labeled series: name, kind, allowed label keys."""

    __slots__ = ("name", "kind", "labels", "doc")

    def __init__(self, name: str, kind: str, labels: Tuple[str, ...], doc: str) -> None:
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError("kind must be counter/gauge/histogram, got {!r}".format(kind))
        self.name = name
        self.kind = kind
        self.labels = labels
        self.doc = doc

    def __repr__(self) -> str:
        return "MetricSpec({!r}, {}, labels={})".format(self.name, self.kind, self.labels)


# ======================================================================
# trace vocabulary (the schema in repro.metrics.trace validates these)
# ======================================================================
#: canonical per-request span/stage names a trace span may carry
SPAN_STAGES: Tuple[str, ...] = (
    "match",
    "cache_lookup",
    "origin_fetch",
    "learn",
    "learn_drain",
    "instantiate",
    "prefetch_issue",
    "store",
)

#: every legal ``outcome`` tag of a ``cache_lookup`` span
LOOKUP_OUTCOMES: Tuple[str, ...] = (
    "hit",
    "miss_expired",
    "miss_absent",
    "wildcard_pending",
    "disabled",
    "unmatched",
    "not_successor",
    "passthrough",
)

#: the miss causes reported per request class (everything but a hit)
MISS_CAUSES: Tuple[str, ...] = tuple(o for o in LOOKUP_OUTCOMES if o != "hit")

#: trace record kinds (client requests, background prefetches, §5
#: refreshes, run-level spanless summaries, SLO burn-rate alerts)
TRACE_KINDS: Tuple[str, ...] = ("request", "prefetch", "refresh", "summary", "alert")

#: wall-clock stages accumulated by ``PERF.stage`` on the serving path
PERF_STAGES: Tuple[str, ...] = (
    "pass",
    "proxy.dispatch",
    "proxy.cache_lookup",
    "proxy.learn",
    "proxy.learn_drain",
)


# ======================================================================
# labeled registry series
# ======================================================================
#: histogram of per-stage wall seconds fed by ``PERF.stage``
STAGE_SECONDS = "stage_seconds"
#: histogram of sampled trace-span wall seconds fed by the tracer
SPAN_WALL_SECONDS = "span_wall_seconds"
#: counter of span outcomes (cache_lookup hits/miss causes, issue gates)
SPAN_OUTCOMES = "span_outcomes"
#: counter of trace records by kind (the stats rebuild path)
TRACES = "traces"
#: per-signature prefetch-cache hits
PREFETCH_HITS = "prefetch_hits"
#: per-signature prefetch issues
PREFETCH_ISSUED = "prefetch_issued"
#: per-signature entries that left the cache without serving a hit
PREFETCH_WASTED = "prefetch_wasted"

METRICS: Dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        MetricSpec(STAGE_SECONDS, "histogram", ("stage",),
                   "wall seconds per serving stage (PERF.stage)"),
        MetricSpec(SPAN_WALL_SECONDS, "histogram", ("stage",),
                   "wall seconds per sampled trace span"),
        MetricSpec(SPAN_OUTCOMES, "counter", ("stage", "outcome"),
                   "span outcome tags (hit / miss causes / issue gates)"),
        MetricSpec(TRACES, "counter", ("kind",),
                   "trace records by kind"),
        MetricSpec(PREFETCH_HITS, "counter", ("signature",),
                   "prefetch-cache hits per signature site"),
        MetricSpec(PREFETCH_ISSUED, "counter", ("signature",),
                   "prefetches issued per signature site"),
        MetricSpec(PREFETCH_WASTED, "counter", ("signature",),
                   "prefetched entries evicted/expired unserved, per site"),
    )
}


# ======================================================================
# unlabeled PERF counters (dotted hot-path names)
# ======================================================================
COUNTERS: Dict[str, str] = {
    "cache.stores": "prefetch-cache inserts",
    "cache.lookups": "per-user exact-match cache probes",
    "cache.lookup_hits": "cache probes answered from a prefetched entry",
    "cache.expired_on_lookup": "entries found expired at probe time",
    "cache.lru_evictions": "entries evicted by per-user/global LRU bounds",
    "cache.purged": "entries removed by expiry sweeps",
    "expiration.probes": "§4.3 expiration-estimator probe fetches",
    "expiration.disabled": "signatures disabled by probe errors",
    "history.issued": "prefetches issued by the PALOMA-style baseline",
    "learn.deferred_drained": "observations processed by the learn-queue drain",
    "learn.queue_depth_peak": "high-water mark of the learn queue",
    "learn.queue_overflow": "observations dropped by a full learn queue",
    "learner.enqueued": "pending successor instances enqueued",
    "learner.spawn_skipped": "successor groups refused at spawn (site disabled or chain too deep)",
    "learner.wake_retries": "pending-instance wake-index retries",
    "matcher.requests": "signature-dispatch attempts",
    "matcher.memo_hits": "dispatch answers served from the exact-key memo",
    "prefetch.submitted": "ready instances submitted (a site refused at spawn never is)",
    "prefetch.issued": "prefetch fetches actually issued",
    "prefetch.queue_peak": "high-water mark of the waiting prefetch queue",
    "prefetch.wasted": "prefetched entries that never served a hit",
    "sim.events": "simulator events processed",
    "sim.inline_starts": "awaited child processes started inside the parent's step",
    "slo.alerts": "burn-rate alerts raised by the SLO engine",
    "slo.evaluations": "SLO evaluation passes over the live windows",
    "telemetry.ticks": "live-telemetry sampling ticks",
}

#: the prefix of every per-cause cache-miss counter
CACHE_MISS_PREFIX = "cache.miss."

#: dynamically-suffixed counter families: prefix -> the bounded value
#: set the suffix is drawn from (unbounded suffixes are a cardinality
#: leak and the lint gate refuses them)
COUNTER_PREFIXES: Dict[str, Tuple[str, ...]] = {
    CACHE_MISS_PREFIX: MISS_CAUSES,
}


# ======================================================================
# rolling-window series (the live telemetry plane, repro.metrics.live)
# ======================================================================
#: sliding-window histogram of served request latency (seconds)
W_REQUEST = "proxy.request"
#: sliding-window histogram of ``proxy.learn`` (match + enqueue) wall seconds
W_LEARN = "proxy.learn"
#: requests answered (hit + forwarded), sampled per telemetry tick
W_ANSWERED = "proxy.answered"
#: requests slower than the latency objective's good_under threshold
W_REQUEST_SLOW = "proxy.request_slow"
#: requests served from a prefetched entry
W_HITS = "cache.hits"
#: observations dropped by a full learn queue
W_OVERFLOW = "learn.queue_overflow"
#: prefetched entries that left the cache unserved
W_WASTED = "prefetch.wasted"

#: every declared rolling-window series name -> its kind; the live
#: plane refuses undeclared names at runtime and the ``met-*`` lint
#: family checks ``windows.inc/observe`` call sites against this map
WINDOWS: Dict[str, str] = {
    W_REQUEST: "histogram",
    W_LEARN: "histogram",
    W_ANSWERED: "counter",
    W_REQUEST_SLOW: "counter",
    W_HITS: "counter",
    W_OVERFLOW: "counter",
    W_WASTED: "counter",
}


# ======================================================================
# lookup helpers (used by repro.qa.rules.metrics_hygiene)
# ======================================================================
def is_declared_counter(name: str) -> bool:
    """Is ``name`` a declared unlabeled counter (exact or prefix form)?"""
    if name in COUNTERS:
        return True
    for prefix, values in COUNTER_PREFIXES.items():
        if name.startswith(prefix) and name[len(prefix):] in values:
            return True
    return False


def declared_prefix_of(name: str) -> Optional[str]:
    """The declared dynamic prefix ``name`` starts with, if any."""
    for prefix in COUNTER_PREFIXES:
        if name.startswith(prefix):
            return prefix
    return None


def is_declared_name(name: str) -> bool:
    """Is ``name`` any declared metric (labeled series or counter)?"""
    return name in METRICS or is_declared_counter(name)


def is_declared_window(name: str) -> bool:
    """Is ``name`` a declared rolling-window series?"""
    return name in WINDOWS


def labels_for(name: str) -> Optional[Tuple[str, ...]]:
    """Allowed label keys of a labeled metric (None if undeclared)."""
    spec = METRICS.get(name)
    return spec.labels if spec is not None else None
