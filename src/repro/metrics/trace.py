"""Per-request lifecycle tracing for the serving core.

The proxy decides per request whether to serve from the prefetch
cache, instantiate successors, or fall through to the origin (§4.5,
Fig. 10).  Aggregate counters say *how often* each happened; traces
say *which stage* of *which signature* a given request spent its time
in, and *why* a cache lookup missed.  One :class:`TraceContext` is
threaded through ``MultiAppProxy.handle_request`` →
``AccelerationProxy.handle_request`` → ``DynamicLearner`` →
``Prefetcher``/``Refresher``, collecting one :class:`Span` per stage:

========================  ====================================================
stage                     meaning
========================  ====================================================
``match``                 signature dispatch (indexed matcher)
``cache_lookup``          per-user exact-match cache probe
``origin_fetch``          proxy → origin round trip (misses, passthrough)
``learn``                 run-time value learning from the transaction
``instantiate``           successor spawning + pending-instance drain
``prefetch_issue``        prefetcher policy gates for one ready request
``store``                 cache insert of a fetched response
========================  ====================================================

``cache_lookup`` spans carry the per-request **outcome** tag — one of
:data:`LOOKUP_OUTCOMES` (``hit``, ``miss_expired``, ``miss_absent``,
``wildcard_pending``, ``disabled``, ``unmatched``, ``not_successor``,
``passthrough``) — plus the signature id and the user shard, which is
exactly the attribution a prefetcher postmortem needs.

Overhead discipline mirrors :data:`~repro.metrics.perf.PERF`: with the
global :data:`TRACER` disabled the cost at every call site is one
attribute load and a branch (``if TRACER.enabled:``); spans record
both host wall time (``time.perf_counter``) and, when a simulator
clock is configured, virtual time.  Sampling is decided per request by
a seeded PRNG, so a fixed seed yields a deterministic sample set, and
finished traces land in a bounded ring buffer (oldest dropped first)
exportable as JSONL — one record per line, validated by
:func:`validate_record`.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.metrics import catalog
from repro.metrics.registry import MetricRegistry

#: canonical stage names a span may carry (declared in the catalog,
#: the single source of truth for every observable name)
STAGES = catalog.SPAN_STAGES

#: every legal ``outcome`` tag of a ``cache_lookup`` span
LOOKUP_OUTCOMES = catalog.LOOKUP_OUTCOMES

#: the miss causes reported per request class (everything but a hit)
MISS_CAUSES = catalog.MISS_CAUSES

#: the app a summary's per-signature cells are filed under when the
#: trace holds a flat site -> cell table, with no app named
UNNAMED_APP = "-"

#: trace kinds: client requests, background prefetches, §5 refreshes,
#: plus run-level "summary" records (spanless, tags-only — e.g. the
#: scale harness's per-signature issued/hit/wasted table)
KINDS = catalog.TRACE_KINDS


class Span:
    """One stage of one traced request."""

    __slots__ = ("name", "wall_started_s", "wall_s", "sim_started", "sim_s", "tags")

    def __init__(self, name: str, wall_started_s: float, sim_started) -> None:
        self.name = name
        self.wall_started_s = wall_started_s
        self.wall_s = 0.0
        self.sim_started = sim_started
        self.sim_s: Optional[float] = None
        self.tags: Dict[str, object] = {}


class TraceContext:
    """Span collector for one request's trip through the proxy."""

    __slots__ = ("trace_id", "user", "app", "kind", "tags", "spans", "_sim_clock")

    def __init__(
        self,
        trace_id: str,
        user: str,
        kind: str = "request",
        sim_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.user = user
        self.app: Optional[str] = None
        self.kind = kind
        self.tags: Dict[str, object] = {}
        self.spans: List[Span] = []
        self._sim_clock = sim_clock

    def tag(self, key: str, value) -> None:
        self.tags[key] = value

    # ------------------------------------------------------------------
    def start_span(self, name: str, **tags) -> Span:
        span = Span(
            name,
            time.perf_counter(),
            self._sim_clock() if self._sim_clock is not None else None,
        )
        if tags:
            span.tags.update(tags)
        return span

    def end_span(self, span: Span, **tags) -> Span:
        span.wall_s = time.perf_counter() - span.wall_started_s
        if span.sim_started is not None:
            span.sim_s = self._sim_clock() - span.sim_started
        if tags:
            span.tags.update(tags)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        started = self.start_span(name, **tags)
        try:
            yield started
        finally:
            self.end_span(started)

    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, object]:
        spans = []
        for span in self.spans:
            row: Dict[str, object] = {
                "name": span.name,
                "wall_us": round(1e6 * span.wall_s, 3),
            }
            if span.sim_s is not None:
                row["sim_ms"] = round(1e3 * span.sim_s, 6)
            if span.tags:
                row["tags"] = dict(span.tags)
            spans.append(row)
        record: Dict[str, object] = {
            "trace_id": self.trace_id,
            "user": self.user,
            "kind": self.kind,
            "spans": spans,
        }
        if self.app is not None:
            record["app"] = self.app
        if self.tags:
            record["tags"] = dict(self.tags)
        return record


class Tracer:
    """Sampling trace sink with a bounded ring buffer.

    The global :data:`TRACER` is shared by every proxy in the process,
    exactly like :data:`~repro.metrics.perf.PERF`.  ``configure()``
    then ``enable()`` (or the ``capture()`` context manager) arm it;
    call sites guard with ``if TRACER.enabled:`` so the disabled path
    costs one branch.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.sample_rate = 1.0
        self.capacity = 4096
        self.registry: Optional[MetricRegistry] = None
        self.sim_clock: Optional[Callable[[], float]] = None
        self._rng = random.Random(0)
        self._ring: deque = deque(maxlen=self.capacity)
        self._next_id = 0
        self.started = 0
        self.sampled = 0
        self.finished = 0
        self.dropped = 0

    # -- lifecycle ------------------------------------------------------
    def configure(
        self,
        sample_rate: float = 1.0,
        capacity: int = 4096,
        seed: int = 0,
        registry: Optional[MetricRegistry] = None,
        sim_clock: Optional[Callable[[], float]] = None,
    ) -> "Tracer":
        """(Re)arm the sink; resets the ring, the PRNG, and the stats."""
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.sample_rate = sample_rate
        self.capacity = capacity
        self.registry = registry
        self.sim_clock = sim_clock
        self._rng = random.Random(seed)
        self._ring = deque(maxlen=capacity)
        self._next_id = 0
        self.started = 0
        self.sampled = 0
        self.finished = 0
        self.dropped = 0
        return self

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @contextmanager
    def capture(self, **configure_kwargs) -> Iterator["Tracer"]:
        """Configure + enable inside the block; restore state after."""
        previous = self.enabled
        self.configure(**configure_kwargs)
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous

    # -- recording ------------------------------------------------------
    def begin(
        self, user: str, app: Optional[str] = None, kind: str = "request"
    ) -> Optional[TraceContext]:
        """Start a trace for one request, or ``None`` if not sampled."""
        if not self.enabled:
            return None
        self.started += 1
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        self.sampled += 1
        self._next_id += 1
        context = TraceContext(
            "t{:08d}".format(self._next_id), user, kind=kind,
            sim_clock=self.sim_clock,
        )
        context.app = app
        return context

    def finish(self, context: Optional[TraceContext]) -> None:
        """File a finished trace; feeds the registry when one is set."""
        if context is None:
            return
        self.finished += 1
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(context.to_record())
        registry = self.registry
        if registry is not None:
            for span in context.spans:
                labels = {"stage": span.name}
                registry.observe(
                    catalog.SPAN_WALL_SECONDS, span.wall_s, labels=labels
                )
                outcome = span.tags.get("outcome")
                if outcome is not None:
                    registry.inc(
                        catalog.SPAN_OUTCOMES,
                        labels={"stage": span.name, "outcome": outcome},
                    )

    def append_record(self, record: Dict[str, object]) -> None:
        """File a pre-built record (e.g. a run-level ``summary``).

        Validated against the export schema so a bad producer fails at
        the source, not in a downstream ``repro stats`` run.
        """
        errors = validate_record(record)
        if errors:
            raise ValueError("invalid record: {}".format("; ".join(errors)))
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(record)

    # -- reading / export ----------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        return list(self._ring)

    def export_jsonl(self, path: str) -> int:
        """Write every buffered record, one JSON object per line."""
        records = self.records()
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        return len(records)

    def stats(self) -> Dict[str, object]:
        return {
            "started": self.started,
            "sampled": self.sampled,
            "finished": self.finished,
            "dropped": self.dropped,
            "buffered": len(self._ring),
            "sample_rate": self.sample_rate,
            "capacity": self.capacity,
        }

    def __repr__(self) -> str:
        return "Tracer(enabled={}, sampled={}, buffered={})".format(
            self.enabled, self.sampled, len(self._ring)
        )


#: process-global trace sink used by the proxy pipeline
TRACER = Tracer()


# ======================================================================
# span-record schema
# ======================================================================
def validate_record(record) -> List[str]:
    """Schema-check one exported trace record; returns the errors."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    for field, kind in (("trace_id", str), ("user", str), ("kind", str)):
        value = record.get(field)
        if not isinstance(value, kind):
            errors.append("{}: expected {}".format(field, kind.__name__))
    if isinstance(record.get("kind"), str) and record["kind"] not in KINDS:
        errors.append("kind: {!r} not in {}".format(record["kind"], KINDS))
    if "app" in record and not isinstance(record["app"], str):
        errors.append("app: expected str")
    if "tags" in record and not isinstance(record["tags"], dict):
        errors.append("tags: expected object")
    spans = record.get("spans")
    if not isinstance(spans, list):
        return errors + ["spans: expected array"]
    for index, span in enumerate(spans):
        where = "spans[{}]".format(index)
        if not isinstance(span, dict):
            errors.append("{}: expected object".format(where))
            continue
        name = span.get("name")
        if name not in STAGES:
            errors.append("{}.name: {!r} not in {}".format(where, name, STAGES))
        wall = span.get("wall_us")
        if not isinstance(wall, (int, float)) or wall < 0:
            errors.append("{}.wall_us: expected non-negative number".format(where))
        if "sim_ms" in span and (
            not isinstance(span["sim_ms"], (int, float)) or span["sim_ms"] < 0
        ):
            errors.append("{}.sim_ms: expected non-negative number".format(where))
        tags = span.get("tags", {})
        if not isinstance(tags, dict):
            errors.append("{}.tags: expected object".format(where))
            continue
        if name == "cache_lookup":
            outcome = tags.get("outcome")
            if outcome not in LOOKUP_OUTCOMES:
                errors.append(
                    "{}.tags.outcome: {!r} not in {}".format(
                        where, outcome, LOOKUP_OUTCOMES
                    )
                )
    return errors


def read_jsonl(path: str, validate: bool = True) -> List[Dict[str, object]]:
    """Load a JSONL trace export; raises ``ValueError`` on bad records."""
    records: List[Dict[str, object]] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError("line {}: invalid JSON: {}".format(line_number, error))
            if validate:
                errors = validate_record(record)
                if errors:
                    raise ValueError(
                        "line {}: {}".format(line_number, "; ".join(errors))
                    )
            records.append(record)
    return records


def aggregate_records(records) -> Dict[str, object]:
    """Roll trace records up into the per-stage / per-cause summary.

    Percentiles here are exact (computed from the raw span samples,
    not histogram buckets) since an offline aggregation has all the
    data in hand.
    """
    from repro.metrics.stats import percentile

    wall_by_stage: Dict[str, List[float]] = {}
    sim_by_stage: Dict[str, List[float]] = {}
    miss_causes: Dict[str, int] = {}
    outcome_counts: Dict[str, Dict[str, int]] = {}
    kinds: Dict[str, int] = {}
    by_signature: Dict[str, Dict[str, int]] = {}
    prefetch_by_signature: Dict[str, Dict[str, Dict[str, int]]] = {}
    for record in records:
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        if record["kind"] == "summary":
            table = record.get("tags", {}).get("prefetch_by_signature")
            if isinstance(table, dict):
                for key, value in table.items():
                    if not isinstance(value, dict):
                        continue
                    if all(isinstance(cell, dict) for cell in value.values()):
                        app, cells = key, value
                    else:
                        # a flat site -> cell table, exported before
                        # cells were keyed by app
                        app, cells = UNNAMED_APP, {key: value}
                    app_cells = prefetch_by_signature.setdefault(app, {})
                    for site, cell in cells.items():
                        merged = app_cells.setdefault(
                            site, {"issued": 0, "hits": 0, "used": 0, "wasted": 0}
                        )
                        for key in merged:
                            merged[key] += int(cell.get(key, 0))
        for span in record["spans"]:
            name = span["name"]
            wall_by_stage.setdefault(name, []).append(span["wall_us"])
            if "sim_ms" in span:
                sim_by_stage.setdefault(name, []).append(span["sim_ms"])
            tags = span.get("tags", {})
            outcome = tags.get("outcome")
            if outcome is not None:
                per_stage = outcome_counts.setdefault(name, {})
                per_stage[outcome] = per_stage.get(outcome, 0) + 1
            if name == "cache_lookup":
                signature = tags.get("signature") or "(unmatched)"
                row = by_signature.setdefault(
                    signature, {"hits": 0, "misses": 0}
                )
                if outcome == "hit":
                    row["hits"] += 1
                else:
                    row["misses"] += 1
                    if outcome is not None:
                        miss_causes[outcome] = miss_causes.get(outcome, 0) + 1
    stages: Dict[str, Dict[str, float]] = {}
    for name, samples in wall_by_stage.items():
        row = {
            "count": len(samples),
            "wall_us_p50": percentile(samples, 50),
            "wall_us_p95": percentile(samples, 95),
            "wall_us_p99": percentile(samples, 99),
            "wall_us_mean": sum(samples) / len(samples),
        }
        sims = sim_by_stage.get(name)
        if sims:
            row["sim_ms_p50"] = percentile(sims, 50)
            row["sim_ms_p95"] = percentile(sims, 95)
            row["sim_ms_p99"] = percentile(sims, 99)
        stages[name] = row
    return {
        "records": sum(kinds.values()),
        "kinds": kinds,
        "stages": stages,
        "miss_causes": miss_causes,
        "span_outcomes": outcome_counts,
        "by_signature": by_signature,
        "prefetch_by_signature": prefetch_by_signature,
    }


def registry_from_records(records) -> MetricRegistry:
    """Rebuild a registry (for a Prometheus dump) from trace records."""
    registry = MetricRegistry()
    for record in records:
        registry.inc(catalog.TRACES, labels={"kind": record["kind"]})
        for span in record["spans"]:
            labels = {"stage": span["name"]}
            registry.observe(
                catalog.SPAN_WALL_SECONDS, span["wall_us"] / 1e6, labels=labels
            )
            outcome = span.get("tags", {}).get("outcome")
            if outcome is not None:
                registry.inc(
                    catalog.SPAN_OUTCOMES,
                    labels={"stage": span["name"], "outcome": outcome},
                )
    return registry
