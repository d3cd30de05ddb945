"""Population-scale load harness (``python -m repro scale``).

Every other experiment in this repo drives a handful of simulated
users through full app sessions — trace scale.  This module drives the
*serving core* (one shared :class:`~repro.proxy.multiapp.MultiAppProxy`
front of every app's origins) with an **open-loop Poisson workload**
over N synthetic users, the way a production deployment would see
traffic: arrivals do not wait for earlier responses, each user owns a
cache shard and replays a recorded app session request-by-request, and
a background sweeper purges expired entries the way a long-lived proxy
must.  Reported numbers separate *virtual* performance (client latency
percentiles, hit rate) from *host* cost (wall seconds per request,
simulator events per second, peak RSS) — the latter is what must stay
flat as N grows, and ``benchmarks/test_perf_scale.py`` asserts exactly
that: per-request wall cost at 10k users within ~2× of 100 users.

The session template is recorded once per app by running the real
:class:`~repro.device.runtime.AppRuntime` against a private simulator
(launch + the paper's main interaction), so the replayed requests
exercise the genuine dependency chains: predecessors spawn prefetches,
successors hit the per-user cache, and the priority queue sees real
contention.

Session-consistent replay
-------------------------
Origins personalize: a feed returns *different item ids per user*, and
session cookies are per ``(origin, user)``.  Replaying the template
user's recorded bytes verbatim under another user therefore can never
hit the exact-match cache — the proxy prefetches the ids *this* user's
feed returned, while the replay asks for the ids the *template* user
saw (the measured 0–6% hit rates of earlier revisions).  Replay is
instead recipe-based: at template-recording time, every request field
fed by a dependency edge is annotated with *which predecessor response
value* it came from; at replay time the field is rewritten from the
replaying user's own latest predecessor response, and the Cookie
header is rewritten from a per-user jar.  The replayed session is then
exactly what a real client of that user would send — and prefetching
can finally be measured doing its job.

``--strategy {appx,history,none}`` selects what serves that workload:
the full APPx proxy, a PALOMA-style most-frequent-successor baseline
(:mod:`repro.proxy.history`), or no prefetching at all (the latency
baseline the paper's claim is measured against).
"""

from __future__ import annotations

import time
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.analysis.model import AnalysisResult
from repro.analysis.pipeline import analyze_apk
from repro.apps.registry import get_app
from repro.device.runtime import AppRuntime
from repro.httpmsg.cookies import CookieJar
from repro.httpmsg.message import Request, Response, Transaction
from repro.metrics.catalog import (
    CACHE_MISS_PREFIX,
    PREFETCH_HITS,
    PREFETCH_ISSUED,
    PREFETCH_WASTED,
    SPAN_WALL_SECONDS,
)
from repro.metrics.live import DEFAULT_WINDOW_S, LiveTelemetry, LiveWindows
from repro.metrics.perf import PERF, rss_peak_bytes
from repro.metrics.slo import SloEngine
from repro.metrics.stats import percentile
from repro.metrics.trace import TRACER
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import DirectTransport, OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.expiration import ExpirationEstimator
from repro.proxy.history import HistoryPrefetcher
from repro.proxy.multiapp import MultiAppProxy, MultiAppTransport
from repro.proxy.proxy import AccelerationProxy
from repro.server.content import Catalog

DEFAULT_APPS = ("wish", "doordash")
DEFAULT_RATE_PER_USER = 0.5  # requests / user / virtual second
PURGE_INTERVAL = 5.0  # virtual seconds between expiry sweeps
SAMPLE_INTERVAL = 1.0  # virtual seconds between cache-size samples
STRATEGIES = ("appx", "history", "none")
ACCESS_RTT = 0.055  # client <-> proxy round trip (seconds)
TRACE_CAPACITY = 65_536  # trace ring size when tracing is armed

_UNIT_INTERVAL = (lambda v: v is None or 0.0 <= v <= 1.0, "must be within [0, 1]")
#: every ranged setting of the harness: ``name -> (valid, rule)``
SETTING_CHECKS = {
    "users": (lambda v: v >= 1, "must be >= 1"),
    "duration": (lambda v: v > 0, "must be positive"),
    "rate_per_user": (lambda v: v > 0, "must be positive"),
    "max_entries_per_user": (lambda v: v is None or v >= 1, "must be >= 1"),
    "admission_threshold": _UNIT_INTERVAL,
    "trace_sample": _UNIT_INTERVAL,
    "strategy": (lambda v: v in STRATEGIES, "must be one of {}".format(STRATEGIES)),
}


def check_settings(**settings) -> None:
    """The harness's one range check, run before anything is built or
    served: ``ValueError`` names the first setting out of range."""
    for name, value in settings.items():
        valid, rule = SETTING_CHECKS[name]
        if not valid(value):
            raise ValueError("{} {}, got {!r}".format(name, rule, value))


def record_session_transactions(
    app_name: str, catalog_seed: int = 7
) -> List[Transaction]:
    """One real app session as its full transaction log.

    Runs launch plus the app's scripted main interaction on a private
    simulator over the direct topology; the responses are needed (not
    just the requests) so replay recipes can locate which predecessor
    response value fed each dependent request field.
    """
    spec = get_app(app_name)
    apk = spec.build_apk()
    sim = Simulator()
    origins, _ = spec.build_origin_map(sim, Catalog(catalog_seed))
    transport = DirectTransport(sim, Link(rtt=ACCESS_RTT, shared=True), origins)
    runtime = AppRuntime(apk, transport, sim, spec.default_profile("template-user"))

    def flow() -> Generator:
        yield sim.spawn(runtime.launch())
        yield Delay(6.0)
        for event in spec.main_flow:
            yield sim.spawn(runtime.dispatch(*event))
        return None

    sim.run_process(flow())
    return list(runtime.transaction_log)


def record_session_template(app_name: str, catalog_seed: int = 7) -> List[Request]:
    """Replay-ready request sequence of one real app session."""
    return [
        t.request.copy() for t in record_session_transactions(app_name, catalog_seed)
    ]


class _ReplayStep:
    """One template position: the recorded request plus its rewrite recipe.

    ``subs`` holds ``(succ_path, pred_site, pred_path, value_index)``
    tuples: at replay, the field at ``succ_path`` is overwritten with
    the ``value_index``-th value that the replaying user's own latest
    ``pred_site`` response exposes at ``pred_path``.
    """

    __slots__ = ("request", "site", "subs")

    def __init__(self, request: Request, site: Optional[str]) -> None:
        self.request = request
        self.site = site
        self.subs: List[Tuple[object, str, object, int]] = []


def _build_replay_steps(
    transactions: Sequence[Transaction],
    analysis: AnalysisResult,
    signature_for,
) -> List[_ReplayStep]:
    """Label template positions and derive their rewrite recipes.

    For a position matched to signature ``s``, each dependency edge
    into ``s`` is checked against the recording: when the recorded
    request's field value appears in the template user's latest earlier
    ``pred_site`` response at ``pred_path``, the *index* of that value
    is what generalizes across users (feeds are personalized — the
    value itself does not), so the recipe stores the index.
    """
    steps: List[_ReplayStep] = []
    last_ok: Dict[str, int] = {}  # site -> latest earlier ok transaction
    for index, transaction in enumerate(transactions):
        signature = signature_for(transaction.request)
        site = signature.site if signature is not None else None
        step = _ReplayStep(transaction.request.copy(), site)
        if site is not None:
            for edge in analysis.predecessors_of(site):
                previous = last_ok.get(edge.pred_site)
                if previous is None:
                    continue
                try:
                    template_values = edge.pred_path.extract(
                        transactions[previous].response
                    )
                    own = edge.succ_path.extract(transaction.request)
                except (ValueError, KeyError):
                    continue
                if own and own[0] in template_values:
                    step.subs.append(
                        (
                            edge.succ_path,
                            edge.pred_site,
                            edge.pred_path,
                            template_values.index(own[0]),
                        )
                    )
        steps.append(step)
        if site is not None and transaction.response.ok:
            last_ok[site] = index
    return steps


class _UserSession:
    """Per-user replay state: cookie jar, latest ok response per site,
    the values extracted from those responses, and the session-template
    cursor."""

    __slots__ = ("jar", "responses", "extracted", "position")

    def __init__(self) -> None:
        self.jar = CookieJar()
        self.responses: Dict[str, Response] = {}
        #: site -> {pred_path -> values} of ``responses[site]``
        self.extracted: Dict[str, Dict[object, List]] = {}
        self.position: Optional[int] = None

    def values_at(self, site: str, path) -> List:
        """Values the latest ``site`` response exposes at ``path``.

        Each list is extracted once per stored response; a missing
        response or a failed extraction yields no values.
        """
        memo = self.extracted.get(site)
        if memo is None:
            memo = self.extracted[site] = {}
        values = memo.get(path)
        if values is None:
            response = self.responses.get(site)
            try:
                values = [] if response is None else path.extract(response)
            except (ValueError, KeyError):
                values = []
            memo[path] = values
        return values

    def store(self, site: str, response: Response) -> None:
        """File ``response`` as the latest for ``site``; forget its values."""
        self.responses[site] = response
        self.extracted.pop(site, None)


def _history_site_for(learner):
    """Label history-prefetched entries with the matching signature site
    so per-signature hit accounting stays comparable across strategies."""

    def site_for(request: Request) -> str:
        signature = learner.signature_for(request)
        return signature.site if signature is not None else ""

    return site_for


class _ScaleDeployment:
    """One MultiAppProxy serving every requested app's origins."""

    def __init__(
        self,
        apps: Sequence[str],
        catalog_seed: int = 7,
        max_entries_per_user: Optional[int] = None,
        admission_threshold: Optional[float] = None,
        strategy: str = "appx",
    ) -> None:
        check_settings(
            max_entries_per_user=max_entries_per_user,
            admission_threshold=admission_threshold, strategy=strategy,
        )
        self.sim = Simulator()
        self.origins = OriginMap()
        self.multi = MultiAppProxy(self.sim, self.origins)
        self.strategy = strategy
        #: the admission override as built (None: the proxy default); a
        #: reused deployment's row reports it, and its caches' bounds
        self.admission_threshold = admission_threshold
        self.templates: Dict[str, List[Request]] = {}
        self.steps: Dict[str, List[_ReplayStep]] = {}
        #: per app, the template positions whose site is a dependency
        #: predecessor (chain triggers) — warm starts anchor on these
        self.pred_positions: Dict[str, List[int]] = {}
        self.history: Dict[str, HistoryPrefetcher] = {}
        for name in apps:
            spec = get_app(name)
            app_origins, _ = spec.build_origin_map(self.sim, Catalog(catalog_seed))
            for origin, endpoint in app_origins.origins().items():
                self.origins.register(
                    origin,
                    endpoint,
                    app_origins.link_for(Request("GET", _origin_uri(origin))),
                )
            analysis = analyze_apk(spec.build_apk())
            cache = PrefetchCache(max_entries_per_user=max_entries_per_user)
            proxy = AccelerationProxy(self.sim, app_origins, analysis, cache=cache)
            if admission_threshold is not None:
                proxy.config.admission_threshold = admission_threshold
            if strategy != "appx":
                # non-appx strategies serve the identical workload with
                # signature-driven prefetching off; cache lookups still
                # run, so history-strategy entries get served normally
                for site in list(proxy.config.policies):
                    proxy.config.disable(site, "strategy={}".format(strategy))
            if strategy == "history":
                self.history[name] = HistoryPrefetcher(
                    self.sim,
                    app_origins,
                    cache,
                    site_for=_history_site_for(proxy.learner),
                )
            self.multi.register_app(name, proxy)
            transactions = record_session_transactions(name, catalog_seed)
            self.templates[name] = [t.request.copy() for t in transactions]
            steps = _build_replay_steps(
                transactions, analysis, proxy.learner.signature_for
            )
            self.steps[name] = steps
            pred_sites = {edge.pred_site for edge in analysis.dependencies}
            self.pred_positions[name] = [
                i for i, step in enumerate(steps) if step.site in pred_sites
            ]


def _origin_uri(origin: str):
    from repro.httpmsg.uri import Uri

    return Uri.parse(origin + "/")


def stage_latency_from_registry(registry) -> Dict[str, Dict[str, float]]:
    """Per-stage latency table out of a registry's span histograms.

    Per-stage wall time comes from trace spans only: each
    ``span_wall_seconds{stage=...}`` series reports under
    ``span:<stage>``, so an untraced run's table is empty.
    """
    stage_latency: Dict[str, Dict[str, float]] = {}
    for labels, histogram in registry.series(SPAN_WALL_SECONDS):
        if not histogram.count:
            continue
        stage_latency["span:" + labels.get("stage", "")] = {
            "count": histogram.count,
            "p50_us": 1e6 * histogram.percentile(50),
            "p95_us": 1e6 * histogram.percentile(95),
            "p99_us": 1e6 * histogram.percentile(99),
            "mean_us": 1e6 * histogram.mean,
            "total_s": histogram.sum,
        }
    return stage_latency


def miss_causes_from_counters(counters: Dict[str, int]) -> Dict[str, int]:
    """The ``cache.miss.<cause>`` counters, keyed by bare cause."""
    return {
        name[len(CACHE_MISS_PREFIX):]: count
        for name, count in counters.items()
        if name.startswith(CACHE_MISS_PREFIX)
    }


def run_scale(
    users: int,
    duration: float,
    apps: Sequence[str] = DEFAULT_APPS,
    rate_per_user: float = DEFAULT_RATE_PER_USER,
    seed: int = 0,
    max_entries_per_user: Optional[int] = None,
    trace_path: Optional[str] = None,
    trace_sample: Optional[float] = None,
    strategy: str = "appx",
    admission_threshold: Optional[float] = None,
    estimate_expiration: bool = False,
    warm_start: bool = False,
    collect_latencies: bool = False,
    telemetry: bool = False,
    slo_config: Optional[Dict[str, object]] = None,
    _deployment: Optional[_ScaleDeployment] = None,
) -> Dict[str, object]:
    """Serve an open-loop Poisson workload; returns the metrics row.

    ``users`` synthetic users are split round-robin across ``apps``;
    each replays its app's recorded session cyclically, one request
    per arrival.  Arrivals form a Poisson process of total rate
    ``users * rate_per_user`` over ``duration`` virtual seconds —
    open-loop: an arrival never waits for a previous response, so a
    slow serving core cannot throttle its own measured load.  Wall
    time is measured around the event loop only (deployment and
    workload construction excluded).

    Request-lifecycle tracing is armed when ``trace_path`` or
    ``trace_sample`` is given: the global tracer samples
    ``trace_sample`` of requests (default 1.0) into a ring of
    :data:`TRACE_CAPACITY` records, feeds per-stage span histograms into
    the PERF registry, and — when ``trace_path`` is set — exports the
    buffered records as JSONL after the run.  Left off (the default),
    the serving core pays only the one-branch disabled check.

    ``_deployment`` reuses an already-built :class:`_ScaleDeployment`
    (it must have been built with the same apps and strategy; the row
    reports its cache and admission settings, and those arguments here
    go unused); and ``collect_latencies`` attaches the
    raw per-request virtual latencies to the row under
    ``"latencies_s"`` so a caller serving several seeds can compute
    exact aggregate percentiles across them.

    The **live telemetry plane** (:mod:`repro.metrics.live`) is armed
    by ``telemetry=True`` or by an SLO config (``slo_config``, the
    parsed ``benchmarks/slo.json``): a simulator process ticks every
    ``DEFAULT_TICK_S`` (0.5) virtual seconds, maintaining rolling windows
    and evaluating SLO burn rates (alerts land in the trace ring as
    ``kind=alert``).  The row gains ``live`` / ``slo`` sections
    (``None`` when the plane is off, which is the default: the only
    hot-path cost of the disabled plane is one ``is None`` branch).
    """
    import random

    # a deployment checks its own settings before it is built
    check_settings(
        users=users, duration=duration, rate_per_user=rate_per_user, trace_sample=trace_sample
    )
    tracing = trace_path is not None or trace_sample is not None
    apps = tuple(apps)
    deployment = _deployment
    if deployment is not None and deployment.strategy != strategy:
        raise ValueError(
            "reused deployment was built for strategy {!r}, not {!r}".format(
                deployment.strategy, strategy
            )
        )
    if deployment is None:
        deployment = _ScaleDeployment(
            apps,
            max_entries_per_user=max_entries_per_user,
            admission_threshold=admission_threshold,
            strategy=strategy,
        )
    sim = deployment.sim
    multi = deployment.multi
    rng = random.Random(seed)

    estimators: List[ExpirationEstimator] = []
    if estimate_expiration and strategy == "appx":
        for _, proxy in multi._apps:
            estimator = ExpirationEstimator(sim, proxy.origins, proxy.config)
            proxy.prefetcher.expiration = estimator
            estimators.append(estimator)
            sim.spawn(
                estimator.run(proxy.prefetcher.sample_requests, duration=duration)
            )

    user_app = [apps[i % len(apps)] for i in range(users)]
    # each user starts at a random point of its session template so the
    # request mix is stationary: the share of chain-triggering
    # predecessor requests is the same whether a cell sees each user
    # once (large N, short duration) or many times (small N) — without
    # this, large-N cells would be 100% session-start requests and the
    # per-request cost comparison across population sizes would be
    # comparing different workloads.  ``warm_start`` backs the random
    # start up to the nearest chain-trigger position, so a new user's
    # first requests include the predecessor that makes its successors
    # prefetchable at all — the right mode for strategy comparisons
    # (hits need the user's own predecessor response), but OFF by
    # default because it breaks exactly that stationarity: every first
    # arrival becomes a fan-out-triggering predecessor, and short
    # large-N cells degenerate into pure prefetch storms.
    sessions: Dict[int, _UserSession] = {}
    transports: Dict[int, MultiAppTransport] = {}
    latencies: List[float] = []
    state = {"sent": 0, "completed": 0, "peak_entries": 0}

    # live telemetry plane: rolling windows + SLO burn
    live: Optional[LiveTelemetry] = None
    engine: Optional[SloEngine] = None
    if telemetry or slo_config is not None:
        engine = SloEngine(slo_config) if slo_config is not None else None
        window_s = engine.window_s if engine is not None else DEFAULT_WINDOW_S
        live = LiveTelemetry(
            [proxy for _, proxy in multi._apps],
            windows=LiveWindows(window_s=window_s),
            slo=engine,
        )

    def transport_for(user_index: int) -> MultiAppTransport:
        transport = transports.get(user_index)
        if transport is None:
            transport = MultiAppTransport(
                sim,
                Link(rtt=ACCESS_RTT, shared=True, name="access-u{}".format(user_index)),
                multi,
            )
            transports[user_index] = transport
        return transport

    def send_one(user_index: int, step: _ReplayStep) -> Generator:
        app = user_app[user_index]
        session = sessions[user_index]
        user = "u{}".format(user_index)
        request = step.request.copy()
        # session-consistent replay: dependency-fed fields come from
        # this user's own predecessor responses, and the Cookie header
        # from this user's own jar — never the template user's bytes
        for succ_path, pred_site, pred_path, value_index in step.subs:
            values = session.values_at(pred_site, pred_path)
            if value_index < len(values):
                try:
                    succ_path.assign(request, values[value_index])
                except (ValueError, KeyError):
                    pass
        origin = request.uri.origin()
        # Rewrite the Cookie header only on steps where the recorded
        # template sent one: real apps attach cookies consistently per
        # endpoint, and the learner's prefetch requests mirror exactly
        # that shape (no cookie field in the signature means prefetched
        # entries are stored cookie-less — a demand replay that adds
        # one can never exact-match them).  When the jar has nothing
        # yet, the template value is left alone so the request still
        # matches its signature on the first cycle.
        if step.request.headers.get("Cookie") is not None:
            cookie = session.jar.cookie_header(origin)
            if cookie:
                request.headers.set("Cookie", cookie)
        history = deployment.history.get(app)
        if history is not None:
            history.observe(user, request, sim.now)
        started_at = sim.now
        response = yield from transport_for(user_index).send(request, user)
        elapsed = sim.now - started_at
        latencies.append(elapsed)
        state["completed"] += 1
        if live is not None:
            live.on_request(elapsed, sim.now)
        session.jar.store_from_response(origin, response)
        if step.site is not None and response.ok:
            session.store(step.site, response)
        return None

    def arrivals() -> Generator:
        total_rate = users * rate_per_user
        while True:
            yield Delay(rng.expovariate(total_rate))
            if sim.now >= duration:
                return None
            user_index = rng.randrange(users)
            steps = deployment.steps[user_app[user_index]]
            session = sessions.get(user_index)
            if session is None:
                session = sessions[user_index] = _UserSession()
                position = rng.randrange(len(steps))
                if warm_start:
                    anchors = deployment.pred_positions[user_app[user_index]]
                    if anchors:
                        eligible = [p for p in anchors if p <= position]
                        position = eligible[-1] if eligible else anchors[0]
                session.position = position
            step = steps[session.position % len(steps)]
            session.position += 1
            state["sent"] += 1
            sim.spawn(send_one(user_index, step))

    def sweeper() -> Generator:
        while sim.now < duration:
            yield Delay(PURGE_INTERVAL)
            multi.purge_expired(sim.now)
        return None

    def sampler() -> Generator:
        while sim.now < duration:
            yield Delay(SAMPLE_INTERVAL)
            entries = multi.cache_entries()
            if entries > state["peak_entries"]:
                state["peak_entries"] = entries
        return None

    def telemetry_loop() -> Generator:
        while sim.now < duration:
            yield Delay(live.interval_s)
            live.tick(sim.now)
        return None

    sim.spawn(arrivals())
    sim.spawn(sweeper())
    sim.spawn(sampler())
    if live is not None:
        sim.spawn(telemetry_loop())

    if tracing:
        TRACER.configure(
            sample_rate=1.0 if trace_sample is None else trace_sample,
            capacity=TRACE_CAPACITY,
            registry=PERF.registry,
            sim_clock=lambda: sim.now,
        )
        TRACER.enable()
    try:
        with PERF.capture():
            wall_started = time.perf_counter()
            sim.run()
            wall_s = time.perf_counter() - wall_started
            sim_events = PERF.get("sim.events")
    finally:
        if tracing:
            TRACER.disable()

    trace_stats: Optional[Dict[str, object]] = None
    if tracing:
        trace_stats = TRACER.stats()
        if trace_path is not None:
            trace_stats["path"] = trace_path
        # exported below, after the per-signature summary record is
        # appended to the ring (so offline audits see it in the file)

    # per-stage latency histograms out of the registry: sampled trace
    # spans feed span_wall_seconds{stage=...}
    stage_latency = stage_latency_from_registry(PERF.registry)
    miss_causes = miss_causes_from_counters(PERF.counters)

    if live is not None:
        # trailing counter deltas land in the final window bucket so
        # the end-of-run readings/verdict see the whole run
        live.finalize()

    final_entries = multi.cache_entries()
    if final_entries > state["peak_entries"]:
        state["peak_entries"] = final_entries
    served = sum(proxy.served_prefetched for _, proxy in multi._apps)
    forwarded = sum(proxy.forwarded for _, proxy in multi._apps)
    issued = sum(proxy.prefetcher.issued for _, proxy in multi._apps) + sum(
        h.issued for h in deployment.history.values()
    )
    caches = [proxy.cache for _, proxy in multi._apps]
    requests = state["completed"]
    answered = served + forwarded

    # per-signature prefetch efficacy, per app (site ids repeat across
    # apps) — the audit table behind admission decisions: ``used`` and
    # ``wasted`` are the outcomes of the site's stored entries, ``hits``
    # the cache hits of demand requests matched to the site (one entry
    # may serve several).  The registry's per-signature series are
    # written here, once per run, from the same per-site tallies (the
    # ``--prom`` dump reads them); a reused deployment's tallies, like
    # this table, span every run served on it
    by_signature: Dict[str, Dict[str, Dict[str, int]]] = {}
    registry = PERF.registry
    for name, proxy in multi._apps:
        for site, count in proxy.prefetcher.issued_by_site.items():
            registry.inc(PREFETCH_ISSUED, count, labels={"signature": site})
        for site, count in proxy.cache.hits.items():
            registry.inc(PREFETCH_HITS, count, labels={"signature": site})
        for site, count in proxy.cache.wasted_by_site.items():
            registry.inc(PREFETCH_WASTED, count, labels={"signature": site})
        counts = {
            "issued": proxy.prefetcher.issued_by_site,
            "hits": proxy.cache.hits,
            "used": proxy.cache.used_by_site,
            "wasted": proxy.cache.wasted_by_site,
        }
        cells: Dict[str, Dict[str, int]] = {}
        for key, by_site in counts.items():
            for site, count in by_site.items():
                cells.setdefault(site, dict.fromkeys(counts, 0))[key] += count
        history = deployment.history.get(name)
        if history is not None:
            cells.setdefault("(history)", dict.fromkeys(counts, 0))[
                "issued"
            ] += history.issued
        if cells:
            by_signature[name] = cells

    if tracing:
        TRACER.append_record(
            {
                "trace_id": "summary",
                "user": "-",
                "kind": "summary",
                "spans": [],
                "tags": {"prefetch_by_signature": by_signature},
            }
        )
        if trace_path is not None and trace_stats is not None:
            trace_stats["exported"] = TRACER.export_jsonl(trace_path)

    row: Dict[str, object] = {
        "users": users,
        "apps": list(apps),
        "duration_s": duration,
        "rate_per_user": rate_per_user,
        "seed": seed,
        "requests": requests,
        "requests_sent": state["sent"],
        "wall_s": wall_s,
        "per_request_wall_us": (1e6 * wall_s / requests) if requests else 0.0,
        "requests_per_wall_s": (requests / wall_s) if wall_s else 0.0,
        "sim_events": sim_events,
        # the sim clock when the event loop ran dry: only in-flight
        # work and the periodic loops' last tick run past ``duration``
        "sim_end_s": sim.now,
        "sim_events_per_wall_s": (sim_events / wall_s) if wall_s else 0.0,
        "latency_p50_ms": 1000 * percentile(latencies, 50) if latencies else 0.0,
        "latency_p95_ms": 1000 * percentile(latencies, 95) if latencies else 0.0,
        "latency_p99_ms": 1000 * percentile(latencies, 99) if latencies else 0.0,
        "hit_rate": (served / answered) if answered else 0.0,
        "served_prefetched": served,
        "forwarded": forwarded,
        "prefetch_issued": issued,
        "peak_cache_entries": state["peak_entries"],
        "final_cache_entries": final_entries,
        "cache_stored": sum(c.stored for c in caches),
        "cache_expired_evictions": sum(c.expired_evictions for c in caches),
        "cache_lru_evictions": sum(c.lru_evictions for c in caches),
        "cache_purged": sum(c.purged for c in caches),
        "peak_rss_bytes": rss_peak_bytes(),
        "max_entries_per_user": caches[0].max_entries_per_user,
        "admission_threshold": deployment.admission_threshold,
        "strategy": strategy,
        "warm_start": warm_start,
        "estimate_expiration": estimate_expiration,
        "learn_queue_overflows": sum(
            proxy.learner.queue_overflows for _, proxy in multi._apps
        ),
        "learn_deferred_drained": sum(
            proxy.learner.deferred_drained for _, proxy in multi._apps
        ),
        # instances still waiting for a value when the serving ends
        "learn_pending": sum(
            proxy.learner.pending_count for _, proxy in multi._apps
        ),
        "prefetch_used": sum(c.used for c in caches),
        "prefetch_wasted": sum(c.wasted for c in caches),
        # every proxy↔origin byte: demand, prefetch, history prefetch
        # and expiration probe traffic
        "origin_bytes": (
            sum(proxy.total_server_bytes() for _, proxy in multi._apps)
            + sum(h.prefetch_bytes for h in deployment.history.values())
            + sum(e.probe_bytes for e in estimators)
        ),
        "skipped_admission": sum(
            proxy.prefetcher.skipped_admission for _, proxy in multi._apps
        ),
        "skipped_bound": sum(
            proxy.prefetcher.skipped_bound for _, proxy in multi._apps
        ),
        "prefetch_by_signature": by_signature,
        "expiration": (
            {
                "sites": sum(len(e.estimates) for e in estimators),
                "converged": sum(
                    1
                    for e in estimators
                    for est in e.estimates.values()
                    if est.converged
                ),
                # a floor proven within the run (lo > 0), and the
                # stores that took their TTL from one
                "proven": sum(
                    1 for e in estimators for est in e.estimates.values() if est.lo > 0.0
                ),
                "proven_stores": sum(e.proven_stores for e in estimators),
                "probes_issued": sum(e.probes_issued for e in estimators),
                "probe_bytes": sum(e.probe_bytes for e in estimators),
                "disabled": sum(len(e.disabled_sites) for e in estimators),
            }
            if estimators
            else None
        ),
        "history": (
            {
                name: prefetcher.stats()
                for name, prefetcher in deployment.history.items()
            }
            if deployment.history
            else None
        ),
        "stage_latency_us": stage_latency,
        "miss_causes": miss_causes,
        "trace": trace_stats,
        "live": live.summary(live.last_now) if live is not None else None,
        "slo": (
            engine.report(live.windows, live.last_now)
            if engine is not None
            else None
        ),
    }
    if collect_latencies:
        row["latencies_s"] = latencies
    return row


def run_strategy_comparison(
    users: int,
    duration: float,
    apps: Sequence[str] = DEFAULT_APPS,
    rate_per_user: float = 1.0,
    seed: int = 0,
    strategies: Sequence[str] = ("none", "history", "appx"),
    **kwargs,
) -> Dict[str, object]:
    """Three-way strategy comparison on one identical workload.

    Each strategy serves the same seeded open-loop workload (same
    arrival times, same users, same session positions), so latency and
    hit-rate deltas are attributable to the prefetch strategy alone.
    ``derived`` reports each strategy's p50/p95 delta against the
    ``none`` baseline — the paper's headline measurement.
    """
    kwargs.setdefault("warm_start", True)
    rows: Dict[str, Dict[str, object]] = {}
    for strategy in strategies:
        rows[strategy] = run_scale(
            users,
            duration,
            apps=apps,
            rate_per_user=rate_per_user,
            seed=seed,
            strategy=strategy,
            **kwargs,
        )
    derived: Dict[str, Dict[str, float]] = {}
    baseline = rows.get("none")
    for strategy, row in rows.items():
        if baseline is None or strategy == "none":
            continue
        p50 = float(row["latency_p50_ms"])
        base_p50 = float(baseline["latency_p50_ms"])
        derived[strategy] = {
            "p50_delta_ms": p50 - base_p50,
            "p95_delta_ms": float(row["latency_p95_ms"])
            - float(baseline["latency_p95_ms"]),
            "p50_speedup": (base_p50 / p50) if p50 else 0.0,
            "hit_rate": float(row["hit_rate"]),
            "thrash_ratio": (
                float(row["cache_lru_evictions"]) / float(row["cache_stored"])
                if row["cache_stored"]
                else 0.0
            ),
        }
    return {
        "workload": {
            "users": users,
            "duration_s": duration,
            "apps": list(apps),
            "rate_per_user": rate_per_user,
            "seed": seed,
        },
        "rows": rows,
        "derived": derived,
    }


def format_strategy_table(comparison: Dict[str, object]) -> str:
    """Render a strategy comparison as an aligned text table.

    Shared by ``repro scale --compare-strategies``, the BENCH_scale
    benchmark, and the CI prefetch-efficacy gate (which appends it to
    ``bench_tables.txt``).
    """
    workload = comparison["workload"]
    lines = [
        "strategy comparison: users={users} duration={duration_s}s "
        "rate={rate_per_user}/s apps={apps} seed={seed}".format(
            users=workload["users"],
            duration_s=workload["duration_s"],
            rate_per_user=workload["rate_per_user"],
            apps=",".join(workload["apps"]),
            seed=workload["seed"],
        ),
        "{:<9} {:>9} {:>7} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9}".format(
            "strategy", "requests", "hit", "p50_ms", "p95_ms",
            "issued", "wasted", "adm_skip", "speedup",
        ),
    ]
    derived = comparison["derived"]
    for strategy, row in comparison["rows"].items():
        speedup = derived.get(strategy, {}).get("p50_speedup")
        lines.append(
            "{:<9} {:>9} {:>6.1f}% {:>9.1f} {:>9.1f} {:>8} {:>8} {:>9} "
            "{:>9}".format(
                strategy,
                row["requests"],
                100.0 * float(row["hit_rate"]),
                float(row["latency_p50_ms"]),
                float(row["latency_p95_ms"]),
                row["prefetch_issued"],
                row["prefetch_wasted"],
                row["skipped_admission"],
                "{:.2f}x".format(speedup) if speedup is not None else "-",
            )
        )
    return "\n".join(lines)


def run_scale_sweep(
    user_counts: Sequence[int],
    duration_for: Optional[Dict[int, float]] = None,
    default_duration: float = 10.0,
    **kwargs,
) -> Dict[str, object]:
    """One row per population size, plus the scaling verdict.

    ``duration_for`` lets callers shrink virtual duration as N grows
    (open-loop arrival volume is ``N * rate * duration``, so a fixed
    duration would make the 10k-user cell 100× the 100-user cell's
    request count without telling us anything new about per-request
    cost).  The verdict compares smallest-vs-largest per-request wall
    cost — the number that must stay flat when the serving core is
    population-independent.  When tracing to a file across several
    cells, each cell writes ``<stem>-<users><ext>`` so no cell
    overwrites another's export.
    """
    import os

    cells = [(n, (duration_for or {}).get(n, default_duration)) for n in user_counts]
    for count, duration in cells:  # every cell is checked before the first runs
        check_settings(users=count, duration=duration)
    check_settings(**{k: v for k, v in kwargs.items() if k in SETTING_CHECKS})
    trace_path = kwargs.pop("trace_path", None)
    rows = []
    for count, duration in cells:
        cell_path = trace_path
        if trace_path is not None and len(user_counts) > 1:
            stem, ext = os.path.splitext(trace_path)
            cell_path = "{}-{}{}".format(stem, count, ext or ".jsonl")
        rows.append(run_scale(count, duration, trace_path=cell_path, **kwargs))
    smallest, largest = rows[0], rows[-1]
    ratio = (
        largest["per_request_wall_us"] / smallest["per_request_wall_us"]
        if smallest["per_request_wall_us"]
        else float("inf")
    )
    return {
        "rows": rows,
        "derived": {
            "smallest_users": smallest["users"],
            "largest_users": largest["users"],
            "per_request_cost_ratio": ratio,
        },
    }
