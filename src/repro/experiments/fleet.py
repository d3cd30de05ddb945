"""Multi-process sharded proxy fleet (``python -m repro scale --workers N``).

:mod:`repro.experiments.scale` measures the serving core one process at
a time; real deployments scale *out* — N proxy processes, each owning a
disjoint slice of the user population.  This module is that fleet:

* **Consistent-hash sharding** — users map onto workers through a
  blake2b hash ring with virtual nodes (:class:`ConsistentHashRing`),
  so growing the fleet from N to N+1 workers remaps only ~1/(N+1) of
  the users instead of reshuffling everyone.  Python's builtin
  ``hash()`` is salted per process and useless here; blake2b keys are
  stable across processes and runs.

* **One global arrival schedule, partitioned per shard** — the
  supervisor pre-draws the full open-loop Poisson process with the run
  seed (:func:`~repro.experiments.scale.build_arrival_schedule`), then
  splits it by owning shard while accumulating inter-arrival deltas
  (:func:`partition_schedule`).  Every worker replays exactly the
  arrival instants the single-process harness would have produced:
  sharding changes *where* a user is served, never *when*.  With
  ``--workers 1`` the partition is the identity, which makes the fleet
  byte-equivalent to the serial path — the differential oracle
  ``tests/test_experiments_fleet.py`` pins.

* **Batched fold-back** — each worker sends ONE message when its serve
  phase ends: its metrics row, its full
  :meth:`~repro.metrics.registry.MetricRegistry.snapshot`, and its
  trace ring.  The supervisor folds the registries with
  :meth:`~repro.metrics.registry.MetricRegistry.merge`, absorbs the
  trace rings with :meth:`~repro.metrics.trace.Tracer.absorb`, and
  recomputes the aggregate row with the same helpers the serial
  harness uses — one registry snapshot out, regardless of N.

* **Failure containment** — a supervisor-side monitor aborts the start
  barrier the moment a worker dies before serving, queued error
  payloads surface the worker's traceback, and a join deadline catches
  hung workers; every path raises :class:`FleetWorkerError` naming the
  failed shard's user slice instead of deadlocking the run.

Workers synchronize on a barrier *after* building their deployments,
so the measured fleet wall clock covers serving plus fold-back IPC —
the honest denominator for the scale-out gate in
``benchmarks/test_perf_scale.py`` (≥1.8x requests/wall-s at 4 workers).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from bisect import bisect_right
from hashlib import blake2b
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import ENV_ENABLE
from repro.experiments.parallel import init_worker_env
from repro.experiments.scale import (
    DEFAULT_APPS,
    DEFAULT_RATE_PER_USER,
    ArrivalSchedule,
    _ScaleDeployment,
    build_arrival_schedule,
    miss_causes_from_counters,
    run_scale,
    stage_latency_from_registry,
)
from repro.metrics.live import LiveWindows, standard_readings
from repro.metrics.perf import PERF
from repro.metrics.registry import MetricRegistry
from repro.metrics.slo import SloEngine
from repro.metrics.stats import percentile
from repro.metrics.trace import TRACER

#: virtual nodes per shard on the hash ring — enough that the largest
#: shard stays within a few percent of the mean at fleet sizes ≤ 16
DEFAULT_REPLICAS = 64
DEFAULT_WORKER_TIMEOUT_S = 300.0


# ======================================================================
# consistent-hash user sharding
# ======================================================================
def _hash64(key: str) -> int:
    """Stable 64-bit hash (blake2b) — identical in every process."""
    return int.from_bytes(blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Classic consistent-hash ring over ``shards`` with virtual nodes.

    Each shard owns ``replicas`` points on a 64-bit ring; a key belongs
    to the shard owning the first point clockwise of the key's hash.
    Adding one shard therefore steals roughly ``1/(N+1)`` of the keys
    from the existing N instead of remapping everything — the property
    ``tests/test_experiments_fleet.py`` asserts.
    """

    __slots__ = ("shards", "replicas", "_points", "_owners")

    def __init__(self, shards: int, replicas: int = DEFAULT_REPLICAS) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shards = shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append((_hash64("shard:{}:vnode:{}".format(shard, replica)), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_for(self, key: str) -> int:
        index = bisect_right(self._points, _hash64(key)) % len(self._points)
        return self._owners[index]


def shard_users(
    users: int, workers: int, replicas: int = DEFAULT_REPLICAS
) -> List[int]:
    """``assignment[user_index] -> shard`` for the whole population."""
    if workers == 1:
        return [0] * users
    ring = ConsistentHashRing(workers, replicas)
    return [ring.shard_for("u{}".format(index)) for index in range(users)]


def shard_seed(seed: int, shard: int) -> int:
    """Derive a per-shard RNG stream from the run seed, stably."""
    return _hash64("seed:{}:shard:{}".format(seed, shard))


def partition_schedule(
    schedule: ArrivalSchedule, assignment: Sequence[int], workers: int
) -> List[ArrivalSchedule]:
    """Split one global arrival schedule into per-shard schedules.

    Each event's delta is re-expressed relative to the previous event
    *of the same shard* by accumulating the deltas of events routed
    elsewhere, so replaying a shard's schedule reproduces its users'
    global arrival instants exactly (same left-fold float additions).
    Each shard's terminal delta carries it to the same final instant as
    the global schedule, keeping per-worker simulated horizons equal.
    For one worker this is the identity partition — delta for delta the
    input schedule, which is what makes ``--workers 1`` byte-equivalent
    to the serial path.
    """
    events: List[List[Tuple[float, int, Optional[int]]]] = [[] for _ in range(workers)]
    pending = [0.0] * workers
    for dt, user_index, first_position in schedule.events:
        for shard in range(workers):
            pending[shard] = pending[shard] + dt
        shard = assignment[user_index]
        events[shard].append((pending[shard], user_index, first_position))
        pending[shard] = 0.0
    return [
        ArrivalSchedule(
            events[shard],
            pending[shard] + schedule.terminal_dt,
            schedule.users,
            schedule.duration,
            schedule.rate_per_user,
            schedule.seed,
        )
        for shard in range(workers)
    ]


# ======================================================================
# failure surface
# ======================================================================
class FleetWorkerError(RuntimeError):
    """A fleet worker crashed, raised, or hung; names the failed shards."""

    def __init__(self, message: str, shards: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.shards = tuple(shards)


def _shard_members(assignment: Sequence[int], workers: int) -> List[List[int]]:
    members: List[List[int]] = [[] for _ in range(workers)]
    for user_index, shard in enumerate(assignment):
        members[shard].append(user_index)
    return members


def _describe_shard(shard: int, members: Sequence[int]) -> str:
    """``shard 2 (13 users: u2,u5,u9,…)`` — the slice a failure took out."""
    if not members:
        return "shard {} (0 users)".format(shard)
    shown = ",".join("u{}".format(user) for user in members[:5])
    suffix = ",…" if len(members) > 5 else ""
    return "shard {} ({} users: {}{})".format(shard, len(members), shown, suffix)


# ======================================================================
# worker process
# ======================================================================
def _fleet_worker(spec: Dict[str, object], barrier, results) -> None:
    """One shard's serve loop: build, sync, serve, send ONE payload.

    Any exception lands on the result queue as an ``("error", shard,
    traceback)`` message and aborts the barrier so the supervisor wakes
    immediately instead of sleeping out its timeout.  ``inject_failure``
    is the robustness-test hook: ``crash`` dies silently (no message at
    all), ``raise`` fails with a traceback, ``hang`` sleeps through the
    supervisor's deadline.
    """
    shard = int(spec["shard"])
    try:
        failure = spec.get("inject_failure") or {}
        mode = failure.get("mode") if failure.get("shard") == shard else None
        if mode == "crash":
            os._exit(3)
        if mode == "raise":
            raise RuntimeError("injected failure on shard {}".format(shard))
        init_worker_env(spec.get("cache_env"))
        deployment = _ScaleDeployment(tuple(spec["apps"]), **spec["deploy_kwargs"])
        schedule = ArrivalSchedule(
            spec["events"],
            spec["terminal_dt"],
            spec["users"],
            spec["duration"],
            spec["rate_per_user"],
            spec["seed"],
        )
        if mode == "hang":
            # repro-lint: disable=det-wall-clock -- robustness-test hook: the injected hang must outlast the supervisor's real deadline, so a host sleep is the point
            time.sleep(3600.0)
        try:
            barrier.wait(spec["worker_timeout"])
        except threading.BrokenBarrierError:
            # another worker failed (it aborted the barrier) or the
            # supervisor timed the startup out — this worker is only a
            # secondary victim: exit clean so diagnosis blames the
            # shard that actually broke, not this one
            raise SystemExit(0)
        heartbeat_interval = spec.get("heartbeat_interval")
        heartbeat_sink = None
        if heartbeat_interval is not None:
            # heartbeats piggyback on the one existing supervisor
            # channel: compact ("hb", shard, payload) messages between
            # the serve start and the final ("ok", shard, payload)
            def heartbeat_sink(payload):
                results.put(("hb", shard, payload))

        row = run_scale(
            users=int(spec["users"]),
            duration=float(spec["duration"]),
            apps=tuple(spec["apps"]),
            rate_per_user=float(spec["rate_per_user"]),
            seed=int(spec["seed"]),
            access_rtt=float(spec["access_rtt"]),
            trace_sample=spec["trace_sample"],
            trace_seed=int(spec["trace_seed"]),
            trace_capacity=int(spec["trace_capacity"]),
            estimate_expiration=bool(spec["estimate_expiration"]),
            warm_start=bool(spec["warm_start"]),
            arrival_schedule=schedule,
            collect_latencies=True,
            telemetry=bool(spec.get("telemetry")),
            slo_config=spec.get("slo_config"),
            heartbeat_interval=heartbeat_interval,
            heartbeat_sink=heartbeat_sink,
            shard=shard,
            backpressure=bool(spec.get("backpressure", True)),
            _deployment=deployment,
            **spec["deploy_kwargs"],
        )
        payload = {
            "row": row,
            "registry": PERF.registry.snapshot(),
            "trace_records": TRACER.records() if spec["trace_sample"] is not None else [],
        }
        results.put(("ok", shard, payload))
    except BaseException as error:
        if isinstance(error, SystemExit) and error.code == 0:
            raise
        try:
            results.put(("error", shard, traceback.format_exc()))
        finally:
            try:
                barrier.abort()
            except Exception:
                pass
        raise SystemExit(1)


# ======================================================================
# supervisor
# ======================================================================
class HeartbeatTracker:
    """Supervisor-side fleet liveness state, fed by ``hb`` messages.

    Each heartbeat carries one shard's virtual clock, completed-request
    count, learn-queue depth, and windowed readings.  The tracker keeps
    the latest per shard, measures **skew** (the spread between the
    fastest and slowest shard's virtual clocks whenever every shard has
    reported), and flags **lagging** shards — a shard whose virtual
    clock trails the leader by more than ``lag_factor`` heartbeat
    intervals, or that has never heartbeated while the leader has sent
    several.  That surfaces a stuck worker *while serving*, long before
    the supervisor's ``worker_timeout`` turns it into a
    :class:`FleetWorkerError`.
    """

    def __init__(
        self,
        workers: int,
        interval_s: float,
        log=None,
        lag_factor: float = 2.0,
    ) -> None:
        self.workers = workers
        self.interval_s = interval_s
        self.log = log
        self.lag_factor = lag_factor
        self.per_shard: Dict[int, Dict[str, object]] = {}
        self.received = 0
        self.max_skew_s = 0.0
        self.lagging: set = set()

    def record(self, shard: int, payload: Dict[str, object]) -> None:
        entry = self.per_shard.setdefault(shard, {"count": 0})
        entry["count"] = int(entry["count"]) + 1
        entry["sim_now"] = payload.get("sim_now")
        entry["requests"] = payload.get("requests")
        entry["queue_depth"] = payload.get("queue_depth")
        entry["alerts"] = payload.get("alerts")
        entry["readings"] = payload.get("readings")
        self.received += 1
        self._update_lag()
        if self.log is not None:
            self.log(shard, payload, self)

    def _update_lag(self) -> None:
        clocks = {
            shard: float(entry["sim_now"])
            for shard, entry in self.per_shard.items()
            if entry.get("sim_now") is not None
        }
        if not clocks:
            return
        lead = max(clocks.values())
        if len(clocks) == self.workers and len(clocks) > 1:
            skew = lead - min(clocks.values())
            if skew > self.max_skew_s:
                self.max_skew_s = skew
        # recomputed from the current clocks, never latched: a shard
        # that trailed transiently (host scheduling, not a stuck
        # worker) drops off the list as soon as it catches back up
        threshold = self.lag_factor * self.interval_s
        lagging: set = set()
        for shard in range(self.workers):
            clock = clocks.get(shard)
            if clock is not None and lead - clock > threshold:
                lagging.add(shard)
            elif clock is None and lead > threshold:
                # never heartbeated while the leader moved well past
                # the first interval: silent from the start
                lagging.add(shard)
        self.lagging = lagging

    def summary(self) -> Dict[str, object]:
        return {
            "interval_s": self.interval_s,
            "received": self.received,
            "max_skew_s": self.max_skew_s,
            "lagging_shards": sorted(self.lagging),
            "per_shard": [
                self.per_shard.get(shard) for shard in range(self.workers)
            ],
        }


def _drain_queue(
    results,
    collected: Dict[int, Dict],
    errors: Dict[int, str],
    heartbeats: Optional[HeartbeatTracker] = None,
) -> None:
    """Pull whatever the result queue has right now (post-failure sweep)."""
    while True:
        try:
            kind, shard, payload = results.get(timeout=0.2)
        except queue_module.Empty:
            return
        if kind == "ok":
            collected[shard] = payload
        elif kind == "hb":
            if heartbeats is not None:
                heartbeats.record(shard, payload)
        else:
            errors[shard] = payload


def _raise_worker_failure(
    errors: Dict[int, str],
    procs: Sequence,
    collected: Dict[int, Dict],
    members: Sequence[Sequence[int]],
    phase: str,
) -> None:
    """Turn whatever failure evidence exists into one FleetWorkerError."""
    if errors:
        shard = min(errors)
        raise FleetWorkerError(
            "fleet worker failed during {}: {} — worker traceback:\n{}".format(
                phase, _describe_shard(shard, members[shard]), errors[shard]
            ),
            shards=sorted(errors),
        )
    crashed = [
        shard
        for shard, proc in enumerate(procs)
        if shard not in collected and proc.exitcode not in (None, 0)
    ]
    if crashed:
        raise FleetWorkerError(
            "fleet worker crashed during {} (exitcode {}): {}".format(
                phase,
                procs[crashed[0]].exitcode,
                "; ".join(_describe_shard(s, members[s]) for s in crashed),
            ),
            shards=crashed,
        )
    hung = [
        shard
        for shard, proc in enumerate(procs)
        if shard not in collected and proc.is_alive()
    ]
    raise FleetWorkerError(
        "fleet worker hung past the {} deadline: {}".format(
            phase,
            "; ".join(_describe_shard(s, members[s]) for s in hung) or "(unknown)",
        ),
        shards=hung,
    )


def _monitor_procs(procs, barrier, stop: threading.Event) -> None:
    """Abort the start barrier as soon as any worker dies silently."""
    while not stop.is_set():
        for proc in procs:
            if proc.exitcode not in (None, 0):
                try:
                    barrier.abort()
                except Exception:
                    pass
                return
        stop.wait(0.05)


def _merge_int_tables(
    tables: Sequence[Optional[Dict[str, Dict[str, int]]]]
) -> Dict[str, Dict[str, int]]:
    """Sum nested ``{key: {field: int}}`` tables across shards."""
    merged: Dict[str, Dict[str, int]] = {}
    for table in tables:
        for key, cell in (table or {}).items():
            target = merged.setdefault(key, {})
            for field, value in cell.items():
                target[field] = target.get(field, 0) + value
    return merged


def run_fleet(
    users: int,
    duration: float,
    workers: int = 1,
    apps: Sequence[str] = DEFAULT_APPS,
    rate_per_user: float = DEFAULT_RATE_PER_USER,
    seed: int = 0,
    max_entries_per_user: Optional[int] = None,
    max_bytes: Optional[int] = None,
    access_rtt: float = 0.055,
    trace_path: Optional[str] = None,
    trace_sample: Optional[float] = None,
    trace_seed: int = 0,
    trace_capacity: int = 65_536,
    strategy: str = "appx",
    max_entries_total: Optional[int] = None,
    adaptive_budget: bool = False,
    admission_threshold: Optional[float] = None,
    estimate_expiration: bool = False,
    warm_start: bool = False,
    learn_mode: str = "deferred",
    learn_queue_capacity: Optional[int] = None,
    learn_drain_budget: Optional[int] = None,
    telemetry: bool = False,
    slo_config: Optional[Dict[str, object]] = None,
    heartbeat_interval: Optional[float] = None,
    heartbeat_log=None,
    backpressure: bool = True,
    replicas: int = DEFAULT_REPLICAS,
    worker_timeout: float = DEFAULT_WORKER_TIMEOUT_S,
    prom_path: Optional[str] = None,
    inject_failure: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Serve one seeded scale workload across ``workers`` proxy processes.

    The supervisor consistent-hashes users onto shards, pre-draws the
    global arrival schedule with the run seed, partitions it per shard,
    and hands each worker its slice plus its own cache budget share.
    Workers build their deployments, meet on a barrier, serve, and send
    one batched payload back; the supervisor folds every payload into a
    single aggregate row whose shape matches
    :func:`~repro.experiments.scale.run_scale` plus ``workers``,
    ``fleet``, and ``shards`` keys.

    ``workers=1`` serves inline (no subprocess) replaying the identity
    partition — byte-equivalent to the serial harness under the same
    seed, which the differential tests pin.  For ``workers > 1`` the
    fleet wall clock runs from the post-barrier instant to the last
    payload collected, so requests-per-wall-second pays for fold-back
    IPC too.

    ``worker_timeout`` bounds both the start barrier and the serve
    phase; a worker that crashes, raises, or hangs surfaces as
    :class:`FleetWorkerError` naming the lost shard's user slice.
    ``inject_failure`` (``{"shard": s, "mode": "crash"|"raise"|"hang"}``)
    exists for the robustness tests.

    The live telemetry plane (``telemetry`` / ``slo_config`` /
    ``heartbeat_interval``, see :func:`run_scale`) runs *per shard*;
    with ``heartbeat_interval`` set, every worker additionally ships
    compact windowed snapshots over the result queue mid-run, which the
    supervisor folds into a :class:`HeartbeatTracker` (per-shard
    liveness, virtual-clock skew, lagging-shard flags; ``heartbeat_log``
    observes each one as it arrives).  The aggregate row then carries
    ``live`` (windows merged across shards with
    :meth:`LiveWindows.merge` — the same bucket-aligned fold-back
    semantics as ``registry.merge``), ``slo`` (the merged-window
    verdict plus per-shard passes), ``backpressure`` (summed actuation
    counters), and ``heartbeats`` (the tracker summary).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if users < workers:
        raise ValueError(
            "need at least one user per worker (users={}, workers={})".format(
                users, workers
            )
        )
    apps = tuple(apps)
    tracing = trace_path is not None or trace_sample is not None
    effective_sample = 1.0 if trace_sample is None else trace_sample

    deploy_kwargs = {
        "max_entries_per_user": max_entries_per_user,
        "max_bytes": max_bytes,
        "max_entries_total": max_entries_total,
        "adaptive_budget": adaptive_budget,
        "admission_threshold": admission_threshold,
        "strategy": strategy,
        "learn_mode": learn_mode,
        "learn_queue_capacity": learn_queue_capacity,
        "learn_drain_budget": learn_drain_budget,
    }
    telemetry_on = (
        telemetry or slo_config is not None or heartbeat_interval is not None
    )
    heartbeats: Optional[HeartbeatTracker] = None
    if heartbeat_interval is not None:
        heartbeats = HeartbeatTracker(
            workers, heartbeat_interval, log=heartbeat_log
        )

    # the plan deployment provides per-app step counts for the schedule
    # draw; with one worker it also serves the workload inline
    plan = _ScaleDeployment(apps, **deploy_kwargs)
    step_counts = {name: len(steps) for name, steps in plan.steps.items()}
    user_app = [apps[index % len(apps)] for index in range(users)]
    schedule = build_arrival_schedule(
        users,
        duration,
        rate_per_user,
        seed,
        step_counts,
        user_app,
        warm_start=warm_start,
        pred_positions=plan.pred_positions,
    )
    assignment = shard_users(users, workers, replicas)
    members = _shard_members(assignment, workers)
    shard_schedules = partition_schedule(schedule, assignment, workers)

    if workers == 1:
        inline_sink = None
        if heartbeats is not None:
            def inline_sink(payload):
                heartbeats.record(0, payload)

        row = run_scale(
            users=users,
            duration=duration,
            apps=apps,
            rate_per_user=rate_per_user,
            seed=seed,
            access_rtt=access_rtt,
            trace_sample=effective_sample if tracing else None,
            trace_seed=trace_seed,
            trace_capacity=trace_capacity,
            estimate_expiration=estimate_expiration,
            warm_start=warm_start,
            arrival_schedule=shard_schedules[0],
            collect_latencies=True,
            telemetry=telemetry,
            slo_config=slo_config,
            heartbeat_interval=heartbeat_interval,
            heartbeat_sink=inline_sink,
            shard=0,
            backpressure=backpressure,
            _deployment=plan,
            **deploy_kwargs,
        )
        payloads = {
            0: {
                "row": row,
                "registry": PERF.registry.snapshot(),
                "trace_records": TRACER.records() if tracing else [],
            }
        }
        wall_s = float(row["wall_s"])
    else:
        payloads, wall_s = _run_worker_pool(
            shard_schedules,
            members,
            users=users,
            duration=duration,
            workers=workers,
            apps=apps,
            rate_per_user=rate_per_user,
            seed=seed,
            access_rtt=access_rtt,
            tracing=tracing,
            effective_sample=effective_sample,
            trace_seed=trace_seed,
            trace_capacity=trace_capacity,
            estimate_expiration=estimate_expiration,
            warm_start=warm_start,
            deploy_kwargs=deploy_kwargs,
            max_entries_total=max_entries_total,
            worker_timeout=worker_timeout,
            inject_failure=inject_failure,
            telemetry=telemetry,
            slo_config=slo_config,
            heartbeat_interval=heartbeat_interval,
            backpressure=backpressure,
            heartbeats=heartbeats,
        )

    return _aggregate(
        payloads,
        members,
        wall_s=wall_s,
        users=users,
        duration=duration,
        workers=workers,
        apps=apps,
        rate_per_user=rate_per_user,
        seed=seed,
        replicas=replicas,
        worker_timeout=worker_timeout,
        tracing=tracing,
        effective_sample=effective_sample,
        trace_seed=trace_seed,
        trace_capacity=trace_capacity,
        trace_path=trace_path,
        prom_path=prom_path,
        deploy_kwargs=deploy_kwargs,
        schedule_events=len(schedule),
        slo_config=slo_config,
        heartbeats=heartbeats,
    )


def _run_worker_pool(
    shard_schedules: Sequence[ArrivalSchedule],
    members: Sequence[Sequence[int]],
    users: int,
    duration: float,
    workers: int,
    apps: Sequence[str],
    rate_per_user: float,
    seed: int,
    access_rtt: float,
    tracing: bool,
    effective_sample: float,
    trace_seed: int,
    trace_capacity: int,
    estimate_expiration: bool,
    warm_start: bool,
    deploy_kwargs: Dict[str, object],
    max_entries_total: Optional[int],
    worker_timeout: float,
    inject_failure: Optional[Dict[str, object]],
    telemetry: bool = False,
    slo_config: Optional[Dict[str, object]] = None,
    heartbeat_interval: Optional[float] = None,
    backpressure: bool = True,
    heartbeats: Optional[HeartbeatTracker] = None,
) -> Tuple[Dict[int, Dict], float]:
    """Spawn, synchronize, and collect the worker fleet (workers > 1)."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    results = context.Queue()
    barrier = context.Barrier(workers + 1)
    cache_env = os.environ.get(ENV_ENABLE) or None

    specs = []
    for shard in range(workers):
        shard_kwargs = dict(deploy_kwargs)
        if max_entries_total is not None:
            # apportion the global entry budget by shard population so
            # the fleet's total budget matches the serial run's
            shard_kwargs["max_entries_total"] = max(
                1, round(max_entries_total * len(members[shard]) / users)
            )
        specs.append(
            {
                "shard": shard,
                "apps": list(apps),
                "users": users,
                "duration": duration,
                "rate_per_user": rate_per_user,
                "seed": seed,
                "access_rtt": access_rtt,
                "events": shard_schedules[shard].events,
                "terminal_dt": shard_schedules[shard].terminal_dt,
                "deploy_kwargs": shard_kwargs,
                "trace_sample": effective_sample if tracing else None,
                "trace_seed": shard_seed(trace_seed, shard),
                "trace_capacity": trace_capacity,
                "estimate_expiration": estimate_expiration,
                "warm_start": warm_start,
                "worker_timeout": worker_timeout,
                "cache_env": cache_env,
                "inject_failure": inject_failure,
                "telemetry": telemetry,
                "slo_config": slo_config,
                "heartbeat_interval": heartbeat_interval,
                "backpressure": backpressure,
            }
        )

    procs = [
        context.Process(
            target=_fleet_worker, args=(spec, barrier, results), daemon=True
        )
        for spec in specs
    ]
    collected: Dict[int, Dict] = {}
    errors: Dict[int, str] = {}
    stop_monitor = threading.Event()
    monitor = threading.Thread(
        target=_monitor_procs, args=(procs, barrier, stop_monitor), daemon=True
    )
    try:
        for proc in procs:
            proc.start()
        monitor.start()
        try:
            barrier.wait(worker_timeout)
        except threading.BrokenBarrierError:
            _drain_queue(results, collected, errors, heartbeats)
            _raise_worker_failure(errors, procs, collected, members, "startup")
        wall_started = time.perf_counter()
        deadline = wall_started + worker_timeout
        while len(collected) < workers:
            try:
                kind, shard, payload = results.get(timeout=0.25)
            except queue_module.Empty:
                crashed_silently = any(
                    shard not in collected and proc.exitcode not in (None, 0)
                    for shard, proc in enumerate(procs)
                )
                if crashed_silently or time.perf_counter() > deadline:
                    _drain_queue(results, collected, errors, heartbeats)
                    if len(collected) == workers:
                        break
                    _raise_worker_failure(
                        errors, procs, collected, members, "serve"
                    )
                continue
            if kind == "ok":
                collected[shard] = payload
            elif kind == "hb":
                # mid-run liveness: fold the heartbeat immediately so a
                # lagging shard surfaces while the fleet is still serving
                if heartbeats is not None:
                    heartbeats.record(shard, payload)
            else:
                errors[shard] = payload
                _drain_queue(results, collected, errors, heartbeats)
                _raise_worker_failure(errors, procs, collected, members, "serve")
        wall_s = time.perf_counter() - wall_started
        # heartbeats racing the final ok messages may still sit queued
        _drain_queue(results, collected, errors, heartbeats)
    finally:
        stop_monitor.set()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
    return collected, wall_s


def _aggregate(
    payloads: Dict[int, Dict],
    members: Sequence[Sequence[int]],
    wall_s: float,
    users: int,
    duration: float,
    workers: int,
    apps: Sequence[str],
    rate_per_user: float,
    seed: int,
    replicas: int,
    worker_timeout: float,
    tracing: bool,
    effective_sample: float,
    trace_seed: int,
    trace_capacity: int,
    trace_path: Optional[str],
    prom_path: Optional[str],
    deploy_kwargs: Dict[str, object],
    schedule_events: int,
    slo_config: Optional[Dict[str, object]] = None,
    heartbeats: Optional[HeartbeatTracker] = None,
) -> Dict[str, object]:
    """Fold worker payloads into one run_scale-shaped aggregate row."""
    rows = [payloads[shard]["row"] for shard in range(workers)]

    merged = MetricRegistry()
    for shard in range(workers):
        merged.merge(payloads[shard]["registry"])

    latencies: List[float] = []
    for row in rows:
        latencies.extend(row.get("latencies_s") or [])

    def total(key: str) -> int:
        return sum(int(row[key]) for row in rows)

    requests = total("requests")
    served = total("served_prefetched")
    forwarded = total("forwarded")
    answered = served + forwarded
    sim_events = total("sim_events")

    by_signature = _merge_int_tables([row["prefetch_by_signature"] for row in rows])

    expiration_rows = [row["expiration"] for row in rows if row["expiration"]]
    expiration = None
    if expiration_rows:
        expiration = {
            key: sum(int(cell[key]) for cell in expiration_rows)
            for key in ("sites", "converged", "probes_issued", "disabled")
        }

    history = None
    if any(row["history"] for row in rows):
        history = _merge_int_tables([row["history"] for row in rows])

    trace_stats: Optional[Dict[str, object]] = None
    if tracing:
        shard_stats = [row["trace"] or {} for row in rows]
        trace_stats = {
            key: sum(int(stats.get(key, 0)) for stats in shard_stats)
            for key in ("started", "sampled", "finished", "dropped")
        }
        trace_stats["sample_rate"] = effective_sample
        trace_stats["capacity"] = trace_capacity
        # the supervisor ring holds every worker's batch: capacity is
        # the fleet-wide sum so absorption itself never drops records
        TRACER.configure(
            sample_rate=effective_sample,
            capacity=max(1, trace_capacity * workers),
            seed=trace_seed,
        )
        absorbed = 0
        for shard in range(workers):
            absorbed += TRACER.absorb(
                payloads[shard]["trace_records"],
                prefix="w{}".format(shard),
                skip_kinds=("summary",),
            )
        TRACER.append_record(
            {
                "trace_id": "summary",
                "user": "-",
                "kind": "summary",
                "spans": [],
                "tags": {
                    "prefetch_by_signature": by_signature,
                    "workers": workers,
                },
            }
        )
        trace_stats["absorbed"] = absorbed
        trace_stats["buffered"] = len(TRACER.records())
        if trace_path is not None:
            trace_stats["exported"] = TRACER.export_jsonl(trace_path)
            trace_stats["path"] = trace_path

    # ---- live telemetry plane fold-back -----------------------------
    # Bucket indices are absolute (int(now // width)), so every shard's
    # windows share one virtual-time grid and merge bucket-wise exactly
    # like registry.merge — order-independent and associative.
    live_rows = [row.get("live") for row in rows]
    live_agg: Optional[Dict[str, object]] = None
    slo_agg: Optional[Dict[str, object]] = None
    bp_rows = [row.get("backpressure") for row in rows]
    bp_agg: Optional[Dict[str, object]] = None
    if any(live_rows):
        present = [live for live in live_rows if live]
        windows = LiveWindows.from_snapshot(present[0]["snapshot"])
        for live in present[1:]:
            windows.merge(live["snapshot"])
        live_now = max(float(live["readings"]["sim_now"]) for live in present)
        live_agg = {
            "ticks": sum(int(live["ticks"]) for live in present),
            "heartbeats_sent": sum(int(live["heartbeats_sent"]) for live in present),
            "alerts": sum(int(live["alerts"]) for live in present),
            "readings": standard_readings(windows, live_now),
            "snapshot": windows.snapshot(),
        }
        if slo_config is not None:
            # the fleet verdict re-runs the engine over the MERGED
            # windows (burn rates over fleet-wide bad/total), while
            # alert counts and per-shard passes come from the shards —
            # the supervisor never saw the mid-run transitions
            shard_reports = [row.get("slo") for row in rows]
            slo_agg = SloEngine(slo_config).report(windows, live_now)
            slo_agg["alerts"] = sum(
                int((report or {}).get("alerts", 0)) for report in shard_reports
            )
            slo_agg["shard_passed"] = [
                bool((report or {}).get("passed", True))
                for report in shard_reports
            ]
            slo_agg["passed"] = bool(slo_agg["passed"]) and all(
                slo_agg["shard_passed"]
            )
    if any(bp_rows):
        bp_agg = {
            key: sum(int((stats or {}).get(key, 0)) for stats in bp_rows)
            for key in (
                "budget_grow",
                "budget_shrink",
                "admission_tighten",
                "admission_relax",
            )
        }
        for key in ("drain_budgets", "base_budgets"):
            bp_agg[key] = [
                value for stats in bp_rows for value in (stats or {}).get(key, [])
            ]

    if prom_path is not None:
        merged.dump_prometheus(prom_path)

    aggregate: Dict[str, object] = {
        "users": users,
        "workers": workers,
        "apps": list(apps),
        "duration_s": duration,
        "rate_per_user": rate_per_user,
        "seed": seed,
        "requests": requests,
        "requests_sent": total("requests_sent"),
        "wall_s": wall_s,
        "per_request_wall_us": (1e6 * wall_s / requests) if requests else 0.0,
        "requests_per_wall_s": (requests / wall_s) if wall_s else 0.0,
        "sim_events": sim_events,
        "sim_events_per_wall_s": (sim_events / wall_s) if wall_s else 0.0,
        "latency_p50_ms": 1000 * percentile(latencies, 50) if latencies else 0.0,
        "latency_p95_ms": 1000 * percentile(latencies, 95) if latencies else 0.0,
        "latency_p99_ms": 1000 * percentile(latencies, 99) if latencies else 0.0,
        "hit_rate": (served / answered) if answered else 0.0,
        "served_prefetched": served,
        "forwarded": forwarded,
        "prefetch_issued": total("prefetch_issued"),
        # per-shard peaks are not simultaneous; their sum is the upper
        # bound on the fleet-wide peak, matching the budget apportioning
        "peak_cache_entries": total("peak_cache_entries"),
        "final_cache_entries": total("final_cache_entries"),
        "cache_stored": total("cache_stored"),
        "cache_expired_evictions": total("cache_expired_evictions"),
        "cache_lru_evictions": total("cache_lru_evictions"),
        "cache_wheel_purged": total("cache_wheel_purged"),
        "peak_rss_bytes": total("peak_rss_bytes"),
        "max_entries_per_user": deploy_kwargs["max_entries_per_user"],
        "max_bytes": deploy_kwargs["max_bytes"],
        "max_entries_total": deploy_kwargs["max_entries_total"],
        "adaptive_budget": deploy_kwargs["adaptive_budget"],
        "admission_threshold": deploy_kwargs["admission_threshold"],
        "strategy": deploy_kwargs["strategy"],
        "learn_mode": deploy_kwargs["learn_mode"],
        "learn_queue_overflows": total("learn_queue_overflows"),
        "learn_deferred_drained": total("learn_deferred_drained"),
        "prefetch_wasted": total("prefetch_wasted"),
        "skipped_admission": total("skipped_admission"),
        "prefetch_by_signature": by_signature,
        "expiration": expiration,
        "history": history,
        "stage_latency_us": stage_latency_from_registry(merged),
        "miss_causes": miss_causes_from_counters(merged.counters),
        "trace": trace_stats,
        "live": live_agg,
        "slo": slo_agg,
        "backpressure": bp_agg,
        "heartbeats": heartbeats.summary() if heartbeats is not None else None,
        "fleet": {
            "replicas": replicas,
            "hash": "blake2b-64",
            "worker_timeout_s": worker_timeout,
            "schedule_events": schedule_events,
            "shard_users": [len(shard_members) for shard_members in members],
            "shard_requests": [int(row["requests"]) for row in rows],
            "shard_wall_s": [float(row["wall_s"]) for row in rows],
            "supervisor_wall_s": wall_s,
        },
        "shards": [
            {
                "shard": shard,
                "users": len(members[shard]),
                "requests": int(rows[shard]["requests"]),
                "hit_rate": float(rows[shard]["hit_rate"]),
                "wall_s": float(rows[shard]["wall_s"]),
                "sim_events": int(rows[shard]["sim_events"]),
                "peak_rss_bytes": int(rows[shard]["peak_rss_bytes"]),
            }
            for shard in range(workers)
        ],
    }
    return aggregate


def format_fleet_table(rows: Sequence[Dict[str, object]]) -> str:
    """Aligned worker-count sweep table (BENCH + CI artifact)."""
    if not rows:
        return "(no fleet rows)"
    first = rows[0]
    lines = [
        "fleet scale-out: users={} duration={}s rate={}/s apps={} seed={}".format(
            first["users"],
            first["duration_s"],
            first["rate_per_user"],
            ",".join(first["apps"]),
            first["seed"],
        ),
        "{:<8} {:>9} {:>11} {:>11} {:>9} {:>8} {:>9}".format(
            "workers", "requests", "req/wall_s", "us/request", "hit", "p50_ms",
            "speedup",
        ),
    ]
    base = None
    for row in rows:
        rate = float(row["requests_per_wall_s"])
        if base is None:
            base = rate or None
        lines.append(
            "{:<8} {:>9} {:>11.0f} {:>11.1f} {:>7.1f}% {:>8.1f} {:>8}".format(
                row["workers"],
                row["requests"],
                rate,
                float(row["per_request_wall_us"]),
                100.0 * float(row["hit_rate"]),
                float(row["latency_p50_ms"]),
                "{:.2f}x".format(rate / base) if base else "-",
            )
        )
    return "\n".join(lines)
