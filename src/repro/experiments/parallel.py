"""Parallel experiment engine: process-pool scenario fan-out.

Every paper figure is a sweep of independent (app, mode, RTT,
probability, seed) cells that the serial runners in
:mod:`repro.experiments.runner` execute one after another.  This
module decomposes each sweep into its cells (*plan*), executes them
over a :class:`concurrent.futures.ProcessPoolExecutor` (*execute*),
and reassembles the rows in canonical order (*merge*), so the parallel
output is byte-identical to the serial runner's — which therefore
stays around as the differential oracle.

Determinism
-----------
Cells carry every seed explicitly, share no mutable state, and are
dispatched with ``Executor.map`` (order-preserving); merging is pure.
Workers warm their per-app artifacts from the on-disk analysis cache
(:mod:`repro.experiments.cache`) when one is configured — the
``init_worker_env`` initializer exports it via ``REPRO_ANALYSIS_CACHE``
so every ``prepare_app`` call inside the pool hits disk instead of
re-running analysis + verification fuzzing.

Perf accounting
---------------
Each cell can return a :data:`PERF` snapshot taken inside the worker;
the engine folds worker counters, stage timings, and histograms into
the parent's :data:`PERF` (when enabled) under the same names, plus
``experiments.cells`` / ``experiments.parallel_cells`` on the engine
itself.

Break-even fallback
-------------------
Forking a pool costs real wall time (interpreter spawn + imports),
and on small sweeps — or boxes with one core — that overhead exceeds
the fan-out win, making ``jobs>1`` *slower* than serial.  The engine
therefore times the sweep's first cell inline, projects both
schedules with :func:`should_parallelize` (a pure function: serial =
``cost × cells`` vs parallel = spawn + per-cell dispatch + ``cost ×
waves`` across the effective workers, capped by ``os.cpu_count``),
and silently falls back to in-process execution when the pool cannot
pay for itself (``experiments.fallback_serial``).  When it can, the
cells go to a module-level *warm* pool that is kept alive across
sweeps with the same (workers, cache) configuration
(``experiments.pool_reuse``), so only the first parallel sweep pays
the spawn cost.  Either path yields byte-identical rows.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.registry import all_apps
from repro.experiments import runner
from repro.experiments.cache import ENV_ENABLE, AnalysisArtifactCache
from repro.metrics.perf import PERF

#: figures the engine can fan out, with their cell functions
_CELL_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "table3": runner.table3_row,
    "fig13": runner.fig13_row,
    "fig14": runner.fig14_row,
    "fig15": runner.fig15_cell,
    "fig16": runner.fig16_cell,
    "fig17": runner.fig17_cell,
    "fig17_baseline": runner.fig17_baseline,
    "user_study": runner.user_study_run,
}

#: serial oracles, for callers that want the figure by name
SERIAL_RUNNERS: Dict[str, Callable[..., Any]] = {
    "table3": runner.table3_rows,
    "fig13": runner.fig13_main_interaction,
    "fig14": runner.fig14_app_launch,
    "fig15": runner.fig15_percentile_sweep,
    "fig16": runner.fig16_cdf_and_usage,
    "fig17": runner.fig17_probability_tradeoff,
}

PARALLEL_FIGURES: Tuple[str, ...] = (
    "table3",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
)

#: a work unit: (cell-function name, kwargs, capture-perf flag)
WorkUnit = Tuple[str, Dict[str, Any], bool]


# ======================================================================
# plan — decompose a sweep into picklable, independent work units
# ======================================================================
def plan_cells(figure: str, params: Optional[Dict[str, Any]] = None) -> List[WorkUnit]:
    """The figure's cells, in the serial runner's canonical order."""
    params = dict(params or {})
    params.pop("jobs", None)
    capture = bool(params.pop("capture_perf", False))
    apps = params.pop("apps", None)
    app_names = list(apps) if apps is not None else list(all_apps())

    if figure == "table3":
        return [
            ("table3", dict(params, name=name), capture) for name in app_names
        ]
    if figure in ("fig13", "fig14"):
        return [
            (figure, dict(params, name=name), capture) for name in app_names
        ]
    if figure in ("fig15", "fig16"):
        rtts = params.pop("rtts", (0.050, 0.100, 0.150))
        return [
            (figure, dict(params, name=name, rtt=rtt), capture)
            for name in app_names
            for rtt in rtts
        ]
    if figure == "fig17":
        probabilities = params.pop(
            "probabilities", (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
        )
        cells: List[WorkUnit] = [("fig17_baseline", dict(params), capture)]
        cells.extend(
            ("fig17", dict(params, probability=probability), capture)
            for probability in probabilities
        )
        return cells
    raise ValueError(
        "unknown figure {!r}; choose from {}".format(
            figure, ", ".join(PARALLEL_FIGURES)
        )
    )


def merge_results(figure: str, results: Sequence[Any]) -> Any:
    """Reassemble cell results into the serial runner's row list."""
    if figure == "fig17":
        baseline_bytes, cells = results[0], list(results[1:])
        return runner.fig17_finalize(cells, baseline_bytes)
    return list(results)


# ======================================================================
# execute — the worker side
# ======================================================================
def init_worker_env(cache_env: Optional[str]) -> None:
    """Point a worker process at the supervisor's artifact cache.

    Used as this engine's pool initializer, so under any start method
    — fork or spawn — a worker sees the same ``REPRO_ANALYSIS_CACHE``
    configuration the parent resolved.
    """
    if cache_env:
        # repro-lint: disable=mp-global-mutation -- pool initializer: mutating the *worker's own* environ before any cell runs is this function's entire job
        os.environ[ENV_ENABLE] = cache_env
    else:
        # repro-lint: disable=mp-global-mutation -- pool initializer: clears stale cache config in the worker before any cell runs
        os.environ.pop(ENV_ENABLE, None)


def execute_cell(unit: WorkUnit) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Run one work unit (in a pool worker or inline).

    The perf snapshot is the full :meth:`PerfCounters.snapshot` shape
    (counters + stage ``timings_s`` + histograms), so the parent's
    fold-back keeps worker stage timings instead of dropping them.
    """
    kind, kwargs, capture = unit
    function = _CELL_FUNCTIONS[kind]
    if not capture:
        return function(**kwargs), None
    with PERF.capture() as perf:
        result = function(**kwargs)
        snapshot = perf.snapshot()
    return result, snapshot


# ======================================================================
# break-even projection and the warm shared pool
# ======================================================================
#: assumed pool start-up cost (fork + imports) when no warm pool exists
DEFAULT_SPAWN_COST_S = 0.30
#: assumed per-cell pickle/dispatch/collect overhead
DEFAULT_DISPATCH_COST_S = 0.002

_SHARED_POOL: Optional[ProcessPoolExecutor] = None
_SHARED_POOL_CONFIG: Optional[Tuple[int, Optional[str]]] = None


def effective_workers(jobs: int, cells: int) -> int:
    """Workers that can actually run at once: jobs, cells, cores."""
    return max(1, min(jobs, cells, os.cpu_count() or 1))


def should_parallelize(
    cell_cost_s: float,
    remaining_cells: int,
    workers: int,
    spawn_cost_s: float,
    dispatch_cost_s: float = DEFAULT_DISPATCH_COST_S,
) -> bool:
    """Pure break-even decision: does the pool beat serial execution?

    ``cell_cost_s`` is the measured wall cost of one cell (the sweep's
    first, timed inline); ``remaining_cells`` is how many are left to
    schedule; ``spawn_cost_s`` is zero when a warm pool already exists.
    Projected parallel wall time is spawn + dispatch×cells + cost×waves
    (cells rounded up into waves of ``workers``); serial is cost×cells.
    """
    if remaining_cells <= 1 or workers <= 1:
        return False
    serial_s = cell_cost_s * remaining_cells
    waves = math.ceil(remaining_cells / workers)
    projected_s = (
        spawn_cost_s + dispatch_cost_s * remaining_cells + cell_cost_s * waves
    )
    return projected_s < serial_s


def _shared_pool(
    workers: int, cache_env: Optional[str]
) -> ProcessPoolExecutor:
    """The warm pool for this (workers, cache) config, creating it once."""
    global _SHARED_POOL, _SHARED_POOL_CONFIG
    config = (workers, cache_env)
    if _SHARED_POOL is not None and _SHARED_POOL_CONFIG == config:
        if PERF.enabled:
            PERF.incr("experiments.pool_reuse")
        return _SHARED_POOL
    shutdown_shared_pool()
    _SHARED_POOL = ProcessPoolExecutor(
        max_workers=workers,
        initializer=init_worker_env,
        initargs=(cache_env,),
    )
    _SHARED_POOL_CONFIG = config
    return _SHARED_POOL


def shutdown_shared_pool() -> None:
    """Tear down the warm pool (tests; registered atexit)."""
    global _SHARED_POOL, _SHARED_POOL_CONFIG
    if _SHARED_POOL is not None:
        _SHARED_POOL.shutdown()
    _SHARED_POOL = None
    _SHARED_POOL_CONFIG = None


atexit.register(shutdown_shared_pool)


# ======================================================================
# run — the engine
# ======================================================================
def run_figure(
    figure: str,
    jobs: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
    artifact_cache: Optional[AnalysisArtifactCache] = None,
    capture_perf: bool = False,
    force_parallel: bool = False,
) -> Any:
    """Run one figure's sweep, fanned out over ``jobs`` processes.

    ``jobs=None`` or ``jobs <= 1`` executes the cells in-process (still
    through the cell/merge decomposition).  With ``jobs > 1`` the first
    cell runs inline to measure per-cell cost, and the rest go to the
    warm shared pool only when :func:`should_parallelize` projects a
    win — otherwise they run serially too (``force_parallel=True``
    skips the projection; tests use it to exercise the pool path).
    ``artifact_cache`` (or an already-exported ``REPRO_ANALYSIS_CACHE``)
    lets workers load per-app analysis artifacts from disk instead of
    recomputing them.  Output is byte-identical to
    ``SERIAL_RUNNERS[figure](**params)``.
    """
    params = dict(params or {})
    if capture_perf:
        params["capture_perf"] = True
    cells = plan_cells(figure, params)
    if PERF.enabled:
        PERF.incr("experiments.cells", len(cells))

    cache_env = None
    if artifact_cache is not None:
        cache_env = artifact_cache.root
    elif os.environ.get(ENV_ENABLE):
        cache_env = os.environ[ENV_ENABLE]

    if jobs is None or jobs <= 1 or len(cells) <= 1:
        outcomes = [execute_cell(unit) for unit in cells]
    else:
        started_at = time.perf_counter()
        outcomes = [execute_cell(cells[0])]
        cell_cost_s = time.perf_counter() - started_at
        rest = cells[1:]
        pool_workers = max(1, min(jobs, os.cpu_count() or 1))
        warm = (
            _SHARED_POOL is not None
            and _SHARED_POOL_CONFIG == (pool_workers, cache_env)
        )
        go_parallel = force_parallel or should_parallelize(
            cell_cost_s,
            len(rest),
            effective_workers(jobs, len(rest)),
            0.0 if warm else DEFAULT_SPAWN_COST_S,
        )
        if go_parallel:
            if PERF.enabled:
                PERF.incr("experiments.parallel_cells", len(rest))
            pool = _shared_pool(pool_workers, cache_env)
            outcomes.extend(pool.map(execute_cell, rest))
        else:
            if PERF.enabled:
                PERF.incr("experiments.fallback_serial")
            outcomes.extend(execute_cell(unit) for unit in rest)

    results = [result for result, _ in outcomes]
    if PERF.enabled:
        for _, snapshot in outcomes:
            if snapshot:
                PERF.merge(snapshot)
    return merge_results(figure, results)


def run_figures(
    figures: Sequence[str],
    jobs: Optional[int] = None,
    params_by_figure: Optional[Dict[str, Dict[str, Any]]] = None,
    artifact_cache: Optional[AnalysisArtifactCache] = None,
    capture_perf: bool = False,
    force_parallel: bool = False,
) -> Dict[str, Any]:
    """Run several figures; returns ``{figure: rows}`` in input order.

    Sweeps share the warm pool, so a multi-figure run pays at most one
    pool spawn.
    """
    params_by_figure = params_by_figure or {}
    return {
        figure: run_figure(
            figure,
            jobs=jobs,
            params=params_by_figure.get(figure),
            artifact_cache=artifact_cache,
            capture_perf=capture_perf,
            force_parallel=force_parallel,
        )
        for figure in figures
    }
