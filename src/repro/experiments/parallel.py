"""Parallel experiment engine: plan, map, merge.

Every paper figure is a sweep of independent (app, mode, RTT,
probability, seed) cells that the serial runners in
:mod:`repro.experiments.runner` execute one after another.  This
module decomposes each sweep into its cells (*plan*), runs them inline
or with ``ProcessPoolExecutor.map`` (*map*), and reassembles the rows
in canonical order (*merge*), so the pooled output is byte-identical
to the serial runner's — which therefore stays around as the
differential oracle.

Cells carry every seed explicitly and share no mutable state, and
``Executor.map`` preserves order, so merging is pure.  One pool serves
every figure of a :func:`run_figures` call, so each worker keeps its
in-process ``prepare_app`` memo from one figure to the next.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.registry import all_apps
from repro.experiments import runner

#: figures the engine can fan out, with their cell functions
_CELL_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "table3": runner.table3_row,
    "fig13": runner.fig13_row,
    "fig14": runner.fig14_row,
    "fig15": runner.fig15_cell,
    "fig16": runner.fig16_cell,
    "fig17": runner.fig17_cell,
    "fig17_baseline": runner.fig17_baseline,
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

#: a work unit: (cell-function name, kwargs)
WorkUnit = Tuple[str, Dict[str, Any]]


# ======================================================================
# plan — decompose a sweep into picklable, independent work units
# ======================================================================
def plan_cells(figure: str, params: Optional[Dict[str, Any]] = None) -> List[WorkUnit]:
    """The figure's cells, in the serial runner's canonical order."""
    params = dict(params or {})
    params.pop("jobs", None)
    apps = params.pop("apps", None)
    app_names = list(apps) if apps is not None else list(all_apps())

    if figure in ("table3", "fig13", "fig14"):
        return [(figure, dict(params, name=name)) for name in app_names]
    if figure in ("fig15", "fig16"):
        rtts = params.pop("rtts", (0.050, 0.100, 0.150))
        return [
            (figure, dict(params, name=name, rtt=rtt))
            for name in app_names
            for rtt in rtts
        ]
    if figure == "fig17":
        probabilities = params.pop(
            "probabilities", (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
        )
        cells: List[WorkUnit] = [("fig17_baseline", dict(params))]
        cells.extend(
            ("fig17", dict(params, probability=probability))
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
# map — one cell, in a pool worker or inline
# ======================================================================
def execute_cell(unit: WorkUnit) -> Any:
    kind, kwargs = unit
    return _CELL_FUNCTIONS[kind](**kwargs)


def effective_workers(jobs: Optional[int], cells: int) -> int:
    """Workers that can actually run at once: jobs, cells, cores."""
    return max(1, min(jobs or 1, cells, os.cpu_count() or 1))


# ======================================================================
# run — plan every figure, map over one pool, merge
# ======================================================================
def run_figures(
    figures: Sequence[str],
    jobs: Optional[int] = None,
    params_by_figure: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Run several figures; returns ``{figure: rows}`` in input order.

    The cells run inline when :func:`effective_workers` is 1 (``jobs``
    unset or 1, one core, or one cell per figure); otherwise one
    process pool serves every figure.  Output is byte-identical to
    ``SERIAL_RUNNERS[figure](**params)``.
    """
    params_by_figure = params_by_figure or {}
    plans = {
        figure: plan_cells(figure, params_by_figure.get(figure))
        for figure in figures
    }
    workers = effective_workers(
        jobs, max((len(cells) for cells in plans.values()), default=1)
    )
    if workers == 1:
        return {
            figure: merge_results(figure, [execute_cell(unit) for unit in cells])
            for figure, cells in plans.items()
        }
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return {
            figure: merge_results(figure, list(pool.map(execute_cell, cells)))
            for figure, cells in plans.items()
        }


def run_figure(
    figure: str,
    jobs: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
) -> Any:
    """Run one figure's sweep; see :func:`run_figures`."""
    return run_figures([figure], jobs=jobs, params_by_figure={figure: params or {}})[figure]
