"""Parallel experiment engine tests.

The engine's contract is byte-identical output: for every figure the
plan/map/merge decomposition — inline or over a real process pool —
must reproduce the serial runner's rows exactly.  The
serial runners therefore act as the differential oracle here, the same
way the seed's linear signature scan does for the dispatch memo.
"""

import json

import pytest

from repro.experiments import parallel, runner, scenario


@pytest.fixture(autouse=True)
def preserve_prepared_memo():
    """Keep the in-process prepare_app memo as other tests expect it."""
    saved = dict(scenario._PREPARED)
    yield
    scenario._PREPARED.clear()
    scenario._PREPARED.update(saved)


def rows_json(rows):
    return json.dumps(rows, sort_keys=True)


# ======================================================================
# plan / merge decomposition
# ======================================================================
def test_plan_cells_canonical_order_matches_serial_loops():
    units = parallel.plan_cells(
        "fig15", {"apps": ["wish", "geek"], "rtts": (0.05, 0.1)}
    )
    assert [(kind, kwargs["name"], kwargs["rtt"]) for kind, kwargs in units] == [
        ("fig15", "wish", 0.05),
        ("fig15", "wish", 0.1),
        ("fig15", "geek", 0.05),
        ("fig15", "geek", 0.1),
    ]


def test_plan_cells_fig17_has_baseline_first():
    units = parallel.plan_cells("fig17", {"probabilities": (0.0, 1.0)})
    assert [kind for kind, _ in units] == ["fig17_baseline", "fig17", "fig17"]


def test_plan_cells_rejects_unknown_figure():
    with pytest.raises(ValueError):
        parallel.plan_cells("fig99")


def test_merge_results_fig17_normalizes_against_baseline():
    cells = [
        {"probability": 0.0, "median_latency": 1.0, "server_bytes": 50},
        {"probability": 1.0, "median_latency": 0.5, "server_bytes": 200},
    ]
    merged = parallel.merge_results("fig17", [100] + cells)
    assert merged == runner.fig17_finalize(cells, 100)
    assert merged[1]["normalized_data_usage"] == 2.0


# ======================================================================
# serial vs parallel: byte-identical rows over a real process pool
# ======================================================================
def test_fig15_parallel_rows_byte_identical_to_serial():
    apps, rtts = ["wish", "geek"], (0.05, 0.1)
    serial = runner.fig15_percentile_sweep(rtts=rtts, participants=2, apps=apps)
    pooled = parallel.run_figure(
        "fig15", jobs=2, params={"apps": apps, "rtts": rtts, "participants": 2}
    )
    assert rows_json(pooled) == rows_json(serial)


def test_table3_parallel_rows_byte_identical_to_serial():
    apps = ["wish", "geek"]
    kwargs = {"fuzz_duration": 30.0, "trace_participants": 2, "trace_duration": 30.0}
    serial = runner.table3_rows(apps=apps, **kwargs)
    pooled = parallel.run_figure(
        "table3", jobs=2, params=dict(kwargs, apps=apps)
    )
    assert rows_json(pooled) == rows_json(serial)


def test_run_figure_inline_when_jobs_is_one():
    apps = ["wish"]
    serial = runner.fig13_main_interaction(runs=2, apps=apps)
    inline = parallel.run_figure("fig13", jobs=1, params={"apps": apps, "runs": 2})
    assert rows_json(inline) == rows_json(serial)


def test_effective_workers_capped_by_cores_and_cells():
    import os

    cores = os.cpu_count() or 1
    assert parallel.effective_workers(jobs=64, cells=2) == min(2, cores)
    assert parallel.effective_workers(jobs=1, cells=100) == 1
    assert parallel.effective_workers(jobs=64, cells=100) == min(64, cores)


def test_pool_path_rows_byte_identical_to_serial(monkeypatch):
    apps = ["wish", "geek"]
    serial = runner.fig13_main_interaction(runs=2, apps=apps)
    opened = []

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    # a one-core host would otherwise run the cells inline
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    pooled = parallel.run_figures(
        ["fig13", "fig14"], jobs=2,
        params_by_figure={"fig13": {"apps": apps, "runs": 2},
                          "fig14": {"apps": apps, "runs": 1}},
    )
    assert opened == [2]  # one pool for both figures
    assert rows_json(pooled["fig13"]) == rows_json(serial)
    assert rows_json(pooled["fig14"]) == rows_json(
        runner.fig14_app_launch(runs=1, apps=apps)
    )
