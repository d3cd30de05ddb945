"""Parallel experiment engine + analysis artifact cache tests.

The engine's contract is byte-identical output: for every figure the
plan/execute/merge decomposition — serial or fanned out over a real
process pool — must reproduce the serial runner's rows exactly.  The
serial runners therefore act as the differential oracle here, the same
way the seed's linear signature scan does for the dispatch memo.
"""

import json

import pytest

from repro.analysis.pipeline import AnalysisOptions
from repro.analysis.serialize import dumps as dump_analysis
from repro.apps.registry import get_app
from repro.experiments import parallel, runner, scenario
from repro.experiments.cache import AnalysisArtifactCache


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
    assert [(kind, kwargs["name"], kwargs["rtt"]) for kind, kwargs, _ in units] == [
        ("fig15", "wish", 0.05),
        ("fig15", "wish", 0.1),
        ("fig15", "geek", 0.05),
        ("fig15", "geek", 0.1),
    ]


def test_plan_cells_fig17_has_baseline_first():
    units = parallel.plan_cells("fig17", {"probabilities": (0.0, 1.0)})
    assert [kind for kind, _, _ in units] == ["fig17_baseline", "fig17", "fig17"]


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


# ======================================================================
# on-disk artifact cache: round trip + invalidation
# ======================================================================
def _seed_dicts(store):
    snapshot = store.global_snapshot()
    return dict(snapshot._global_tags), dict(snapshot._global_fields)


def test_disk_cache_round_trip_rebuilds_equal_artifacts(tmp_path):
    cache = AnalysisArtifactCache(str(tmp_path))
    scenario._PREPARED.pop("wish", None)
    first = scenario.prepare_app("wish", fuzz_duration=20.0, disk_cache=cache)
    assert cache.writes == 1 and cache.hits == 0

    scenario._PREPARED.pop("wish", None)
    second = scenario.prepare_app("wish", fuzz_duration=20.0, disk_cache=cache)
    assert cache.hits == 1

    assert dump_analysis(second.analysis) == dump_analysis(first.analysis)
    assert second.config.to_json() == first.config.to_json()
    assert (first.seed_store is None) == (second.seed_store is None)
    if first.seed_store is not None:
        assert _seed_dicts(second.seed_store) == _seed_dicts(first.seed_store)


def test_disk_cache_round_trip_preserves_experiment_rows(tmp_path):
    cache = AnalysisArtifactCache(str(tmp_path))
    scenario._PREPARED.pop("wish", None)
    scenario.prepare_app("wish", disk_cache=cache)
    fresh = runner.user_study_run("wish", proxied=True, participants=2)

    scenario._PREPARED.pop("wish", None)
    scenario.prepare_app("wish", disk_cache=cache)  # rebuilt from disk
    cached = runner.user_study_run("wish", proxied=True, participants=2)
    assert rows_json(cached) == rows_json(fresh)


def test_cache_key_changes_with_options_params_and_code(tmp_path):
    cache = AnalysisArtifactCache(str(tmp_path))
    apk = get_app("wish").build_apk()
    options = AnalysisOptions(run_slicing=False)
    base = cache.key_for("wish", apk, options, 90.0, True)

    assert cache.key_for(
        "wish", apk, AnalysisOptions(run_slicing=True), 90.0, True
    ) != base
    assert cache.key_for("wish", apk, options, 60.0, True) != base
    assert cache.key_for("wish", apk, options, 90.0, False) != base
    assert cache.key_for("geek", get_app("geek").build_apk(), options, 90.0, True) != base

    edited = get_app("wish").build_apk()
    edited.config_defaults["__edited__"] = "1"
    assert cache.key_for("wish", edited, options, 90.0, True) != base

    # unchanged inputs produce the same key across rebuilds
    assert cache.key_for("wish", get_app("wish").build_apk(), options, 90.0, True) == base


def test_cache_invalidate_and_clear(tmp_path):
    cache = AnalysisArtifactCache(str(tmp_path))
    scenario._PREPARED.pop("wish", None)
    scenario.prepare_app("wish", fuzz_duration=20.0, disk_cache=cache)
    assert len(cache.entries()) == 1
    assert cache.invalidate("wish") == 1
    assert cache.entries() == {}

    key = "0" * 32
    assert cache.load("wish", key) is None  # miss after invalidation
    scenario._PREPARED.pop("wish", None)
    scenario.prepare_app("wish", fuzz_duration=20.0, disk_cache=cache)
    assert cache.clear() == 1
    assert cache.entries() == {}


def test_cache_rejects_stale_format_version(tmp_path):
    cache = AnalysisArtifactCache(str(tmp_path))
    scenario._PREPARED.pop("wish", None)
    prepared = scenario.prepare_app("wish", fuzz_duration=20.0, disk_cache=cache)
    apk = prepared.apk
    key = cache.key_for(
        "wish", apk, AnalysisOptions(run_slicing=False), 20.0, True
    )
    path = cache._path_for("wish", key)
    payload = json.loads(open(path).read())
    payload["format"] = -1
    open(path, "w").write(json.dumps(payload))
    assert cache.load("wish", key) is None


# ======================================================================
# break-even projection + warm shared pool
# ======================================================================
def test_should_parallelize_cheap_cells_stay_serial():
    # 10 cells at 1ms each: serial 10ms, pool spawn alone costs 300ms
    assert not parallel.should_parallelize(
        0.001, 10, workers=4, spawn_cost_s=parallel.DEFAULT_SPAWN_COST_S
    )


def test_should_parallelize_expensive_cells_fan_out():
    # 8 cells at 2s each over 4 workers: 16s serial vs ~4.3s projected
    assert parallel.should_parallelize(
        2.0, 8, workers=4, spawn_cost_s=parallel.DEFAULT_SPAWN_COST_S
    )


def test_should_parallelize_single_worker_never_pays():
    assert not parallel.should_parallelize(
        10.0, 100, workers=1, spawn_cost_s=0.0
    )


def test_should_parallelize_warm_pool_lowers_break_even():
    # borderline cells the cold pool loses on but the warm pool wins
    # (serial 0.30s vs cold ~0.41s vs warm ~0.11s)
    cost, cells, workers = 0.05, 6, 3
    assert not parallel.should_parallelize(
        cost, cells, workers, spawn_cost_s=parallel.DEFAULT_SPAWN_COST_S
    )
    assert parallel.should_parallelize(cost, cells, workers, spawn_cost_s=0.0)


def test_effective_workers_capped_by_cores_and_cells():
    import os

    cores = os.cpu_count() or 1
    assert parallel.effective_workers(jobs=64, cells=2) == min(2, cores)
    assert parallel.effective_workers(jobs=1, cells=100) == 1
    assert parallel.effective_workers(jobs=64, cells=100) == min(64, cores)


def test_break_even_fallback_is_byte_identical_and_counted():
    from repro.metrics.perf import PERF

    apps = ["wish", "geek"]
    serial = runner.fig13_main_interaction(runs=2, apps=apps)
    with PERF.capture() as perf:
        decided = parallel.run_figure(
            "fig13", jobs=8, params={"apps": apps, "runs": 2}
        )
        snapshot = perf.snapshot()
    assert rows_json(decided) == rows_json(serial)
    # cheap two-cell sweep on this box: the projection keeps it serial
    # (on a many-core box with slow cells it may legitimately fan out)
    counters = snapshot["counters"]
    assert (
        counters.get("experiments.fallback_serial", 0)
        + counters.get("experiments.parallel_cells", 0)
    ) > 0


def test_forced_pool_rows_byte_identical_and_pool_reused():
    from repro.metrics.perf import PERF

    apps = ["wish", "geek"]
    serial = runner.fig13_main_interaction(runs=2, apps=apps)
    try:
        pooled = parallel.run_figure(
            "fig13", jobs=2, params={"apps": apps, "runs": 2},
            force_parallel=True,
        )
        assert rows_json(pooled) == rows_json(serial)
        assert parallel._SHARED_POOL is not None
        with PERF.capture() as perf:
            again = parallel.run_figure(
                "fig13", jobs=2, params={"apps": apps, "runs": 2},
                force_parallel=True,
            )
            snapshot = perf.snapshot()
        assert rows_json(again) == rows_json(serial)
        assert snapshot["counters"].get("experiments.pool_reuse", 0) >= 1
    finally:
        parallel.shutdown_shared_pool()
    assert parallel._SHARED_POOL is None
