"""Tests for the ``repro scale`` load harness."""

import json
import sys

import pytest

from repro.apps import all_apps
from repro.cli import main
from repro.experiments import scale
from repro.experiments.scale import (
    _ScaleDeployment,
    record_session_template,
    run_scale,
)
from repro.metrics.perf import PERF
from repro.metrics.trace import UNNAMED_APP, aggregate_records, read_jsonl


def test_record_session_template_yields_replayable_requests():
    template = record_session_template("wish")
    assert len(template) > 1
    # independent copies: mutating one replay must not poison another
    assert template[0] is not template[0].copy()
    methods = {request.method for request in template}
    assert "GET" in methods


def test_run_scale_reports_consistent_metrics():
    row = run_scale(users=10, duration=4.0, seed=3, rate_per_user=0.5)
    assert row["users"] == 10
    assert row["requests"] == row["requests_sent"] > 0
    assert row["served_prefetched"] + row["forwarded"] >= row["requests"]
    assert 0.0 <= row["hit_rate"] <= 1.0
    assert row["wall_s"] > 0.0
    assert row["sim_events"] > row["requests"]
    assert row["latency_p50_ms"] <= row["latency_p95_ms"] <= row["latency_p99_ms"]
    assert row["peak_cache_entries"] >= row["final_cache_entries"] >= 0
    assert row["peak_rss_bytes"] > 0
    assert row["cache_stored"] > 0


def test_per_request_stages_time_every_request():
    row = run_scale(users=10, duration=4.0, seed=3, rate_per_user=0.5)
    stages = row["stage_latency_us"]
    for stage in ("proxy.dispatch", "proxy.cache_lookup", "proxy.learn"):
        assert stages[stage]["count"] == row["requests"], stage
    assert stages["proxy.learn_drain"]["count"] > 0


def test_every_observation_is_drained_before_the_next():
    """The proxy, the prefetcher and the refresher each drain the learn
    queue right after they park an observation, so it never holds two;
    an ``observe`` left without its drain shows up as a deeper peak."""
    row = run_scale(
        users=40, duration=4.0, apps=tuple(all_apps()), seed=0,
        rate_per_user=1.0, warm_start=True,
    )
    assert row["prefetch_issued"] > 0  # background fetches observed too
    assert PERF.get("learn.queue_depth_peak") == 1
    assert row["learn_queue_overflows"] == 0
    assert row["learn_deferred_drained"] == PERF.get("learn.deferred_drained") > 0


def test_run_scale_is_deterministic_in_virtual_metrics():
    first = run_scale(users=8, duration=3.0, seed=11)
    second = run_scale(users=8, duration=3.0, seed=11)
    for key in (
        "requests",
        "served_prefetched",
        "forwarded",
        "prefetch_issued",
        "latency_p99_ms",
        "sim_events",
        "cache_stored",
    ):
        assert first[key] == second[key], key


def test_replay_extracts_each_predecessor_value_list_once(monkeypatch):
    """A replaying user reads a predecessor's values at a path once per
    stored response, however many later steps substitute from it."""
    from repro.httpmsg.fieldpath import FieldPath

    original = FieldPath.extract
    held = []  # keeps every response alive, so ids are never reused
    seen = set()
    duplicates = []

    def recording_extract(path, message):
        caller = sys._getframe(1)
        if (
            caller.f_globals.get("__name__") == scale.__name__
            and caller.f_code.co_name != "_build_replay_steps"
        ):
            key = (id(message), path)
            if key in seen:
                duplicates.append(key)
            seen.add(key)
            held.append(message)
        return original(path, message)

    monkeypatch.setattr(FieldPath, "extract", recording_extract)
    row = run_scale(
        users=20, duration=20.0, apps=tuple(all_apps()), seed=0,
        rate_per_user=1.0, warm_start=True,
    )
    assert row["requests"] > 0
    assert seen  # the replay did substitute predecessor values
    assert duplicates == []


def test_run_scale_per_user_bound_caps_cache(tmp_path):
    path = tmp_path / "trace.jsonl"
    row = run_scale(
        users=6, duration=5.0, seed=0, max_entries_per_user=4,
        trace_path=str(path),
    )
    assert row["peak_cache_entries"] <= 6 * 4
    # the bound did real work: it refused prefetches it could not hold,
    # and the trace names the refusal as the prefetch_issue outcome
    assert row["skipped_bound"] > 0
    outcomes = aggregate_records(read_jsonl(str(path)))["span_outcomes"]
    assert outcomes["prefetch_issue"]["skipped_bound"] > 0


def test_run_scale_row_reports_the_prebuilt_deployment_settings():
    apps = ("wish", "geek")
    deployment = _ScaleDeployment(
        apps,
        max_entries_per_user=3,
        admission_threshold=0.2,
    )
    row = run_scale(users=4, duration=2.0, apps=apps, seed=0, _deployment=deployment)
    assert row["max_entries_per_user"] == 3
    assert row["admission_threshold"] == 0.2
    # the caches really hold those bounds
    for _, proxy in deployment.multi._apps:
        assert proxy.cache.max_entries_per_user == 3
        assert proxy.config.admission_threshold == 0.2


def test_run_scale_rejects_empty_population():
    with pytest.raises(ValueError):
        run_scale(users=0, duration=1.0)


@pytest.mark.parametrize(
    "setting",
    [
        {"admission_threshold": 1.5},
        {"duration": 0.0},
        {"duration": -1.0},
        {"rate_per_user": -1.0},
        {"max_entries_per_user": 0},
    ],
    ids=["admission", "zero-duration", "negative-duration", "rate", "bound"],
)
def test_run_scale_rejects_out_of_range_settings(setting):
    arguments = dict({"users": 4, "duration": 1.0}, **setting)
    with pytest.raises(ValueError):
        run_scale(**arguments)


@pytest.mark.parametrize(
    "setting",
    [{"admission_threshold": 1.5}, {"max_entries_per_user": 0}],
    ids=["admission", "bound"],
)
def test_deployment_rejects_out_of_range_settings(setting):
    with pytest.raises(ValueError):
        _ScaleDeployment(("wish",), **setting)


@pytest.mark.parametrize(
    "users, kwargs",
    [([4, 0], {}), ([4, 8], {"rate_per_user": -1.0})],
    ids=["count", "rate"],
)
def test_sweep_rejects_a_bad_cell_before_serving_any(monkeypatch, users, kwargs):
    served = []
    monkeypatch.setattr(scale, "run_scale", lambda *args, **_: served.append(args))
    with pytest.raises(ValueError):
        scale.run_scale_sweep(users, default_duration=1.0, **kwargs)
    assert served == []


#: what the per-user bound does to a bounded five-app run (seed 0):
#: stores, evictions, waste, hits, peak size, simulator events and the
#: prefetches it refused to issue
BOUNDED_FIVE_APP_GOLDEN = {
    "cache_stored": 150,
    "cache_lru_evictions": 2,
    "prefetch_wasted": 0,
    "served_prefetched": 46,
    "peak_cache_entries": 148,
    "sim_events": 3279,
    "skipped_bound": 2347,
}


def test_bounded_five_app_run_matches_its_golden():
    row = run_scale(
        users=40, duration=4.0, apps=tuple(all_apps()), rate_per_user=1.0,
        seed=0, warm_start=True, max_entries_per_user=4,
    )
    assert {key: row[key] for key in BOUNDED_FIVE_APP_GOLDEN} == BOUNDED_FIVE_APP_GOLDEN


def test_cli_scale_smoke(tmp_path, capsys):
    output = tmp_path / "scale.json"
    code = main(
        [
            "scale",
            "--users", "5", "10",
            "--duration", "2",
            "--apps", "wish",
            "--output", str(output),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "per-request wall cost" in printed
    written = json.loads(output.read_text())
    assert [row["users"] for row in written["rows"]] == [5, 10]
    assert written["derived"]["per_request_cost_ratio"] > 0


def test_cli_scale_validates_arguments(capsys):
    assert main(["scale", "--users", "0"]) == 2
    assert main(["scale", "--users", "5", "--duration", "0"]) == 2
    assert main(["scale", "--users", "5", "--rate", "-1"]) == 2
    assert main(["scale", "--users", "5", "--max-entries-per-user", "0"]) == 2
    assert "max_entries_per_user must be >= 1" in capsys.readouterr().err


# ======================================================================
# strategy plumbing: appx vs history vs none on one workload
# ======================================================================
def test_run_scale_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        run_scale(users=2, duration=1.0, strategy="bogus")


def test_strategy_none_issues_no_prefetches():
    row = run_scale(
        users=4, duration=5.0, rate_per_user=1.0, seed=3,
        apps=("wish",), strategy="none",
    )
    assert row["prefetch_issued"] == 0
    assert row["hit_rate"] == 0.0


def test_appx_strategy_beats_no_prefetch_on_the_same_workload():
    kwargs = dict(
        users=6, duration=10.0, rate_per_user=1.0, seed=3, apps=("wish",),
        warm_start=True,
    )
    baseline = run_scale(strategy="none", **kwargs)
    accelerated = run_scale(strategy="appx", **kwargs)
    # identical seeded workload: same arrivals, same session steps
    assert accelerated["requests"] == baseline["requests"]
    # session-consistent replay makes prefetched entries actually hit
    assert accelerated["hit_rate"] > 0.2
    assert accelerated["latency_p50_ms"] < baseline["latency_p50_ms"]


def test_admission_threshold_cuts_prefetch_volume():
    kwargs = dict(
        users=6, duration=10.0, rate_per_user=1.0, seed=3, apps=("wish",),
        warm_start=True,
    )
    open_gate = run_scale(strategy="appx", **kwargs)
    gated = run_scale(strategy="appx", admission_threshold=0.2, **kwargs)
    assert gated["skipped_admission"] > 0
    assert gated["prefetch_issued"] < open_gate["prefetch_issued"]


def test_row_reports_prefetch_outcomes_and_origin_bytes():
    kwargs = dict(
        users=6, duration=10.0, rate_per_user=1.0, seed=3, apps=("wish",),
        warm_start=True,
    )
    row = run_scale(strategy="appx", admission_threshold=0.2, **kwargs)
    cells = [
        cell
        for app_cells in row["prefetch_by_signature"].values()
        for cell in app_cells.values()
    ]
    assert row["prefetch_used"] == sum(cell["used"] for cell in cells) > 0
    assert row["prefetch_wasted"] == sum(cell["wasted"] for cell in cells)
    # an entry is used once, however often it is hit
    assert all(cell["used"] <= cell["issued"] for cell in cells)
    assert row["prefetch_used"] <= row["served_prefetched"]
    baseline = run_scale(strategy="none", **kwargs)
    assert baseline["prefetch_used"] == 0
    # prefetching moves more origin bytes than serving on demand only
    assert row["origin_bytes"] > baseline["origin_bytes"] > 0


def test_prefetch_cells_are_keyed_by_app_and_site(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    row = run_scale(
        users=10, duration=10.0, rate_per_user=1.0, seed=3,
        apps=("wish", "geek"), warm_start=True, trace_path=str(path),
    )
    table = row["prefetch_by_signature"]
    assert set(table) == {"wish", "geek"}
    # a site id both apps use keeps one cell per app
    assert "FeedActivity.loadFeed#1" in set(table["wish"]) & set(table["geek"])
    issued = sum(cell["issued"] for cells in table.values() for cell in cells.values())
    assert issued == row["prefetch_issued"]
    # the trace summary merge and `repro stats` keep the split
    assert aggregate_records(read_jsonl(str(path)))["prefetch_by_signature"] == table
    capsys.readouterr()
    assert main(["stats", str(path)]) == 0
    printed = capsys.readouterr().out
    for app in ("wish", "geek"):
        issued = table[app]["FeedActivity.loadFeed#1"]["issued"]
        assert any(
            line.split()[:3] == [app, "FeedActivity.loadFeed#1", str(issued)]
            for line in printed.splitlines()
        ), app


def test_stats_reads_a_flat_prefetch_table(tmp_path, capsys):
    # a trace exported before the cells were keyed by app holds one flat
    # site -> cell table; its cells are filed under an unnamed app
    cell = {"issued": 5, "hits": 3, "used": 2, "wasted": 1}
    record = {
        "trace_id": "summary",
        "user": "-",
        "kind": "summary",
        "spans": [],
        "tags": {"prefetch_by_signature": {"FeedActivity.loadFeed#1": cell}},
    }
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(record) + "\n")
    summary = aggregate_records(read_jsonl(str(path)))
    assert summary["prefetch_by_signature"] == {
        UNNAMED_APP: {"FeedActivity.loadFeed#1": cell}
    }
    capsys.readouterr()
    assert main(["stats", str(path)]) == 0
    printed = capsys.readouterr().out
    assert any(
        line.split()[:4] == [UNNAMED_APP, "FeedActivity.loadFeed#1", "5", "3"]
        for line in printed.splitlines()
    )


@pytest.mark.parametrize(
    "options",
    [
        # history needs a few visits per user before it predicts
        {"strategy": "history", "duration": 40.0},
        {"strategy": "appx", "estimate_expiration": True, "duration": 10.0},
    ],
    ids=["history", "probes"],
)
def test_origin_bytes_count_history_prefetches_and_probes(options):
    deployment = _ScaleDeployment(("wish",), strategy=options["strategy"])
    row = run_scale(
        users=6, rate_per_user=1.0, seed=3, apps=("wish",), warm_start=True,
        _deployment=deployment, **options,
    )
    proxy_bytes = sum(p.total_server_bytes() for _, p in deployment.multi._apps)
    if options["strategy"] == "history":
        extra = row["history"]["wish"]["prefetch_bytes"]
    else:
        extra = row["expiration"]["probe_bytes"]
    assert extra > 0
    assert row["origin_bytes"] == proxy_bytes + extra


def test_run_strategy_comparison_reports_deltas():
    from repro.experiments.scale import (
        format_strategy_table,
        run_strategy_comparison,
    )

    comparison = run_strategy_comparison(
        users=6, duration=10.0, rate_per_user=1.0, seed=3, apps=("wish",),
        strategies=("none", "appx"),
    )
    assert set(comparison["rows"]) == {"none", "appx"}
    derived = comparison["derived"]["appx"]
    assert derived["p50_delta_ms"] < 0
    assert derived["p50_speedup"] > 1.0
    assert derived["hit_rate"] > 0.2
    table = format_strategy_table(comparison)
    assert "appx" in table and "none" in table and "speedup" in table


def test_run_scale_estimator_row_fields():
    row = run_scale(
        users=4, duration=8.0, rate_per_user=1.0, seed=3, apps=("wish",),
        strategy="appx", estimate_expiration=True, warm_start=True,
    )
    assert row["expiration"] is not None
    assert row["expiration"]["sites"] > 0
    assert row["prefetch_by_signature"]


def test_cli_scale_compare_strategies_smoke(tmp_path, capsys):
    output = tmp_path / "compare.json"
    code = main(
        [
            "scale",
            "--users", "4",
            "--duration", "5",
            "--rate", "1.0",
            "--apps", "wish",
            "--compare-strategies",
            "--output", str(output),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "strategy comparison" in printed
    written = json.loads(output.read_text())
    assert set(written["rows"]) == {"none", "history", "appx"}


def test_cli_scale_validates_new_arguments(capsys):
    assert main(["scale", "--users", "4", "--admission-threshold", "1.5"]) == 2
    assert main(["scale", "--users", "4", "--trace-sample", "2"]) == 2
    capsys.readouterr()


#: row keys a telemetry-armed run must reproduce exactly (everything
#: deterministic; wall-clock keys excluded)
DETERMINISTIC_KEYS = (
    "requests",
    "requests_sent",
    "sim_events",
    "hit_rate",
    "served_prefetched",
    "forwarded",
    "prefetch_issued",
    "peak_cache_entries",
    "final_cache_entries",
    "cache_stored",
    "cache_expired_evictions",
    "cache_lru_evictions",
    "cache_purged",
    "prefetch_used",
    "prefetch_wasted",
    "origin_bytes",
    "skipped_admission",
    "skipped_bound",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "prefetch_by_signature",
    "miss_causes",
    "expiration",
    "history",
)


#: the settings a row echoes that decide its deterministic outcome
ROW_SETTINGS = (
    "users", "apps", "rate_per_user", "seed", "max_entries_per_user",
    "admission_threshold", "strategy", "warm_start", "estimate_expiration",
)


def test_a_row_reproduces_from_its_own_settings():
    first = run_scale(
        users=12, duration=6.0, apps=("wish", "doordash"), rate_per_user=1.0,
        seed=5, max_entries_per_user=8, admission_threshold=0.2,
        warm_start=True, estimate_expiration=True,
    )
    settings = {key: first[key] for key in ROW_SETTINGS}
    again = run_scale(duration=first["duration_s"], **settings)
    for key in DETERMINISTIC_KEYS:
        assert again[key] == first[key], key


def test_telemetry_plane_does_not_perturb_the_workload():
    kwargs = dict(users=24, duration=4.0, seed=11, max_entries_per_user=16)
    plain = run_scale(**kwargs)
    live = run_scale(telemetry=True, **kwargs)
    # sim_events differs (the telemetry tick process adds events); every
    # workload outcome must be byte-identical
    for key in DETERMINISTIC_KEYS:
        if key == "sim_events":
            continue
        assert live[key] == plain[key], key
    assert live["live"] is not None and plain.get("live") is None
