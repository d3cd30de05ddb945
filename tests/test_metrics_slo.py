"""SLO engine: burn math, alerts, verdicts.

Unit tests pin the objective algebra (bad/total reduction per kind,
the ``min_events`` gate, the multiwindow fire condition and its
fire-on-transition-only semantics) against hand-computed burn rates.
The integration test at the bottom drives a synthetic overflow burst
(drain-starved learn queue) through the scale harness: it must raise
a burn-rate alert and fail the run's SLO verdict.
"""

import json

import pytest

from repro.metrics import catalog
from repro.metrics.live import LiveWindows
from repro.metrics.slo import SloEngine, SloObjective, load_slo_config


def _config(**overrides):
    objective = {
        "name": "overflow_rate",
        "kind": "overflow",
        "budget_ratio": 0.01,
        "fast_burn": 2.0,
        "slow_burn": 1.0,
        "min_events": 10,
    }
    objective.update(overrides)
    return {"window_s": 4.0, "fast_window_s": 1.0, "objectives": [objective]}


# ----------------------------------------------------------------------
# objective parsing
# ----------------------------------------------------------------------
def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown SLO kind"):
        SloObjective({"kind": "throughput", "target": 0.99})


def test_missing_kind_parameter_rejected():
    with pytest.raises(ValueError, match="missing 'target'"):
        SloObjective({"name": "lat", "kind": "latency", "good_under_ms": 800})


def test_latency_target_range_enforced():
    with pytest.raises(ValueError, match="target"):
        SloObjective(
            {"kind": "latency", "target": 1.0, "good_under_ms": 800}
        )


def test_latency_budget_and_threshold():
    objective = SloObjective(
        {"kind": "latency", "target": 0.99, "good_under_ms": 800}
    )
    assert objective.budget == pytest.approx(0.01)
    assert objective.good_under_s == pytest.approx(0.8)


def test_duplicate_objective_names_rejected():
    config = _config()
    config["objectives"] = config["objectives"] * 2
    with pytest.raises(ValueError, match="duplicate"):
        SloEngine(config)


def test_load_slo_config_validates_shape(tmp_path):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps({"nope": True}))
    with pytest.raises(ValueError, match="objectives"):
        load_slo_config(str(path))


def test_default_slo_file_parses_and_names_a_latency_threshold():
    config = load_slo_config("benchmarks/slo.json")
    engine = SloEngine(config)
    assert engine.slow_threshold_s == pytest.approx(0.8)
    assert {o.kind for o in engine.objectives} == {
        "latency", "hit_rate", "overflow"
    }


# ----------------------------------------------------------------------
# burn math
# ----------------------------------------------------------------------
def test_burn_is_bad_over_total_over_budget():
    windows = LiveWindows(window_s=4.0, num_buckets=8)
    now = 2.0
    windows.inc(catalog.W_ANSWERED, now, 100)
    windows.inc(catalog.W_OVERFLOW, now, 2)
    objective = SloObjective(_config()["objectives"][0])
    burn, bad, total = objective.burn(windows, now, None)
    # 2/100 bad over a 0.01 budget -> burning at 2x
    assert burn == pytest.approx(2.0)
    assert (bad, total) == (2, 100)


def test_min_events_gate_suppresses_noise():
    windows = LiveWindows(window_s=4.0, num_buckets=8)
    now = 2.0
    windows.inc(catalog.W_ANSWERED, now, 5)
    windows.inc(catalog.W_OVERFLOW, now, 5)  # 100% bad, but 5 < 10 events
    objective = SloObjective(_config()["objectives"][0])
    assert objective.burn(windows, now, None)[0] == 0.0


def test_hit_rate_bad_is_the_miss_count():
    windows = LiveWindows(window_s=4.0, num_buckets=8)
    now = 2.0
    windows.inc(catalog.W_ANSWERED, now, 50)
    windows.inc(catalog.W_HITS, now, 20)
    objective = SloObjective(
        {"kind": "hit_rate", "floor": 0.5, "min_events": 10}
    )
    burn, bad, total = objective.burn(windows, now, None)
    assert (bad, total) == (30, 50)
    assert burn == pytest.approx((30 / 50) / 0.5)


def test_latency_counts_the_slow_window():
    windows = LiveWindows(window_s=4.0, num_buckets=8)
    now = 2.0
    for _ in range(20):
        windows.observe(catalog.W_REQUEST, now, 0.1)
    windows.inc(catalog.W_REQUEST_SLOW, now, 1)
    objective = SloObjective(
        {"kind": "latency", "target": 0.99, "good_under_ms": 800,
         "min_events": 10}
    )
    burn, bad, total = objective.burn(windows, now, None)
    assert (bad, total) == (1, 20)
    assert burn == pytest.approx((1 / 20) / 0.01)


# ----------------------------------------------------------------------
# alerting: multiwindow fire condition, transition-only
# ----------------------------------------------------------------------
def test_alert_fires_once_per_incident_and_rearms():
    engine = SloEngine(_config())
    windows = LiveWindows(window_s=4.0, num_buckets=8)

    def feed(now, answered, overflow):
        windows.inc(catalog.W_ANSWERED, now, answered)
        if overflow:
            windows.inc(catalog.W_OVERFLOW, now, overflow)

    # burning in both fast and slow windows -> one alert
    feed(0.5, 100, 10)
    new = engine.evaluate(windows, 0.5)
    assert len(new) == 1 and engine.burning["overflow_rate"] is True
    assert new[0]["objective"] == "overflow_rate"
    # still burning -> no re-page
    feed(1.0, 100, 10)
    new = engine.evaluate(windows, 1.0)
    assert new == []
    # incident clears (overflow slides out of the fast window)
    feed(6.0, 100, 0)
    new = engine.evaluate(windows, 6.0)
    assert new == [] and engine.burning["overflow_rate"] is False
    # second incident -> a second alert with a fresh sequence number
    feed(6.5, 100, 50)
    new = engine.evaluate(windows, 6.5)
    assert len(new) == 1
    assert new[0]["seq"] == 2
    assert engine.report(windows, 6.5)["alerts"] == 2


def test_fast_window_alone_does_not_fire():
    # a transient spike that has not yet moved the slow-window burn
    # above slow_burn must not page (the multiwindow rule's point)
    engine = SloEngine(_config(min_events=1))
    windows = LiveWindows(window_s=4.0, num_buckets=8)
    windows.inc(catalog.W_ANSWERED, 0.25, 1000)
    windows.inc(catalog.W_ANSWERED, 3.75, 100)
    windows.inc(catalog.W_OVERFLOW, 3.75, 3)
    new = engine.evaluate(windows, 3.75)
    # fast window: 3/100 over budget 0.01 -> 3.0 >= fast_burn
    # slow window: 3/1100 -> 0.27 < slow_burn -> no alert
    assert new == []


def test_violation_verdict_reads_the_slow_window():
    engine = SloEngine(_config())
    windows = LiveWindows(window_s=4.0, num_buckets=8)
    windows.inc(catalog.W_ANSWERED, 1.0, 100)
    windows.inc(catalog.W_OVERFLOW, 1.0, 2)
    report = engine.report(windows, 1.0)
    assert report["passed"] is False
    assert report["objectives"][0]["violated"] is True


# ----------------------------------------------------------------------
# an overflow burst, end to end
# ----------------------------------------------------------------------
def test_overflow_burst_alerts_and_fails_the_slo():
    from repro.experiments.scale import run_scale

    row = run_scale(
        users=60, duration=4.0, rate_per_user=2.0, seed=0,
        max_entries_per_user=16, slo_config=_config(),
        telemetry_interval=0.25,
        learn_queue_capacity=4, learn_drain_budget=0,
    )
    # the starved drain fills the queue and every further observation
    # overflows ...
    assert row["learn_queue_overflows"] > 0
    # ... the burn-rate alert fires and the run fails its SLO
    assert row["live"]["alerts"] > 0
    assert row["slo"]["passed"] is False
