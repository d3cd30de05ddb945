"""Stage timers and labelled series of the PERF facade."""

import pytest

from repro.metrics.catalog import STAGE_SECONDS
from repro.metrics.perf import PERF, PerfCounters
from repro.metrics.registry import MetricRegistry


def _stage_count(perf, name):
    histogram = perf.registry.histogram(STAGE_SECONDS, {"stage": name})
    return 0 if histogram is None else histogram.count


def test_nested_same_name_stage_records_both_blocks():
    perf = PerfCounters()
    with perf.capture():
        with perf.stage("proxy.learn"):
            with perf.stage("proxy.learn"):
                pass
        assert _stage_count(perf, "proxy.learn") == 2
        assert perf.timings["proxy.learn"] > 0.0


def test_disabled_stage_records_nothing():
    perf = PerfCounters()
    with perf.stage("proxy.learn"):
        pass
    assert perf.timings == {}
    assert perf.registry.histograms == {}


def test_stage_block_entered_disabled_stays_unrecorded():
    perf = PerfCounters()
    with perf.stage("proxy.dispatch"):
        perf.enable()
    assert perf.timings == {}
    perf.disable()


def test_stage_records_again_after_a_reset():
    perf = PerfCounters()
    with perf.capture():
        with perf.stage("proxy.dispatch"):
            pass
    with perf.capture():
        with perf.stage("proxy.dispatch"):
            pass
        assert _stage_count(perf, "proxy.dispatch") == 1
        assert list(perf.timings) == ["proxy.dispatch"]


def test_stage_records_when_the_block_raises():
    perf = PerfCounters()
    with perf.capture():
        with pytest.raises(KeyError):
            with perf.stage("proxy.cache_lookup"):
                raise KeyError("x")
        assert _stage_count(perf, "proxy.cache_lookup") == 1


def test_global_stage_feeds_the_histogram_the_live_plane_reads():
    with PERF.capture():
        for _ in range(3):
            with PERF.stage("proxy.learn"):
                pass
        assert PERF.registry.percentiles(STAGE_SECONDS, {"stage": "proxy.learn"})
        assert _stage_count(PERF, "proxy.learn") == 3


def test_labelled_series_respect_the_guard_across_resets():
    registry = MetricRegistry(max_series_per_metric=2)
    for site in ("a", "b", "c", "a", "c"):
        registry.inc("prefetch_hits", labels={"signature": site})
    assert registry.counters == {
        'prefetch_hits{signature="a"}': 2,
        'prefetch_hits{signature="b"}': 1,
        'prefetch_hits{overflow="true"}': 2,
    }
    assert registry.overflow_series == 2
    registry.reset()
    for site in ("c", "a", "b"):
        registry.inc("prefetch_hits", labels={"signature": site})
    assert registry.counters == {
        'prefetch_hits{signature="c"}': 1,
        'prefetch_hits{signature="a"}': 1,
        'prefetch_hits{overflow="true"}': 1,
    }


def test_labelled_key_is_admitted_per_store():
    registry = MetricRegistry(max_series_per_metric=1)
    registry.inc("x", labels={"k": "1"})
    registry.set_gauge("x", 5.0, labels={"k": "1"})
    # the gauge store had no such series: the guard admits it afresh
    # and the metric's one-series budget is already spent
    assert registry.gauges == {'x{overflow="true"}': 5.0}
