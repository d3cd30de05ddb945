"""Labelled series of the metric registry behind the PERF facade."""

from repro.metrics.registry import MetricRegistry


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
