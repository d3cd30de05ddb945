"""Property tests for registry snapshot/merge — the pool fold-back core.

The parallel figure engine (``repro figs --jobs``) folds every pool
worker's :meth:`~repro.metrics.registry.MetricRegistry.snapshot` into
one aggregate with :meth:`~repro.metrics.registry.MetricRegistry.merge`.
Fold-back order is whatever order workers happen to finish in, so
merge must be commutative and associative; mismatched histogram bucket
layouts must fail loudly (silently misaligned buckets would corrupt
every percentile downstream); and overflow series must survive the
fold without re-entering the cardinality guard as fresh labels.
"""

import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.registry import DEFAULT_BUCKETS, MetricRegistry, series_key

# ----------------------------------------------------------------------
# hypothesis strategies: a registry "workload" is a list of operations
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(["requests", "cache.hits", "queue_depth_peak"])
_LABELS = st.one_of(
    st.none(), st.fixed_dictionaries({"app": st.sampled_from(["wish", "doordash"])})
)
# dyadic values: sums of up to ~100 of these are exactly representable,
# so merge-order float associativity holds bit-for-bit (the merge is
# plain addition — the property under test is the fold structure, not
# IEEE-754 rounding)
_DYADIC = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), _NAMES, st.integers(1, 100), _LABELS),
        st.tuples(st.just("gauge"), st.just("depth"), st.floats(0, 1e6), _LABELS),
        st.tuples(st.just("observe"), st.just("stage_seconds"), _DYADIC, _LABELS),
        st.tuples(st.just("timing"), st.just("proxy.learn"), _DYADIC, st.none()),
    ),
    max_size=30,
)


def _registry_from(ops) -> MetricRegistry:
    registry = MetricRegistry()
    for op, name, value, labels in ops:
        if op == "inc":
            registry.inc(name, value, labels=labels)
        elif op == "gauge":
            registry.set_gauge(name, value, labels=labels)
        elif op == "observe":
            registry.observe(name, value, labels=labels)
        else:
            registry.timings[name] = registry.timings.get(name, 0.0) + value
    return registry


def _merged(*snapshots) -> dict:
    target = MetricRegistry()
    for snapshot in snapshots:
        target.merge(snapshot)
    return target.snapshot()


@settings(max_examples=50, deadline=None)
@given(_OPS, _OPS)
def test_merge_commutative(ops_a, ops_b):
    a = _registry_from(ops_a).snapshot()
    b = _registry_from(ops_b).snapshot()
    assert _merged(a, b) == _merged(b, a)


@settings(max_examples=50, deadline=None)
@given(_OPS, _OPS, _OPS)
def test_merge_associative(ops_a, ops_b, ops_c):
    a = _registry_from(ops_a).snapshot()
    b = _registry_from(ops_b).snapshot()
    c = _registry_from(ops_c).snapshot()
    ab_then_c = _merged(_merged(a, b), c)
    a_then_bc = _merged(a, _merged(b, c))
    assert ab_then_c == a_then_bc


@settings(max_examples=50, deadline=None)
@given(_OPS)
def test_merge_into_empty_is_identity(ops):
    snapshot = _registry_from(ops).snapshot()
    assert _merged(snapshot) == snapshot


def test_counters_add_and_peaks_keep_max():
    a = MetricRegistry()
    a.inc("requests", 7)
    a.inc("queue_depth_peak", 10)
    b = MetricRegistry()
    b.inc("requests", 5)
    b.inc("queue_depth_peak", 3)
    a.merge(b.snapshot())
    assert a.counters["requests"] == 12
    assert a.counters["queue_depth_peak"] == 10  # max, not 13


def test_gauges_keep_max():
    a = MetricRegistry()
    a.set_gauge("depth", 4.0)
    b = MetricRegistry()
    b.set_gauge("depth", 9.0)
    b.set_gauge("other", 1.0)
    a.merge(b.snapshot())
    assert a.gauges["depth"] == 9.0
    assert a.gauges["other"] == 1.0


def test_mismatched_histogram_bounds_raise():
    a = MetricRegistry()
    a.observe("stage_seconds", 0.5)
    b = MetricRegistry()
    b.observe("stage_seconds", 0.5, bounds=(0.1, 1.0, 10.0))
    with pytest.raises(ValueError) as excinfo:
        a.merge(b.snapshot())
    # diagnosing a pool fold-back failure needs the series name and
    # BOTH bucket layouts in the message, not just "bounds differ"
    message = str(excinfo.value)
    assert "stage_seconds" in message
    assert "(0.1, 1.0, 10.0)" in message
    assert str(DEFAULT_BUCKETS[:3])[:-1] in message


def test_histogram_merge_preserves_counts_and_sum():
    a = MetricRegistry()
    b = MetricRegistry()
    for value in (0.001, 0.01, 0.1):
        a.observe("stage_seconds", value, labels={"stage": "learn"})
    for value in (0.002, 0.02):
        b.observe("stage_seconds", value, labels={"stage": "learn"})
    a.merge(b.snapshot())
    histogram = a.histogram("stage_seconds", labels={"stage": "learn"})
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(0.133)


def test_overflow_series_survive_merge():
    # a source registry past its cardinality guard folds the excess
    # into {overflow="true"}; merging must keep that series intact and
    # add the overflow counts, not spawn new per-label series
    source = MetricRegistry(max_series_per_metric=2)
    for index in range(6):
        source.inc("hits", labels={"user": "u{}".format(index)})
    overflow_key = series_key("hits", {"overflow": "true"})
    assert source.counters[overflow_key] == 4
    assert source.overflow_series == 4

    target = MetricRegistry(max_series_per_metric=2)
    target.merge(source.snapshot())
    target.merge(source.snapshot())
    assert target.counters[overflow_key] == 8
    assert target.overflow_series == 8


def test_merge_respects_target_cardinality_guard():
    # folding a high-cardinality worker into a tight supervisor registry
    # must route the excess through the guard, never blow past it
    source = MetricRegistry()
    for index in range(8):
        source.inc("hits", labels={"user": "u{}".format(index)})
    target = MetricRegistry(max_series_per_metric=3)
    target.merge(source.snapshot())
    per_label = [
        key
        for key in target.counters
        if key.startswith("hits{") and "overflow" not in key
    ]
    assert len(per_label) <= 3
    assert target.counters.get(series_key("hits", {"overflow": "true"}), 0) >= 5


def test_timings_add():
    a = MetricRegistry()
    a.timings["proxy.learn"] = 1.5
    b = MetricRegistry()
    b.timings["proxy.learn"] = 0.5
    b.timings["proxy.dispatch"] = 0.25
    a.merge(b.snapshot())
    assert a.timings["proxy.learn"] == pytest.approx(2.0)
    assert a.timings["proxy.dispatch"] == pytest.approx(0.25)


def test_default_buckets_round_trip():
    a = MetricRegistry()
    a.observe("stage_seconds", 0.004)
    snapshot = a.snapshot()
    bounds = snapshot["histograms"]["stage_seconds"]["bounds"]
    assert tuple(bounds) == DEFAULT_BUCKETS


# ----------------------------------------------------------------------
# Prometheus exposition: label escaping + atomic dump
# ----------------------------------------------------------------------
def test_prometheus_escapes_label_values():
    registry = MetricRegistry()
    registry.inc("requests", labels={"app": 'quo"te\\slash\nline'})
    text = registry.render_prometheus()
    # exposition format: backslash, double-quote, and newline must be
    # escaped inside quoted label values
    assert 'app="quo\\"te\\\\slash\\nline"' in text
    # the raw newline must never reach the output (it would split the
    # sample line and corrupt the whole scrape)
    assert not any(line.startswith("line") for line in text.splitlines())


def test_prometheus_escapes_histogram_labels_too():
    registry = MetricRegistry()
    registry.observe(
        "stage_seconds", 0.01, labels={"stage": 'le"arn'}
    )
    text = registry.render_prometheus()
    assert 'stage="le\\"arn"' in text
    assert 'le="' in text  # bucket labels still render


def test_dump_prometheus_is_atomic_and_round_trips(tmp_path):
    registry = MetricRegistry()
    registry.inc("requests", 3)
    path = tmp_path / "metrics.prom"
    text = registry.dump_prometheus(str(path))
    assert path.read_text() == text
    assert "repro_requests_total 3" in text
    # no temp droppings left behind (mkstemp + rename)
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.prom"]


def test_dump_prometheus_file_mode_follows_the_umask(tmp_path):
    registry = MetricRegistry()
    registry.inc("requests", 1)
    path = tmp_path / "metrics.prom"
    registry.dump_prometheus(str(path))
    umask = os.umask(0)
    os.umask(umask)
    # what a plain open(path, "w") gives, not the temp file's 0600
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_dump_prometheus_overwrites_previous_dump(tmp_path):
    registry = MetricRegistry()
    registry.inc("requests", 1)
    path = tmp_path / "metrics.prom"
    registry.dump_prometheus(str(path))
    registry.inc("requests", 1)
    registry.dump_prometheus(str(path))
    assert "repro_requests_total 2" in path.read_text()
