"""Property + unit tests for the rolling-window live telemetry plane.

The property the whole plane rests on: a rolling window is just a
*view* over the raw event stream — at any read instant, the windowed
count/sum/percentile must equal a brute-force recomputation from the
raw events whose absolute bucket index is still inside the horizon.
Hypothesis drives arbitrary event streams (dyadic times and values, so
float sums are exact) and checks that equivalence at every window
advance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import catalog
from repro.metrics.live import (
    LiveWindows,
    RollingCounter,
    RollingHistogram,
    standard_readings,
)
from repro.metrics.registry import Histogram

# dyadic time deltas / values: every partial sum and bucket index is
# exactly representable, so "equal" means ==, not approx
_DELTAS = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 2.0])
_VALUES = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
_STREAM = st.lists(st.tuples(_DELTAS, _VALUES), min_size=1, max_size=40)

_WINDOW_S = 4.0
_NUM_BUCKETS = 8
_WIDTH = _WINDOW_S / _NUM_BUCKETS
_BOUNDS = (0.5, 1.0, 2.0, 4.0)
_HORIZONS = (None, 1.0, 2.0)


def _times(stream):
    now = 0.0
    for dt, value in stream:
        now += dt
        yield now, value


def _expected_events(events, now, horizon_s):
    """Brute force: the raw events whose bucket is inside the window."""
    head = int(now // _WIDTH)
    span = _NUM_BUCKETS
    if horizon_s is not None:
        span = min(span, max(1, int(round(horizon_s / _WIDTH))))
    return [
        (t, v) for t, v in events if head - span < int(t // _WIDTH) <= head
    ]


@settings(max_examples=60, deadline=None)
@given(_STREAM)
def test_counter_total_equals_brute_force_at_every_advance(stream):
    counter = RollingCounter(_WINDOW_S, _NUM_BUCKETS)
    events = []
    for now, value in _times(stream):
        counter.inc(now, value)
        events.append((now, value))
        # reads happen at the stream frontier: earlier instants may
        # legitimately have been pruned already
        for horizon in _HORIZONS:
            expected = sum(v for _, v in _expected_events(events, now, horizon))
            assert counter.total(now, horizon) == expected


@settings(max_examples=60, deadline=None)
@given(_STREAM)
def test_histogram_equals_brute_force_at_every_advance(stream):
    rolling = RollingHistogram(_WINDOW_S, _NUM_BUCKETS, _BOUNDS)
    events = []
    for now, value in _times(stream):
        rolling.observe(now, value)
        events.append((now, value))
        for horizon in _HORIZONS:
            live = _expected_events(events, now, horizon)
            reference = Histogram(_BOUNDS)
            for _, v in live:
                reference.observe(v)
            folded = rolling.fold(now, horizon)
            assert folded.count == reference.count
            assert folded.sum == reference.sum
            assert folded.bucket_counts == reference.bucket_counts
            for q in (50, 95, 99):
                assert rolling.percentile(now, q, horizon) == \
                    reference.percentile(q)


# ----------------------------------------------------------------------
# unit behavior
# ----------------------------------------------------------------------
def test_counter_rate_divides_by_live_span():
    counter = RollingCounter(window_s=10.0, num_buckets=20)
    counter.inc(5.0, 30.0)
    assert counter.total(5.0) == 30.0
    assert counter.rate(5.0) == pytest.approx(30.0 / 10.0)
    assert counter.rate(5.0, horizon_s=1.0) == pytest.approx(30.0 / 1.0)


def test_old_buckets_fall_out_of_the_window():
    counter = RollingCounter(window_s=2.0, num_buckets=4)
    counter.inc(0.1, 5.0)
    counter.inc(3.0, 7.0)  # > window_s past the first bucket
    assert counter.total(3.0) == 7.0


def test_undeclared_window_names_are_refused():
    windows = LiveWindows()
    with pytest.raises(KeyError, match="catalog.WINDOWS"):
        windows.inc("no.such.window", 1.0)
    with pytest.raises(KeyError, match="catalog.WINDOWS"):
        windows.observe("no.such.window", 1.0, 0.5)


def test_every_catalog_window_is_constructed():
    windows = LiveWindows()
    for name, kind in catalog.WINDOWS.items():
        if kind == "histogram":
            assert name in windows.histograms
        else:
            assert name in windows.counters


def test_standard_readings_shape_and_hit_rate():
    windows = LiveWindows()
    now = 3.0
    windows.observe(catalog.W_REQUEST, now, 0.120)
    windows.observe(catalog.W_REQUEST, now, 0.480)
    windows.inc(catalog.W_ANSWERED, now, 4)
    windows.inc(catalog.W_HITS, now, 3)
    readings = standard_readings(windows, now)
    assert readings["requests"] == 2
    assert readings["hit_rate"] == pytest.approx(0.75)
    assert readings["request_rate"] == pytest.approx(2 / windows.window_s)
    assert readings["overflow"] == 0
    assert readings["request_p50_ms"] > 0
