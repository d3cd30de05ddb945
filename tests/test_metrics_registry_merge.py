"""Registry snapshot and Prometheus exposition: label escaping and an
atomic file dump that follows the umask."""

import os
import stat

from repro.metrics.registry import DEFAULT_BUCKETS, MetricRegistry


def test_default_buckets_round_trip():
    a = MetricRegistry()
    a.observe("span_wall_seconds", 0.004)
    snapshot = a.snapshot()
    bounds = snapshot["histograms"]["span_wall_seconds"]["bounds"]
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
        "span_wall_seconds", 0.01, labels={"stage": 'le"arn'}
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
