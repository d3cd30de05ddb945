"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper and
prints measured rows next to the values the paper reports.  Absolute
numbers are not expected to match (our substrate is a simulator, not
the authors' testbed); the *shape* — who wins, by roughly what factor,
where the knobs move results — is asserted in the test suite and made
eyeballable here.

The perf benchmarks write their trajectories (``BENCH_*.json``,
``bench_tables.txt``) into a temporary directory, so a run leaves the
checkout as it was; ``--bench-out DIR`` names another directory (CI
passes ``--bench-out .`` to upload them).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import pytest


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--bench-out", default=None, metavar="DIR",
        help="directory for BENCH_*.json and bench_tables.txt "
             "(default: a temporary directory)",
    )


@pytest.fixture(scope="session")
def bench_out(request, tmp_path_factory) -> Path:
    """Where the perf benchmarks write their trajectory artifacts."""
    chosen = request.config.getoption("--bench-out")
    if chosen is None:
        return tmp_path_factory.mktemp("bench-out")
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
