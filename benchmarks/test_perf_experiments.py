"""Parallel experiment engine benchmark: serial vs process-pool sweep.

A fig15-style sweep (all apps x RTTs) runs serially and over a 4-job
process pool, both after every app's phases 1-2 are memoized, and the
result goes to ``BENCH_experiments.json`` in the ``--bench-out``
directory.  Rows must be byte-identical.  The wall-clock speedup is
recorded, and asserted (>= 2x) only on machines with >= 4 cores, since
a 1-core container cannot physically show it.  On *any* machine the
parallel entry point must not lose to serial by more than noise: with
one core the engine runs the cells inline.
"""

from __future__ import annotations

import json
import os
import time
import pytest

from conftest import banner

from repro.apps.registry import all_apps
from repro.experiments import parallel, scenario

ARTIFACT = "BENCH_experiments.json"

SWEEP_RTTS = (0.050, 0.100)
SWEEP_PARTICIPANTS = 4
SWEEP_JOBS = 4


@pytest.mark.bench
def test_perf_experiments(bench_out):
    result = {"cpu_count": os.cpu_count(), "jobs": SWEEP_JOBS}

    params = {"rtts": SWEEP_RTTS, "participants": SWEEP_PARTICIPANTS}
    # phases 1-2 once up front: otherwise the serial run pays them and
    # the pool, forked after it, inherits the warm memo for free
    for name in all_apps():
        scenario.prepare_app(name)
    started = time.perf_counter()
    serial_rows = parallel.SERIAL_RUNNERS["fig15"](**params)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    pooled_rows = parallel.run_figure("fig15", jobs=SWEEP_JOBS, params=dict(params))
    parallel_s = time.perf_counter() - started

    identical = json.dumps(pooled_rows, sort_keys=True) == json.dumps(
        serial_rows, sort_keys=True
    )
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    result["sweep"] = {
        "figure": "fig15",
        "cells": len(parallel.plan_cells("fig15", params)),
        "serial_wall_s": serial_s,
        "parallel_wall_s": parallel_s,
        "speedup": speedup,
        "byte_identical": identical,
    }

    banner("Parallel experiment engine: fan-out")
    print(
        "sweep: {} cells, serial {:.2f}s, {}-job pool {:.2f}s "
        "({:.2f}x, byte-identical={})".format(
            result["sweep"]["cells"], serial_s, SWEEP_JOBS, parallel_s,
            speedup, identical,
        )
    )

    # correctness is unconditional
    assert identical
    # jobs>1 is never a regression: on a one-core box the cells run
    # inline, so the parallel entry point costs at most noise over the
    # serial oracle
    assert parallel_s <= serial_s * 1.10
    # wall-clock speedup needs real cores; a 1-core container cannot show it
    if (os.cpu_count() or 1) >= SWEEP_JOBS:
        assert speedup >= 2.0

    artifact = bench_out / ARTIFACT
    artifact.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("wrote {}".format(artifact))
