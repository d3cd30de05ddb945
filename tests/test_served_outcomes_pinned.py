"""Served outcomes of small benchmark-shaped cells, pinned exactly.

A change to how the simulator orders its work (which calls are
processes, which are delegated with ``yield from``, what resumes in
place) must not move a single served outcome.  Ties in sim time are
where such a change would show, so each cell below is shaped like one
of the benchmark's workloads (``perfbench/workloads.py``), only
smaller, and is pinned at two seeds: hits, forwards, issued
prefetches, origin bytes, and the full list of client latencies
(its length and a digest of every float's exact bits).

The values were recorded with the scheduler that spawned a process
for every call on the request path (six per demand request).
"""

import hashlib
import json
import os

import pytest

from repro.experiments.scale import run_scale

ALL_APPS = ("wish", "geek", "doordash", "purple_ocean", "postmates")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _slo_config():
    with open(os.path.join(ROOT, "benchmarks", "slo.json")) as handle:
        return json.load(handle)


CELLS = {
    # five apps, warmed users, admission, expiration estimator, SLO plane
    "warm-5app": lambda: dict(
        users=30, duration=10.0, rate_per_user=1.0, warm_start=True,
        admission_threshold=0.2, estimate_expiration=True, slo_config=_slo_config(),
    ),
    # many cold users seen about once: prefetch storm under a per-user bound
    "cold-storm": lambda: dict(
        users=300, duration=1.0, rate_per_user=0.5, max_entries_per_user=32,
    ),
    # no prefetching: the demand path alone
    "passthrough": lambda: dict(
        users=60, duration=10.0, rate_per_user=1.0, strategy="none", warm_start=True,
    ),
}

#: (cell, seed) -> (hits, forwards, issued, origin bytes, latencies, digest)
PINNED = {
    ("warm-5app", 0): (227, 56, 1933, 110119316, 283, "262cd83776e23b63"),
    ("warm-5app", 5): (235, 60, 1703, 108554322, 295, "eb6f77487d958fa4"),
    ("cold-storm", 0): (1, 152, 413, 28488882, 153, "7d4140c550dd77e3"),
    ("cold-storm", 5): (0, 142, 300, 24362148, 142, "fecde644ae382872"),
    ("passthrough", 0): (0, 603, 0, 32114629, 603, "7f6ca91d24ce8b95"),
    ("passthrough", 5): (0, 592, 0, 35539947, 592, "a90f7fa70cfdb011"),
}


def latency_digest(latencies):
    """Digest of the exact bits of every latency, in serving order."""
    joined = ",".join(value.hex() for value in latencies)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


@pytest.mark.parametrize("cell, seed", sorted(PINNED))
def test_served_outcomes_match_their_pin(cell, seed):
    row = run_scale(apps=ALL_APPS, seed=seed, collect_latencies=True, **CELLS[cell]())
    latencies = row["latencies_s"]
    outcome = (
        row["served_prefetched"],
        row["forwarded"],
        row["prefetch_issued"],
        row["origin_bytes"],
        len(latencies),
        latency_digest(latencies),
    )
    assert outcome == PINNED[(cell, seed)]
