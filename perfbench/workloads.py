"""The benchmark's workloads.

A workload is a fixed deployment plus an open-loop Poisson arrival
process drawn by ``repro.experiments.scale.run_scale`` in sim time.  A
run of a workload serves several independent *shards*: the same
deployment and arrival parameters under different arrival seeds, each
on a freshly built deployment.  The shard seeds follow from the run's
``--seed``; the shard count follows from ``--seconds`` through a fixed
nominal cost per shard, so the inputs depend only on the arguments,
never on how fast the host is.  README.md says why each workload is
here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

ALL_APPS = ("wish", "geek", "doordash", "purple_ocean", "postmates")
#: origin content seed; the served-bytes check rebuilds origins from it
CATALOG_SEED = 7

#: the SLO objectives the CI SLO smoke deploys (benchmarks/slo.json at
#: the time this benchmark was defined), copied so that editing the
#: program's config cannot change the benchmark's workload
SLO_CONFIG: Dict[str, object] = {
    "window_s": 10.0,
    "fast_window_s": 2.5,
    "objectives": [
        {
            "name": "latency_p99",
            "kind": "latency",
            "good_under_ms": 800,
            "target": 0.99,
            "fast_burn": 2.0,
            "slow_burn": 1.0,
            "min_events": 100,
        },
        {
            "name": "hit_rate_floor",
            "kind": "hit_rate",
            "floor": 0.001,
            "fast_burn": 1.0,
            "slow_burn": 1.0,
            "min_events": 500,
        },
        {
            "name": "overflow_rate",
            "kind": "overflow",
            "budget_ratio": 0.002,
            "fast_burn": 2.0,
            "slow_burn": 1.0,
            "min_events": 100,
        },
    ],
}


class Workload:
    """One named workload: deployment arguments plus arrival arguments."""

    def __init__(
        self,
        name: str,
        why: str,
        apps: Tuple[str, ...],
        users: int,
        duration_s: float,
        rate_per_user: float,
        strategy: str = "appx",
        warm_start: bool = False,
        max_entries_per_user: Optional[int] = None,
        admission_threshold: Optional[float] = None,
        estimate_expiration: bool = False,
        slo: bool = False,
        shard_cost_s: float = 1.0,
    ) -> None:
        self.name = name
        self.why = why
        self.apps = apps
        self.users = users
        self.duration_s = duration_s
        self.rate_per_user = rate_per_user
        self.strategy = strategy
        self.warm_start = warm_start
        self.max_entries_per_user = max_entries_per_user
        self.admission_threshold = admission_threshold
        self.estimate_expiration = estimate_expiration
        self.slo = slo
        #: nominal wall seconds of one untraced shard serving, child
        #: process included, on a 2-core host; only used to turn
        #: ``--seconds`` into a shard count
        self.shard_cost_s = shard_cost_s

    def shard_count(self, seconds: float) -> int:
        return max(2, int(round(seconds / self.shard_cost_s)))

    def shard_seeds(self, seed: int, seconds: float) -> List[int]:
        count = self.shard_count(seconds)
        return [seed * count + index for index in range(count)]

    def deployment_kwargs(self) -> Dict[str, object]:
        """Arguments of ``_ScaleDeployment``: the set-up being timed."""
        return {
            "catalog_seed": CATALOG_SEED,
            "max_entries_per_user": self.max_entries_per_user,
            "admission_threshold": self.admission_threshold,
            "strategy": self.strategy,
        }

    def run_kwargs(self) -> Dict[str, object]:
        """Arguments of ``run_scale`` besides the seed and the deployment."""
        return {
            "apps": self.apps,
            "rate_per_user": self.rate_per_user,
            "strategy": self.strategy,
            "warm_start": self.warm_start,
            "estimate_expiration": self.estimate_expiration,
            "slo_config": SLO_CONFIG if self.slo else None,
            "collect_latencies": True,
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "warm-5app",
            "paper operating point: five apps, warmed users, appx with admission, "
            "expiration estimator and SLO plane; prefetching pays off here",
            apps=ALL_APPS,
            users=50,
            duration_s=30.0,
            rate_per_user=1.0,
            warm_start=True,
            admission_threshold=0.2,
            estimate_expiration=True,
            slo=True,
            shard_cost_s=4.2,
        ),
        Workload(
            "cold-storm",
            "thousands of cold users seen about once on all five apps: prefetch "
            "storm, cache writes and LRU evictions, no cache reads",
            apps=ALL_APPS,
            users=1000,
            duration_s=1.0,
            rate_per_user=0.5,
            max_entries_per_user=32,
            shard_cost_s=3.75,
        ),
        Workload(
            "passthrough",
            "warm-5app arrivals at twice the users under strategy=none: no prefetch "
            "or cache store, so the demand path and the learn drain dominate",
            apps=ALL_APPS,
            users=100,
            duration_s=30.0,
            rate_per_user=1.0,
            strategy="none",
            warm_start=True,
            shard_cost_s=2.5,
        ),
    )
}
