"""Ablations on the proxy design choices.

1. **Dynamic learning vs static-only** (the PALOMA comparison, §7): a
   proxy that cannot learn run-time values can never reconstruct
   requests whose formats are determined dynamically, so it serves
   (almost) nothing from its prefetch cache.
2. **Priority scheduling vs FIFO** (§5): under a constrained prefetch
   pipe, prioritizing slow-origin/high-hit-rate signatures serves more
   requests from cache.
"""

from conftest import banner, run_once

from repro.device.traces import generate_user_study, replay_trace
from repro.experiments.scenario import Scenario, prepare_app
from repro.proxy.learning import DynamicLearner


def run_trace_scenario(static_only=False, priority=True, max_concurrent=2,
                       participants=6):
    prepared = prepare_app("wish")
    scenario = Scenario(
        prepared,
        proxied=True,
        enabled_classes=prepared.spec.main_site_classes,
        max_chain_depth=1,
    )
    if static_only:
        learner = DynamicLearner(prepared.analysis, static_only=True)
        # the configured depth bound and policy flags, decided at spawn
        learner.spawn_gate = scenario.proxy.prefetcher.spawn_gate
        scenario.proxy.learner = learner
        scenario.proxy.prefetcher.learner = learner
    scenario.proxy.prefetcher.priority_enabled = priority
    scenario.proxy.prefetcher.max_concurrent = max_concurrent
    traces = generate_user_study(prepared.apk, participants=participants, seed=23)

    def replay_all():
        processes = [
            scenario.sim.spawn(replay_trace(scenario.runtime(t.user), t))
            for t in traces
        ]
        for process in processes:
            yield process
        return None

    scenario.sim.run_process(replay_all())
    return scenario.proxy.stats()


def run_all():
    return {
        "dynamic": run_trace_scenario(static_only=False),
        "static-only": run_trace_scenario(static_only=True),
        "priority": run_trace_scenario(priority=True, max_concurrent=2),
        "fifo": run_trace_scenario(priority=False, max_concurrent=2),
    }


def test_ablation_proxy_design(benchmark):
    stats = run_once(benchmark, run_all)
    banner("Ablation — proxy design choices (Wish, user traces)")
    print("{:<14} {:>16} {:>10}".format("variant", "served cached", "issued"))
    for name in ("dynamic", "static-only", "priority", "fifo"):
        print(
            "{:<14} {:>16} {:>10}".format(
                name, stats[name]["served_prefetched"], stats[name]["issued"]
            )
        )
    # PALOMA-style static-only proxies cannot resolve run-time values
    assert stats["static-only"]["served_prefetched"] < stats["dynamic"]["served_prefetched"]
    assert stats["dynamic"]["served_prefetched"] > 0
    # priority scheduling serves at least as much as FIFO under a
    # constrained pipe
    assert stats["priority"]["served_prefetched"] >= stats["fifo"]["served_prefetched"]
