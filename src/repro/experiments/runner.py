"""Experiment runners: one function per table/figure of the paper.

Each function returns plain dict/list rows so benchmarks can print
them and tests can assert on the shapes the paper reports (who wins,
by roughly what factor, where the crossovers fall).

The sweeps are factored into *cell* functions — one independent
(app, mode, RTT, probability, seed) unit each, module-level and
picklable — which the serial runners below iterate in canonical
order.  :mod:`repro.experiments.parallel` fans the same cells out over
a process pool and merges in the same order, so the serial functions
double as the differential oracle for the parallel engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.dependency import dependency_chains, fan_out
from repro.analysis.model import AnalysisResult
from repro.apps.registry import all_apps, get_app
from repro.device.fuzzing import MonkeyFuzzer
from repro.device.runtime import AppRuntime, InteractionResult
from repro.device.traces import generate_user_study, replay_trace
from repro.experiments.scenario import Scenario, prepare_app
from repro.metrics.stats import cdf_points, mean, median, percentile, reduction
from repro.netsim.sim import Delay
from repro.proxy.instances import build_runtime_signatures, SignatureMatcher

THINK_TIME = 6.0


# ======================================================================
# Table 1 & Table 2 — app inventory and main-interaction RTTs
# ======================================================================
def table1_rows() -> List[Dict[str, str]]:
    return [
        {
            "app": spec.label,
            "category": spec.category,
            "main_interaction": spec.main_interaction,
        }
        for spec in all_apps().values()
    ]


def table2_rows() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for spec in all_apps().values():
        for label, rtt in spec.transactions_of_main:
            rows.append(
                {"app": spec.label, "transaction": label, "rtt_ms": round(rtt * 1000)}
            )
    return rows


# ======================================================================
# Table 3 — signatures/dependencies: APPx vs UI fuzzing vs user study
# ======================================================================
def _observed_coverage(
    analysis: AnalysisResult, runtimes: Sequence[AppRuntime]
) -> Dict[str, int]:
    """Coverage counts for traffic-derived signature identification."""
    matcher = SignatureMatcher(build_runtime_signatures(analysis))
    observed_sites = set()
    for runtime in runtimes:
        for transaction in runtime.transaction_log:
            signature = matcher.match(transaction.request)
            if signature is not None:
                observed_sites.add(signature.site)
    successors = {s.site for s in analysis.prefetchable()}
    observed_edges = [
        edge
        for edge in analysis.dependencies
        if edge.pred_site in observed_sites and edge.succ_site in observed_sites
    ]
    chains = dependency_chains(observed_edges)
    return {
        "signatures": len(observed_sites),
        "prefetchable": len(observed_sites & successors),
        "dependencies": len(observed_edges),
        "max_chain": max((len(c) for c in chains), default=0),
    }


def table3_row(
    name: str,
    fuzz_duration: float = 600.0,
    trace_participants: int = 10,
    trace_duration: float = 180.0,
    seed: int = 3,
) -> Dict[str, object]:
    """One Table 3 cell: static vs fuzzing vs user-study for one app."""
    spec = get_app(name)
    prepared = prepare_app(name)
    analysis = prepared.analysis
    static = analysis.summary()

    # automatic UI fuzzing (Monkey, 500 ms interval)
    fuzz_scenario = Scenario(prepared, proxied=False)
    fuzz_runtime = fuzz_scenario.runtime("fuzz-user")
    fuzzer = MonkeyFuzzer(fuzz_runtime, seed=seed)
    fuzz_scenario.sim.run_process(fuzzer.run(fuzz_duration))
    fuzz = _observed_coverage(analysis, [fuzz_runtime])

    # user-study traces
    trace_scenario = Scenario(prepared, proxied=False)
    traces = generate_user_study(
        prepared.apk, participants=trace_participants,
        duration=trace_duration, seed=seed,
    )
    runtimes = []

    def replay_all():
        processes = []
        for trace in traces:
            runtime = trace_scenario.runtime(trace.user)
            runtimes.append(runtime)
            processes.append(
                trace_scenario.sim.spawn(replay_trace(runtime, trace))
            )
        for process in processes:
            yield process

    trace_scenario.sim.run_process(replay_all())
    study = _observed_coverage(analysis, runtimes)

    return {
        "app": spec.label,
        "appx": static,
        "fuzzing": fuzz,
        "user_study": study,
    }


def table3_rows(
    fuzz_duration: float = 600.0,
    trace_participants: int = 10,
    trace_duration: float = 180.0,
    seed: int = 3,
    apps: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    return [
        table3_row(name, fuzz_duration, trace_participants, trace_duration, seed)
        for name in (apps if apps is not None else list(all_apps()))
    ]


# ======================================================================
# Fig. 11 / Fig. 12 — dependency case studies
# ======================================================================
def fig11_doordash_chain() -> List[str]:
    """The longest successive-dependency chain in DoorDash."""
    analysis = prepare_app("doordash").analysis
    chains = dependency_chains(analysis.dependencies)
    return max(chains, key=len) if chains else []


def fig12_wish_fanout() -> Dict[str, int]:
    """Successor fan-out per Wish predecessor (detail feeds several)."""
    analysis = prepare_app("wish").analysis
    return fan_out(analysis.dependencies)


# ======================================================================
# Fig. 13 / Fig. 14 — main interaction & launch latency, Orig vs APPx
# ======================================================================
def _run_flow(
    scenario: Scenario,
    user: str,
    include_main: bool,
    think_time: float = THINK_TIME,
) -> Tuple[InteractionResult, Optional[InteractionResult]]:
    runtime = scenario.runtime(user)
    spec = scenario.spec

    def flow():
        launch = yield scenario.sim.spawn(runtime.launch())
        main_result = None
        if include_main:
            for event, index in spec.main_flow:
                yield Delay(think_time)
                main_result = yield scenario.sim.spawn(
                    runtime.dispatch(event, index)
                )
        return launch, main_result

    return scenario.sim.run_process(flow())


def fig13_row(name: str, runs: int = 10) -> Dict[str, object]:
    """One Fig. 13 cell: main-interaction latency for one app."""
    spec = get_app(name)
    prepared = prepare_app(name)
    row: Dict[str, object] = {"app": spec.label}
    for mode in ("orig", "appx"):
        scenario = Scenario(
            prepared,
            proxied=(mode == "appx"),
            enabled_classes=spec.main_site_classes or None,
        )
        latencies, network, processing = [], [], []
        for run in range(runs):
            _, main_result = _run_flow(scenario, "user-{}".format(run), True)
            latencies.append(main_result.latency)
            network.append(main_result.network_delay)
            processing.append(main_result.processing_delay)
        row[mode] = {
            "latency": mean(latencies),
            "network": mean(network),
            "processing": mean(processing),
        }
    row["reduction"] = reduction(row["orig"]["latency"], row["appx"]["latency"])
    return row


def fig13_main_interaction(
    runs: int = 10, apps: Optional[Sequence[str]] = None
) -> List[Dict[str, object]]:
    """User-perceived latency of the main interaction, Orig vs APPx."""
    return [
        fig13_row(name, runs)
        for name in (apps if apps is not None else list(all_apps()))
    ]


def fig14_row(name: str, runs: int = 10) -> Dict[str, object]:
    """One Fig. 14 cell: app-launch latency for one app."""
    spec = get_app(name)
    prepared = prepare_app(name)
    row: Dict[str, object] = {"app": spec.label}
    for mode in ("orig", "appx"):
        scenario = Scenario(
            prepared,
            proxied=(mode == "appx"),
            enabled_classes=spec.launch_site_classes or None,
        )
        latencies, network, processing = [], [], []
        for run in range(runs):
            launch, _ = _run_flow(scenario, "user-{}".format(run), False)
            latencies.append(launch.latency)
            network.append(launch.network_delay)
            processing.append(launch.processing_delay)
            # a second launch in the same session benefits from the
            # state learned during the first; measure steady state
        row[mode] = {
            "latency": mean(latencies),
            "network": mean(network),
            "processing": mean(processing),
        }
    row["reduction"] = reduction(row["orig"]["latency"], row["appx"]["latency"])
    return row


def fig14_app_launch(
    runs: int = 10, apps: Optional[Sequence[str]] = None
) -> List[Dict[str, object]]:
    """App-launch latency, Orig vs APPx (launch sites prefetchable)."""
    return [
        fig14_row(name, runs)
        for name in (apps if apps is not None else list(all_apps()))
    ]


# ======================================================================
# user-study replay (shared by Figs. 15–17)
# ======================================================================
def user_study_run(
    app_name: str,
    proxied: bool,
    proxy_server_rtt: Optional[float] = None,
    participants: int = 10,
    duration: float = 180.0,
    seed: int = 11,
    global_probability: float = 1.0,
    max_chain_depth: int = 1,
) -> Dict[str, object]:
    """Replay the synthetic user study; returns latencies + data usage.

    ``max_chain_depth=1`` is the configured data-usage policy (C4): the
    proxy prefetches direct successors of transactions the client
    actually consumed, so speculative fan-out does not compound
    per chain hop.  Chains still complete progressively because served
    prefetched responses are themselves observed transactions.
    """
    prepared = prepare_app(app_name)
    spec = prepared.spec
    scenario = Scenario(
        prepared,
        proxied=proxied,
        origin_rtt_override=proxy_server_rtt,
        enabled_classes=spec.main_site_classes or None,
        global_probability=global_probability,
        max_chain_depth=max_chain_depth,
    )
    traces = generate_user_study(
        prepared.apk, participants=participants, duration=duration, seed=seed
    )
    all_results: List[List[InteractionResult]] = []

    def replay_all():
        processes = [
            scenario.sim.spawn(replay_trace(scenario.runtime(trace.user), trace))
            for trace in traces
        ]
        outcome = []
        for process in processes:
            outcome.append((yield process))
        return outcome

    all_results = scenario.sim.run_process(replay_all())
    main_event = spec.main_event
    main_latencies = [
        result.latency
        for results in all_results
        for result in results
        if result.event == main_event
    ]
    return {
        "app": spec.label,
        "proxied": proxied,
        "main_latencies": main_latencies,
        "all_latencies": [
            result.latency for results in all_results for result in results
        ],
        "demand_bytes": scenario.demand_bytes(),
        "server_bytes": scenario.server_bytes(),
        "proxy_stats": scenario.proxy.stats() if scenario.proxy else {},
    }


def fig15_cell(
    name: str, rtt: float, participants: int = 10, seed: int = 11
) -> Dict[str, object]:
    """One Fig. 15 cell: Orig vs APPx p90 for one (app, RTT) pair."""
    spec = get_app(name)
    orig = user_study_run(
        name, proxied=False, proxy_server_rtt=rtt,
        participants=participants, seed=seed,
    )
    appx = user_study_run(
        name, proxied=True, proxy_server_rtt=rtt,
        participants=participants, seed=seed,
    )
    orig_p90 = percentile(orig["main_latencies"], 90.0)
    appx_p90 = percentile(appx["main_latencies"], 90.0)
    return {
        "app": spec.label,
        "rtt_ms": round(rtt * 1000),
        "orig_p90": orig_p90,
        "appx_p90": appx_p90,
        "reduction": reduction(orig_p90, appx_p90),
    }


def fig15_percentile_sweep(
    rtts: Sequence[float] = (0.050, 0.100, 0.150),
    participants: int = 10,
    seed: int = 11,
    apps: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """90th-percentile main-interaction latency vs proxy↔server RTT."""
    return [
        fig15_cell(name, rtt, participants, seed)
        for name in (apps if apps is not None else list(all_apps()))
        for rtt in rtts
    ]


def fig16_cell(
    name: str, rtt: float, participants: int = 10, seed: int = 11
) -> Dict[str, object]:
    """One Fig. 16 cell: CDFs + data usage for one (app, RTT) pair."""
    spec = get_app(name)
    orig = user_study_run(
        name, proxied=False, proxy_server_rtt=rtt,
        participants=participants, seed=seed,
    )
    appx = user_study_run(
        name, proxied=True, proxy_server_rtt=rtt,
        participants=participants, seed=seed,
    )
    orig_median = median(orig["main_latencies"])
    appx_median = median(appx["main_latencies"])
    usage = (
        appx["server_bytes"] / float(orig["demand_bytes"])
        if orig["demand_bytes"]
        else 0.0
    )
    return {
        "app": spec.label,
        "rtt_ms": round(rtt * 1000),
        "orig_median": orig_median,
        "appx_median": appx_median,
        "median_reduction": reduction(orig_median, appx_median),
        "orig_cdf": cdf_points(orig["main_latencies"]),
        "appx_cdf": cdf_points(appx["main_latencies"]),
        "normalized_data_usage": usage,
    }


def fig16_cdf_and_usage(
    rtts: Sequence[float] = (0.050, 0.100, 0.150),
    participants: int = 10,
    seed: int = 11,
    apps: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Latency CDFs plus normalized data usage per app per RTT."""
    return [
        fig16_cell(name, rtt, participants, seed)
        for name in (apps if apps is not None else list(all_apps()))
        for rtt in rtts
    ]


def ablation_analysis_rows() -> List[Dict[str, object]]:
    """Dependencies found with each §4.1 analyzer extension disabled."""
    from repro.analysis.pipeline import AnalysisOptions, analyze_apk

    variants = [
        ("full", AnalysisOptions()),
        ("no_intents", AnalysisOptions(intent_support=False)),
        ("no_rx", AnalysisOptions(rx_support=False)),
        ("no_alias", AnalysisOptions(precise_heap=False)),
    ]
    rows: List[Dict[str, object]] = []
    for name, spec in all_apps().items():
        apk = spec.build_apk()
        row: Dict[str, object] = {"app": spec.label}
        for label, options in variants:
            row[label] = analyze_apk(apk, options).summary()["dependencies"]
        rows.append(row)
    return rows


def fig17_baseline(participants: int = 10, seed: int = 11) -> int:
    """Fig. 17's normalization cell: unproxied Wish demand bytes."""
    baseline = user_study_run(
        "wish", proxied=False, participants=participants, seed=seed
    )
    return baseline["demand_bytes"]


def fig17_cell(
    probability: float, participants: int = 10, seed: int = 11
) -> Dict[str, object]:
    """One Fig. 17 cell: one prefetch-probability point (un-normalized)."""
    run = user_study_run(
        "wish",
        proxied=True,
        participants=participants,
        seed=seed,
        global_probability=probability,
    )
    return {
        "probability": probability,
        "median_latency": median(run["main_latencies"]),
        "server_bytes": run["server_bytes"],
    }


def fig17_finalize(
    cells: Sequence[Dict[str, object]], baseline_bytes: int
) -> List[Dict[str, object]]:
    """Normalize per-probability cells against the baseline demand."""
    return [
        {
            "probability": cell["probability"],
            "median_latency": cell["median_latency"],
            "normalized_data_usage": (
                cell["server_bytes"] / float(baseline_bytes)
                if baseline_bytes
                else 0.0
            ),
        }
        for cell in cells
    ]


def fig17_probability_tradeoff(
    probabilities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
    participants: int = 10,
    seed: int = 11,
) -> List[Dict[str, object]]:
    """Wish: median latency vs data usage as prefetch probability varies."""
    baseline_bytes = fig17_baseline(participants, seed)
    return fig17_finalize(
        [fig17_cell(probability, participants, seed) for probability in probabilities],
        baseline_bytes,
    )
