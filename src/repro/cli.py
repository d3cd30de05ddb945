"""Command-line interface: ``python -m repro <command>``.

Commands::

    apps                      list the bundled app models
    analyze APP [--sig-file]  run static analysis (phase 1)
    verify APP                run testing & verification (phase 2)
    demo APP                  accelerate one session, print the speedup
    experiment NAME           run one table/figure experiment
    figs [NAME...] --jobs N   run figure sweeps over a process pool
    scale --users N...        million-user serving-core load harness
                              (--trace out.jsonl samples request traces)
    stats TRACE.jsonl         per-stage / per-cause rollup of a trace
    lint [PATHS...]           AST static-analysis gate (determinism,
                              metrics hygiene, multiprocessing safety)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import analyze_apk
from repro.analysis.serialize import dumps as dump_signatures
from repro.apps import all_apps, get_app


def _command_apps(args) -> int:
    print("{:<14} {:<16} {}".format("name", "category", "main interaction"))
    for name, spec in all_apps().items():
        print("{:<14} {:<16} {}".format(name, spec.category, spec.main_interaction))
    return 0


def _command_analyze(args) -> int:
    spec = get_app(args.app)
    apk = spec.build_apk()
    result = analyze_apk(apk)
    if args.report:
        from repro.analysis.report import render_report

        print(render_report(result))
        return 0
    if args.sig_file:
        with open(args.sig_file, "w") as handle:
            handle.write(dump_signatures(result))
        print("wrote {} signatures to {}".format(len(result.signatures), args.sig_file))
        return 0
    summary = result.summary()
    print("{} — {} IR instructions".format(spec.label, apk.instruction_count()))
    print(
        "signatures: {signatures}  prefetchable: {prefetchable}  "
        "dependencies: {dependencies}  max chain: {max_chain}".format(**summary)
    )
    for signature in result.signatures:
        marker = "*" if signature.is_successor() else " "
        flags = " [side-effect]" if signature.side_effect else ""
        print(
            " {} {:<40} {} {}{}".format(
                marker,
                signature.site,
                signature.request.method,
                signature.request.uri.regex(),
                flags,
            )
        )
    print("dependencies:")
    for edge in result.dependencies:
        print(
            "   {}:{}".format(edge.pred_site, edge.pred_path.to_string())
        )
        print("     -> {}:{}".format(edge.succ_site, edge.succ_path.to_string()))
    return 0


def _command_verify(args) -> int:
    from repro.proxy.verification import run_verification
    from repro.server.content import Catalog

    spec = get_app(args.app)
    apk = spec.build_apk()
    result = analyze_apk(apk)
    config, report = run_verification(
        apk,
        result,
        build_origin_map=lambda sim: spec.build_origin_map(sim, Catalog())[0],
        profile=spec.default_profile("verify-user"),
        fuzz_duration=args.duration,
    )
    print("fuzz interactions: {}".format(report.fuzz_interactions))
    print("prefetch successes: {}".format(sum(report.prefetch_successes.values())))
    if report.disabled:
        print("disabled signatures:")
        for site, reason in report.disabled.items():
            print("  {} ({})".format(site, reason))
    print("expiration estimates:")
    for site, expiry in sorted(report.expiry_estimates.items()):
        print("  {:<42} {:>8.0f} s".format(site, expiry))
    if args.config_file:
        with open(args.config_file, "w") as handle:
            handle.write(config.to_json())
        print("wrote configuration to {}".format(args.config_file))
    return 0


def _command_demo(args) -> int:
    from repro.device.runtime import AppRuntime
    from repro.netsim.link import Link
    from repro.netsim.sim import Delay, Simulator
    from repro.netsim.transport import DirectTransport
    from repro.proxy import AccelerationProxy, ProxiedTransport
    from repro.server.content import Catalog

    spec = get_app(args.app)
    apk = spec.build_apk()
    analysis = analyze_apk(apk)

    def session(proxied):
        sim = Simulator()
        origins, _ = spec.build_origin_map(sim, Catalog())
        access = Link(rtt=0.055, shared=True)
        proxy = None
        if proxied:
            proxy = AccelerationProxy(sim, origins, analysis)
            transport = ProxiedTransport(sim, access, proxy)
        else:
            transport = DirectTransport(sim, access, origins)
        runtime = AppRuntime(apk, transport, sim, spec.default_profile())

        def flow():
            yield sim.spawn(runtime.launch())
            yield Delay(6.0)
            result = yield sim.spawn(runtime.dispatch(*spec.main_flow[-1]))
            return result

        return sim.run_process(flow()), proxy

    original, _ = session(False)
    accelerated, proxy = session(True)
    print("{}: {}".format(spec.label, spec.main_interaction))
    print("  without proxy: {:.0f} ms".format(1000 * original.latency))
    print(
        "  with APPx:     {:.0f} ms  ({:.0f}% lower, {} served from cache)".format(
            1000 * accelerated.latency,
            100 * (1 - accelerated.latency / original.latency),
            proxy.served_prefetched,
        )
    )
    return 0


def _command_scale(args) -> int:
    from repro.experiments.scale import (
        check_settings,
        format_strategy_table,
        run_scale_sweep,
        run_strategy_comparison,
    )

    try:
        for count in args.users:
            check_settings(users=count)
        check_settings(
            duration=args.duration, rate_per_user=args.rate, trace_sample=args.trace_sample,
            max_entries_per_user=args.max_entries_per_user,
            admission_threshold=args.admission_threshold,
        )
    except ValueError as error:
        print("scale: {}".format(error), file=sys.stderr)
        return 2
    if args.slo_report and args.slo is None:
        print("scale: --slo-report requires --slo", file=sys.stderr)
        return 2
    if args.compare_strategies and (args.slo is not None or args.telemetry):
        print(
            "scale: the live telemetry plane (--slo/--telemetry) cannot be "
            "combined with --compare-strategies",
            file=sys.stderr,
        )
        return 2
    slo_config = None
    if args.slo is not None:
        from repro.metrics.slo import load_slo_config

        try:
            slo_config = load_slo_config(args.slo)
        except (OSError, ValueError) as error:
            print("scale: --slo: {}".format(error), file=sys.stderr)
            return 2
    telemetry_on = args.telemetry or slo_config is not None
    policy_kwargs = dict(
        max_entries_per_user=args.max_entries_per_user,
        admission_threshold=args.admission_threshold,
        estimate_expiration=args.estimate_expiration,
    )
    if args.compare_strategies:
        comparison = run_strategy_comparison(
            max(args.users),
            args.duration,
            apps=args.apps,
            rate_per_user=args.rate,
            seed=args.seed,
            **policy_kwargs,
        )
        print(format_strategy_table(comparison))
        if args.output:
            with open(args.output, "w") as handle:
                json.dump(comparison, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote comparison to {}".format(args.output))
        return 0
    result = run_scale_sweep(
        args.users,
        default_duration=args.duration,
        apps=args.apps,
        rate_per_user=args.rate,
        seed=args.seed,
        trace_path=args.trace,
        trace_sample=args.trace_sample,
        strategy=args.strategy,
        warm_start=args.warm_start,
        telemetry=args.telemetry,
        slo_config=slo_config,
        **policy_kwargs,
    )
    header = (
        "{:>8} {:>9} {:>9} {:>11} {:>9} {:>9} {:>9} {:>7} {:>9} {:>9}".format(
            "users", "requests", "wall_s", "us/request", "events/s",
            "p50_ms", "p99_ms", "hit", "peak_ent", "rss_mb",
        )
    )
    print(header)
    for row in result["rows"]:
        print(
            "{:>8} {:>9} {:>9.3f} {:>11.1f} {:>9.0f} {:>9.1f} {:>9.1f} "
            "{:>6.0f}% {:>9} {:>9.1f}".format(
                row["users"],
                row["requests"],
                row["wall_s"],
                row["per_request_wall_us"],
                row["sim_events_per_wall_s"],
                row["latency_p50_ms"],
                row["latency_p99_ms"],
                100 * row["hit_rate"],
                row["peak_cache_entries"],
                row["peak_rss_bytes"] / 1e6,
            )
        )
    derived = result["derived"]
    if len(set(args.users)) >= 2:
        print(
            "per-request wall cost at {} users is {:.2f}x the {}-user cost".format(
                derived["largest_users"],
                derived["per_request_cost_ratio"],
                derived["smallest_users"],
            )
        )
    if telemetry_on:
        for row in result["rows"]:
            live = row.get("live") or {}
            readings = live.get("readings") or {}
            print(
                "live[{} users]: window={:.0f}s rate={:.0f}/s p50={:.1f}ms "
                "p99={:.1f}ms hit={:.2f}% overflow={:.0f} wasted={:.0f} "
                "ticks={} alerts={}".format(
                    row["users"],
                    readings.get("window_s", 0.0),
                    readings.get("request_rate", 0.0),
                    readings.get("request_p50_ms", 0.0),
                    readings.get("request_p99_ms", 0.0),
                    100.0 * readings.get("hit_rate", 0.0),
                    readings.get("overflow", 0.0),
                    readings.get("wasted", 0.0),
                    live.get("ticks", 0),
                    live.get("alerts", 0),
                )
            )
    slo_passed = True
    if slo_config is not None:
        for row in result["rows"]:
            report = row.get("slo") or {}
            for objective in report.get("objectives", []):
                print(
                    "slo[{} users] {:<16} burn_slow={:.2f} burn_fast={:.2f} "
                    "bad/total={:.0f}/{:.0f} {}".format(
                        row["users"],
                        objective["objective"],
                        objective["burn_slow"],
                        objective["burn_fast"],
                        objective["bad"],
                        objective["total"],
                        "VIOLATED" if objective["violated"] else "ok",
                    )
                )
            if not report.get("passed", True):
                slo_passed = False
        print("slo verdict: {}".format("PASS" if slo_passed else "FAIL"))
        if args.slo_report:
            slo_report = {
                "passed": slo_passed,
                "config": args.slo,
                "cells": [
                    {
                        "users": row["users"],
                        "slo": row.get("slo"),
                        "live_readings": (row.get("live") or {}).get("readings"),
                    }
                    for row in result["rows"]
                ],
            }
            with open(args.slo_report, "w") as handle:
                json.dump(slo_report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote SLO report to {}".format(args.slo_report))
    tracing = args.trace is not None or args.trace_sample is not None
    if tracing:
        last = result["rows"][-1]
        _print_stage_table(last.get("stage_latency_us") or {})
        _print_miss_causes(last.get("miss_causes") or {})
        for row in result["rows"]:
            trace_stats = row.get("trace") or {}
            if "exported" in trace_stats:
                print(
                    "wrote {} trace record(s) to {}".format(
                        trace_stats["exported"], trace_stats["path"]
                    )
                )
    if args.prom:
        from repro.metrics.perf import PERF

        PERF.registry.dump_prometheus(args.prom)
        print("wrote Prometheus metrics to {}".format(args.prom))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote trajectory to {}".format(args.output))
    return 0 if slo_passed else 1


def _print_stage_table(stage_latency) -> None:
    """Per-stage wall time, which comes from trace spans only."""
    if not stage_latency:
        print("(no trace spans recorded)")
        return
    print(
        "{:<28} {:>9} {:>11} {:>11} {:>11}".format(
            "stage", "count", "p50_us", "p95_us", "p99_us"
        )
    )
    for stage in sorted(stage_latency):
        row = stage_latency[stage]
        print(
            "{:<28} {:>9} {:>11.1f} {:>11.1f} {:>11.1f}".format(
                stage,
                row["count"],
                row.get("p50_us", row.get("wall_us_p50", 0.0)),
                row.get("p95_us", row.get("wall_us_p95", 0.0)),
                row.get("p99_us", row.get("wall_us_p99", 0.0)),
            )
        )


def _print_miss_causes(miss_causes) -> None:
    if not miss_causes:
        print("(no cache misses recorded)")
        return
    total = sum(miss_causes.values())
    print("cache misses by cause:")
    for cause in sorted(miss_causes, key=miss_causes.get, reverse=True):
        count = miss_causes[cause]
        print(
            "  {:<20} {:>9}  ({:.1f}%)".format(cause, count, 100.0 * count / total)
        )


def _command_stats(args) -> int:
    from repro.metrics.trace import aggregate_records, read_jsonl, registry_from_records

    try:
        records = read_jsonl(args.trace, validate=True)
    except (OSError, ValueError) as error:
        print("stats: {}".format(error), file=sys.stderr)
        return 1
    summary = aggregate_records(records)
    print(
        "{} trace record(s): {}".format(
            summary["records"],
            ", ".join(
                "{} {}".format(count, kind)
                for kind, count in sorted(summary["kinds"].items())
            )
            or "none",
        )
    )
    stages = {
        stage: {
            "count": row["count"],
            "p50_us": row["wall_us_p50"],
            "p95_us": row["wall_us_p95"],
            "p99_us": row["wall_us_p99"],
        }
        for stage, row in summary["stages"].items()
    }
    _print_stage_table(stages)
    _print_miss_causes(summary["miss_causes"])
    if summary["by_signature"]:
        print("per-signature cache outcomes:")
        for signature in sorted(summary["by_signature"]):
            row = summary["by_signature"][signature]
            answered = row["hits"] + row["misses"]
            print(
                "  {:<42} {:>6} hits {:>6} misses  ({:.0f}% hit)".format(
                    signature,
                    row["hits"],
                    row["misses"],
                    100.0 * row["hits"] / answered if answered else 0.0,
                )
            )
    if summary.get("prefetch_by_signature"):
        print("per-signature prefetch efficacy:")
        print(
            "  {:<12} {:<42} {:>7} {:>7} {:>7} {:>7} {:>7}".format(
                "app", "signature", "issued", "hits", "used", "wasted", "used%"
            )
        )
        for app, cells in sorted(summary["prefetch_by_signature"].items()):
            for signature in sorted(cells):
                row = cells[signature]
                issued = row.get("issued", 0)
                print(
                    "  {:<12} {:<42} {:>7} {:>7} {:>7} {:>7} {:>6.0f}%".format(
                        app,
                        signature,
                        issued,
                        row.get("hits", 0),
                        row.get("used", 0),
                        row.get("wasted", 0),
                        100.0 * row.get("used", 0) / issued if issued else 0.0,
                    )
                )
    if args.prom:
        registry_from_records(records).dump_prometheus(args.prom)
        print("wrote Prometheus metrics to {}".format(args.prom))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote aggregate to {}".format(args.json))
    return 0


def _command_lint(args) -> int:
    from repro.qa import render_json, render_text, rule_catalog, run_lint

    if args.list_rules:
        for entry in rule_catalog():
            print(
                "{:<52} [{}]".format(
                    ",".join(entry["ids"]), ",".join(entry["profiles"])
                )
            )
            print("    {}".format(entry["description"]))
        return 0
    try:
        report = run_lint(args.paths, root=args.root, strict=args.strict)
    except FileNotFoundError as error:
        print("lint: {}".format(error), file=sys.stderr)
        return 2
    if args.json is not None:
        rendered = render_json(report)
        if args.json == "-":
            print(rendered)
        else:
            with open(args.json, "w") as handle:
                handle.write(rendered)
                handle.write("\n")
            print("wrote lint report to {}".format(args.json), file=sys.stderr)
    if args.json != "-":
        print(render_text(report))
    return report.exit_code


def _print_rows(rows) -> None:
    if isinstance(rows, dict):
        for key, value in rows.items():
            print("{}: {}".format(key, value))
    elif isinstance(rows, list) and rows and isinstance(rows[0], dict):
        for row in rows:
            print({k: v for k, v in row.items() if not k.endswith("_cdf")})
    else:
        print(rows)


def _command_figs(args) -> int:
    from repro.experiments.parallel import PARALLEL_FIGURES, run_figures

    names = args.names or list(PARALLEL_FIGURES)
    unknown = [name for name in names if name not in PARALLEL_FIGURES]
    if unknown:
        print(
            "unknown figure(s) {}; choose from {}".format(
                ", ".join(unknown), ", ".join(PARALLEL_FIGURES)
            ),
            file=sys.stderr,
        )
        return 2
    params = {
        "table3": {"fuzz_duration": 300.0, "trace_participants": 6},
        "fig13": {"runs": 5},
        "fig14": {"runs": 5},
        "fig15": {"participants": args.participants},
        "fig16": {"participants": args.participants},
        "fig17": {"participants": args.participants},
    }
    results = run_figures(names, jobs=args.jobs, params_by_figure=params)
    for name, rows in results.items():
        print("== {} ==".format(name))
        _print_rows(rows)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote rows to {}".format(args.output))
    return 0


_EXPERIMENTS = {
    "table1": ("table1_rows", {}),
    "table2": ("table2_rows", {}),
    "table3": ("table3_rows", {"fuzz_duration": 300.0, "trace_participants": 6}),
    "fig11": ("fig11_doordash_chain", {}),
    "fig12": ("fig12_wish_fanout", {}),
    "fig13": ("fig13_main_interaction", {"runs": 5}),
    "fig14": ("fig14_app_launch", {"runs": 5}),
    "fig15": ("fig15_percentile_sweep", {"participants": 6}),
    "fig16": ("fig16_cdf_and_usage", {"participants": 6}),
    "fig17": ("fig17_probability_tradeoff", {"participants": 6}),
    "ablation": ("ablation_analysis_rows", {}),
}


def _command_experiment(args) -> int:
    from repro.experiments import runner

    if args.name not in _EXPERIMENTS:
        print(
            "unknown experiment {!r}; choose from {}".format(
                args.name, ", ".join(sorted(_EXPERIMENTS))
            ),
            file=sys.stderr,
        )
        return 2
    function_name, kwargs = _EXPERIMENTS[args.name]
    rows = getattr(runner, function_name)(**kwargs)
    _print_rows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="APPx app-acceleration framework (CoNEXT 2018)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("apps", help="list the bundled app models")

    analyze = commands.add_parser("analyze", help="static analysis (phase 1)")
    analyze.add_argument("app")
    analyze.add_argument("--sig-file", help="write the signature file here")
    analyze.add_argument(
        "--report", action="store_true",
        help="print the full Fig. 5-style signature report",
    )

    verify = commands.add_parser("verify", help="testing & verification (phase 2)")
    verify.add_argument("app")
    verify.add_argument("--duration", type=float, default=60.0)
    verify.add_argument("--config-file", help="write the generated config here")

    demo = commands.add_parser("demo", help="one accelerated session")
    demo.add_argument("app")

    experiment = commands.add_parser("experiment", help="run one table/figure")
    experiment.add_argument("name", help="table1..table3, fig11..fig17")

    figs = commands.add_parser(
        "figs", help="run figure sweeps over a process pool"
    )
    figs.add_argument(
        "names", nargs="*",
        help="figures to run (default: table3 fig13..fig17)",
    )
    figs.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the scenario fan-out (default: serial)",
    )
    figs.add_argument(
        "--participants", type=int, default=6,
        help="user-study participants per cell (default: 6)",
    )
    figs.add_argument("--output", help="also write all rows to this JSON file")

    scale = commands.add_parser(
        "scale", help="serving-core load harness (open-loop Poisson users)"
    )
    scale.add_argument(
        "--users", type=int, nargs="+", default=[100, 1000],
        help="population sizes to sweep (default: 100 1000)",
    )
    scale.add_argument(
        "--duration", type=float, default=10.0,
        help="virtual seconds of workload per cell (default: 10)",
    )
    scale.add_argument(
        "--apps", nargs="+", default=["wish", "doordash"],
        help="apps served by the shared proxy (default: wish doordash)",
    )
    scale.add_argument(
        "--rate", type=float, default=0.5,
        help="requests per user per virtual second (default: 0.5)",
    )
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument(
        "--max-entries-per-user", type=int, default=None,
        help="bound each user's cache shard (LRU eviction)",
    )
    scale.add_argument(
        "--strategy", choices=["appx", "history", "none"], default="appx",
        help="prefetch strategy: appx (dependency-driven), history "
             "(most-frequent-successor baseline), none (default: appx)",
    )
    scale.add_argument(
        "--compare-strategies", action="store_true",
        help="run all three strategies on the identical workload and "
             "print the comparison table (uses the largest --users value)",
    )
    scale.add_argument(
        "--admission-threshold", type=float, default=None, metavar="PROB",
        help="stop prefetching signatures whose share of used prefetches "
             "falls below PROB (outcome-aware admission, §4.4)",
    )
    scale.add_argument(
        "--estimate-expiration", action="store_true",
        help="learn per-signature TTLs online by probing (§4.3) instead "
             "of using the configured defaults",
    )
    scale.add_argument(
        "--output", default=None,
        help="also write the sweep rows to this JSON file",
    )
    scale.add_argument(
        "--trace", default=None, metavar="JSONL",
        help="export sampled request-lifecycle traces to this JSONL file",
    )
    scale.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help="trace sampling rate in [0, 1] (arms tracing; default 1.0 "
             "when --trace is given); per-stage wall time comes from trace "
             "spans only, so the stage table needs one of the two",
    )
    scale.add_argument(
        "--prom", default=None, metavar="FILE",
        help="write a Prometheus text-format metrics dump after the sweep "
             "(atomic: tmp file + rename, so scrapers never observe a torn "
             "dump)",
    )
    scale.add_argument(
        "--warm-start", action="store_true",
        help="start every session past its first request so dependency "
             "prefetching is armed from t=0",
    )
    scale.add_argument(
        "--telemetry", action="store_true",
        help="arm the live telemetry plane: rolling-window rates and "
             "percentiles sampled every 0.5 virtual seconds",
    )
    scale.add_argument(
        "--slo", nargs="?", const="benchmarks/slo.json", default=None,
        metavar="FILE",
        help="evaluate SLO burn rates per window against FILE (default: "
             "benchmarks/slo.json); a violated objective makes the "
             "command exit 1",
    )
    scale.add_argument(
        "--slo-report", default=None, metavar="FILE",
        help="write the end-of-run SLO verdict as JSON (requires --slo)",
    )

    lint = commands.add_parser(
        "lint", help="AST static-analysis gate (see DESIGN.md §14)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="also flag unused suppressions (the CI configuration)",
    )
    lint.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="FILE",
        help="write the JSON report to FILE ('-' or bare flag: stdout)",
    )
    lint.add_argument(
        "--root", default=None,
        help="repo root for relpath/profile resolution (default: cwd)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )

    stats = commands.add_parser(
        "stats", help="per-stage / per-cause rollup of a JSONL trace export"
    )
    stats.add_argument("trace", help="trace file written by 'scale --trace'")
    stats.add_argument(
        "--prom", default=None, metavar="FILE",
        help="also write Prometheus text-format metrics rebuilt from the trace",
    )
    stats.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the aggregate summary as JSON",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "apps": _command_apps,
        "analyze": _command_analyze,
        "verify": _command_verify,
        "demo": _command_demo,
        "experiment": _command_experiment,
        "figs": _command_figs,
        "scale": _command_scale,
        "stats": _command_stats,
        "lint": _command_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
