"""Benchmark entry point.

    python3 perfbench/run.py --workload warm-5app --seed 0 --seconds 30 --trace 0

runs one workload in this process and prints each metric with its
unit and family, the served-bytes and determinism checks, and as the
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` (which also gives every metric's unit);
``--trace 1`` reports its per-layer metrics from separate traced
servings.  ``--workload all`` runs every workload,
each in a fresh child process, one after the other.

The program is imported from ``src/`` of the checkout this file sits
in; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_one(args: argparse.Namespace) -> int:
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [ROOT, src]
    try:
        import repro  # the program under test
    except ImportError as error:
        print("perfbench: cannot import the program from {}: {}".format(src, error),
              file=sys.stderr)
        return 2
    if not os.path.abspath(getattr(repro, "__file__", None) or "").startswith(src + os.sep):
        print("perfbench: imported the program from {}, not from {}".format(
            repro.__file__, src), file=sys.stderr)
        return 2
    from perfbench.measure import FAMILIES, run
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    if set(result.metrics) != set(units):
        print("perfbench: the run measured {} but BENCHMARK.json names {}".format(
            sorted(result.metrics), sorted(units)), file=sys.stderr)
        return 2
    shards = result.shards
    timed = [shard for shard in shards if shard["mode"] == "timed"]
    print("workload {} seed {} trace {}: {} servings ({}), {} demand requests "
          "(latency samples) in the measured ones".format(
              workload.name, args.seed, args.trace, len(shards),
              ", ".join("{}:{}".format(shard["mode"], shard["seed"]) for shard in shards),
              sum(shard["requests"] for shard in shards
                  if shard["mode"] == ("traced" if args.trace else "timed"))))
    for name, value in result.metrics.items():
        print("  {:<42} {:>14.6g} {:<14} [{}]".format(
            name, value, units[name], FAMILIES.get(name, "layer")))
    if timed:
        requests = sum(shard["requests"] for shard in timed)
        print("uncalibrated: loop {:.6g} us per request, first build {:.6g} s (median); "
              "calibration kernel {:.6g} ms (median)".format(
                  1e6 * sum(shard["loop_raw_s"] for shard in timed) / requests,
                  statistics.median(shard["setup_raw_s"] for shard in shards),
                  1e3 * statistics.median(shard["kernel_median_s"] for shard in timed)))
    totals = result.verdict_totals()
    print("served-bytes check: {hits} hits, {forwards} forwards, {wrong_hits} wrong "
          "hits, {wrong_forwards} wrong forwards, {server_errors} 5xx".format(**totals))
    print("failures: {} of {} attempted ({} incomplete)".format(
        result.failed, result.attempted,
        sum(shard["sent"] - shard["requests"] for shard in shards)))
    if result.unattributed_keys:
        print("unattributed frames: {}".format(", ".join(result.unattributed_keys)))
    print("determinism: {}".format("; ".join(result.drift) if result.drift else "exact"))
    correct = not result.drift and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0 if not result.drift else 1


def _run_all(args: argparse.Namespace) -> int:
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
