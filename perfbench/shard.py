"""Serve one shard of a workload in this process; print it as one JSON line.

    python3 perfbench/shard.py --workload warm-5app --seed 3 --mode timed

``perfbench/run.py`` starts one such process per shard serving; the
modes are described in ``perfbench/measure.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.measure import MODES, serve_shard
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    args = parser.parse_args(argv)
    print(json.dumps(serve_shard(WORKLOADS[args.workload], args.seed, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
