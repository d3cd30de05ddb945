"""Path-scoped lint profiles: which contracts bind which trees.

The determinism contract is load-bearing only where replay must be
byte-equivalent — the simulator, the proxy serving pipeline, and the
experiment harnesses whose rows CI diffs (the parallel figure engine
is correct *because* pool output replays the serial run byte for
byte).  ``benchmarks/``
measures wall time on purpose, and ``tests/`` may do anything.  A
profile is resolved by longest-prefix match on the posix relpath, so a
file's obligations follow from where it lives, not from opt-in
comments.
"""

from __future__ import annotations

from typing import Tuple

#: profile names
SIM = "sim"        # deterministic-replay paths: full contract
CORE = "core"      # library code: metrics + multiprocessing hygiene
BENCH = "bench"    # benchmarks: wall clocks allowed
TEST = "test"      # tests: only framework rules
DEFAULT = "default"

#: (path prefix, profile) — longest prefix wins
PROFILE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("src/repro/netsim", SIM),
    ("src/repro/proxy", SIM),
    ("src/repro/experiments", SIM),
    ("src/repro", CORE),
    ("benchmarks", BENCH),
    ("tests", TEST),
)


def profile_for(relpath: str) -> str:
    """The lint profile of a file, by longest-prefix path match."""
    relpath = relpath.replace("\\", "/")
    best = DEFAULT
    best_length = -1
    for prefix, profile in PROFILE_PREFIXES:
        if relpath == prefix or relpath.startswith(prefix + "/"):
            if len(prefix) > best_length:
                best = profile
                best_length = len(prefix)
    return best
