"""Determinism rules: no wall clocks, no entropy, provable seeds.

Replay in the sim/proxy/experiments tree must be byte-equivalent —
the benchmark asserts that a seed's servings repeat exactly, and the
parallel engine asserts pool output equals the serial oracle.  Both
proofs evaporate the moment a wall clock or an OS
entropy source leaks into a replay path, so these rules ban them at
the source level:

``det-wall-clock``
    ``time.time``/``time.sleep``/``datetime.now``-family calls.
    ``time.perf_counter`` is deliberately **allowed**: it measures
    host cost (stage timings, scale-cell wall time) and never feeds
    simulated state.
``det-entropy``
    ``uuid.uuid1``/``uuid4``, ``os.urandom``, ``secrets.*``,
    ``random.SystemRandom`` — irreproducible by construction.
``det-global-random``
    calls through the module-level ``random.*`` API, whose hidden
    global stream couples every call site; sim paths must thread an
    explicit ``random.Random`` instance instead.
``det-seed-provenance``
    every ``random.Random(...)`` seed must derive from a parameter or
    config (see :mod:`repro.qa.provenance`) — a literal pins a stream
    sweeps silently share; a clock or missing seed kills replay.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.qa import provenance
from repro.qa.core import Finding, ModuleContext, Rule, register
from repro.qa.profiles import SIM

#: banned wall-clock calls (perf_counter intentionally absent)
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.sleep",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: banned entropy sources
ENTROPY_CALLS = frozenset({
    "uuid.uuid1",
    "uuid.uuid4",
    "os.urandom",
    "random.SystemRandom",
})
ENTROPY_PREFIXES = ("secrets.",)

#: everything that disqualifies a *seed expression* outright
CLOCKLIKE_CALLS = WALL_CLOCK_CALLS | ENTROPY_CALLS


@register
class WallClockRule(Rule):
    rule_id = "det-wall-clock"
    description = (
        "wall-clock call in a deterministic-replay path "
        "(time.perf_counter is allowed for host-cost measurement)"
    )
    profiles = frozenset({SIM})
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> Iterable[Finding]:
        dotted = ctx.resolve_dotted(node.func)
        if dotted in WALL_CLOCK_CALLS:
            yield Finding(
                self.rule_id, ctx.relpath, node.lineno, node.col_offset,
                "{}() reads the wall clock; sim/replay paths must use the "
                "simulator clock or time.perf_counter (host-cost only)".format(dotted),
            )


@register
class EntropyRule(Rule):
    rule_id = "det-entropy"
    description = "OS entropy source in a deterministic-replay path"
    profiles = frozenset({SIM})
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> Iterable[Finding]:
        dotted = ctx.resolve_dotted(node.func)
        if dotted is None:
            return
        if dotted in ENTROPY_CALLS or dotted.startswith(ENTROPY_PREFIXES):
            yield Finding(
                self.rule_id, ctx.relpath, node.lineno, node.col_offset,
                "{}() draws OS entropy and can never replay; derive ids/"
                "values from seeded state instead".format(dotted),
            )


@register
class GlobalRandomRule(Rule):
    rule_id = "det-global-random"
    description = "module-level random.* call (hidden shared stream)"
    profiles = frozenset({SIM})
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> Iterable[Finding]:
        dotted = ctx.resolve_dotted(node.func)
        if dotted is None or not dotted.startswith("random."):
            return
        tail = dotted[len("random."):]
        if tail in ("Random", "SystemRandom") or "." in tail:
            return  # constructors handled by det-seed-provenance / det-entropy
        yield Finding(
            self.rule_id, ctx.relpath, node.lineno, node.col_offset,
            "random.{}() uses the interpreter-global stream, coupling every "
            "call site; thread an explicit seeded random.Random".format(tail),
        )


@register
class SeedProvenanceRule(Rule):
    rule_id = "det-seed-provenance"
    description = (
        "random.Random(...) seed must derive from a parameter/config, "
        "not a literal or clock (intra-function def-use walk)"
    )
    profiles = frozenset({SIM})
    # whole-module pass: needs enclosing-function environments
    node_types = ()

    def end_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        env_cache = {}
        module_env = provenance.FunctionEnv.for_module(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve_dotted(node.func) != "random.Random":
                continue
            function = ctx.enclosing_function(node)
            if function is None:
                env = module_env
            else:
                env = env_cache.get(function)
                if env is None:
                    env = provenance.FunctionEnv.for_function(function)
                    env_cache[function] = env
            seed = node.args[0] if node.args else None
            verdict = provenance.classify_seed(
                seed, env, ctx, CLOCKLIKE_CALLS, ENTROPY_PREFIXES,
            )
            if verdict == provenance.UNSEEDED:
                findings.append(Finding(
                    self.rule_id, ctx.relpath, node.lineno, node.col_offset,
                    "random.Random() without a seed falls back to OS entropy; "
                    "pass a seed derived from a parameter or config",
                ))
            elif verdict == provenance.LITERAL:
                findings.append(Finding(
                    self.rule_id, ctx.relpath, node.lineno, node.col_offset,
                    "random.Random seed is a compile-time literal — the "
                    "stream is pinned in source and invisible to sweeps; "
                    "derive it from a parameter or config",
                ))
            elif verdict == provenance.CLOCK:
                findings.append(Finding(
                    self.rule_id, ctx.relpath, node.lineno, node.col_offset,
                    "random.Random seed derives from a wall clock or entropy "
                    "source, which destroys replay; seed from a parameter "
                    "or config",
                ))
        return findings
