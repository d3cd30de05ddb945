"""Seed-provenance classification: where did this PRNG seed come from?

The repo's determinism story hangs on one discipline: every
``random.Random(...)`` in a replay path is seeded from a *parameter*
(sweep cell, config, shard derivation) so the caller — and only the
caller — controls the stream.  A literal seed silently pins a stream
two sweeps will share; a clock seed destroys replay outright.

The question is the classic reaching-definitions one (which
definitions reach this use?), scaled down to what lint needs: an
intra-function walk over simple-Name assignments, classifying the seed
expression's *ingredients*:

``param``
    derives from a function parameter, an attribute/subscript read
    (``config.seed``, ``spec["seed"]``), or an imported name — the
    caller can steer it; fine.
``literal``
    every ingredient is a compile-time constant — the stream is pinned
    in source, invisible to sweeps; flagged.
``clock``
    an ingredient calls a wall clock or entropy source — replay is
    gone; flagged hardest.
``unseeded``
    no argument, or a ``None`` argument — Python falls back to OS
    entropy; flagged like ``clock``.

Precedence when ingredients mix: ``clock`` > ``param`` > ``literal``
(``seed + 1`` with ``seed`` a parameter is fine; ``42 * 2`` is not).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Optional, Set

from repro.qa.core import ModuleContext

PARAM = "param"
LITERAL = "literal"
CLOCK = "clock"
UNSEEDED = "unseeded"

#: precedence when an expression mixes ingredient classes
_RANK = {LITERAL: 0, PARAM: 1, CLOCK: 2}


class FunctionEnv:
    """One function's (or the module's) name bindings for the walk."""

    __slots__ = ("params", "assigns")

    def __init__(self, params: Set[str], assigns: Dict[str, ast.expr]) -> None:
        self.params = params
        self.assigns = assigns

    @classmethod
    def for_function(cls, function: ast.AST) -> "FunctionEnv":
        params: Set[str] = set()
        arguments = function.args
        for group in (arguments.posonlyargs, arguments.args, arguments.kwonlyargs):
            params.update(arg.arg for arg in group)
        if arguments.vararg is not None:
            params.add(arguments.vararg.arg)
        if arguments.kwarg is not None:
            params.add(arguments.kwarg.arg)
        assigns: Dict[str, ast.expr] = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                assigns[node.targets[0].id] = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                    and node.value is not None:
                assigns[node.target.id] = node.value
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                # loop variables vary per iteration -> caller-steerable
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        params.add(name.id)
        return cls(params, assigns)

    @classmethod
    def for_module(cls, ctx: ModuleContext) -> "FunctionEnv":
        return cls(set(), dict(ctx.module_assigns))


def classify_seed(
    expr: Optional[ast.expr],
    env: FunctionEnv,
    ctx: ModuleContext,
    clocklike: FrozenSet[str],
    clocklike_prefixes: tuple = (),
) -> str:
    """Classify one seed expression (see module docstring)."""
    if expr is None:
        return UNSEEDED
    if isinstance(expr, ast.Constant) and expr.value is None:
        return UNSEEDED
    return _classify(expr, env, ctx, clocklike, clocklike_prefixes, set())


def _classify(expr, env, ctx, clocklike, prefixes, visiting) -> str:
    if isinstance(expr, ast.Constant):
        return LITERAL
    if isinstance(expr, ast.Name):
        name = expr.id
        if name in env.params:
            return PARAM
        if name in visiting:  # self-referential chain: give up, allow
            return PARAM
        if name in env.assigns:
            return _classify(env.assigns[name], env, ctx, clocklike,
                             prefixes, visiting | {name})
        if name in ctx.module_assigns:
            return _classify(ctx.module_assigns[name], env, ctx, clocklike,
                             prefixes, visiting | {name})
        # imported / builtin / nonlocal: the caller (or config) owns it
        return PARAM
    if isinstance(expr, (ast.Attribute, ast.Subscript)):
        # config.seed, spec["seed"] — reads of caller-provided state
        return PARAM
    if isinstance(expr, ast.Call):
        dotted = ctx.resolve_dotted(expr.func)
        if dotted is not None:
            if dotted in clocklike or any(dotted.startswith(p) for p in prefixes):
                return CLOCK
        verdicts = [
            _classify(arg, env, ctx, clocklike, prefixes, visiting)
            for arg in expr.args
        ] or [PARAM]
        # hash("...") / _hash64(42): a pure function of literals is
        # still a pinned stream — keep the strongest ingredient
        return max(verdicts, key=_RANK.__getitem__)
    children = []
    if isinstance(expr, ast.BinOp):
        children = [expr.left, expr.right]
    elif isinstance(expr, ast.UnaryOp):
        children = [expr.operand]
    elif isinstance(expr, ast.BoolOp):
        children = list(expr.values)
    elif isinstance(expr, (ast.Tuple, ast.List)):
        children = list(expr.elts)
    elif isinstance(expr, ast.JoinedStr):
        children = [
            value.value for value in expr.values
            if isinstance(value, ast.FormattedValue)
        ]
        if not children:
            return LITERAL
    elif isinstance(expr, ast.IfExp):
        children = [expr.body, expr.orelse]
    if children:
        verdicts = [
            _classify(child, env, ctx, clocklike, prefixes, visiting)
            for child in children
        ]
        return max(verdicts, key=_RANK.__getitem__)
    # anything exotic (lambda, comprehension, await): assume steerable
    return PARAM
