"""Multiprocessing safety: what worker entrypoints may touch.

The parallel engine (:mod:`repro.experiments.parallel`) hands
functions to other processes.  Two failure modes have bitten real
code like this:

``mp-global-mutation``
    a function reachable from a worker entrypoint mutates module-global
    state (rebinding via ``global``, or writing through a module-level
    name such as ``os.environ[...] = ...`` or ``CACHE.update(...)``).
    Under the *fork* start method that mutation silently diverges from
    the parent; under *spawn* it never happens at all — either way the
    two sides disagree.  Worker-global setup is sometimes the point
    (a pool initializer that prepares the worker), so the escape hatch
    is an explicit suppression with a justification.
``mp-unpicklable-callable``
    a ``lambda`` or nested function handed to a pool/``Process``.
    These fail to pickle under spawn — but only at runtime, on the
    platform that defaults to spawn (macOS/Windows), long after the
    code worked under fork on Linux CI.

Entrypoints are found per module: ``target=``/``initializer=`` keyword
values on ``Process``/executor constructors, and the callable argument
of ``pool.submit/map/apply_async``.  Reachability is the transitive
closure over same-module calls (cross-module flow is out of scope for
a per-file lint; each module's own entrypoints are checked where they
live).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.qa.core import Finding, ModuleContext, Rule, register
from repro.qa.profiles import CORE, SIM

#: container-mutator method names treated as writes
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert",
    "add", "update", "setdefault",
    "pop", "popitem", "popleft", "remove", "discard", "clear",
})

#: pool-ish receiver names for submit/map/apply_async
_POOL_HINTS = ("pool", "executor")


def _root_name(node: ast.expr) -> Optional[str]:
    """The base Name of an attribute/subscript chain (``os`` in
    ``os.environ[k]``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound_names(target: ast.expr):
    """Names *bound* by an assignment target.

    ``x = ...`` binds ``x``; ``os.environ[k] = ...`` binds nothing — it
    writes *through* ``os``, which is exactly the case the rule must
    not mistake for a local.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _local_names(function: ast.AST) -> Set[str]:
    """Parameters plus every name bound inside the function."""
    names: Set[str] = set()
    arguments = function.args
    for group in (arguments.posonlyargs, arguments.args, arguments.kwonlyargs):
        names.update(arg.arg for arg in group)
    if arguments.vararg is not None:
        names.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.add(arguments.kwarg.arg)
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_bound_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(_bound_names(node.target))
        elif isinstance(node, (ast.For, ast.comprehension)):
            names.update(_bound_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            names.update(_bound_names(node.optional_vars))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


@register
class MultiprocessingSafetyRule(Rule):
    emits = ("mp-global-mutation", "mp-unpicklable-callable")
    description = (
        "no module-global mutation reachable from pool/Process worker "
        "entrypoints; no lambdas/closures handed to pools"
    )
    profiles = frozenset({SIM, CORE})
    node_types = ()  # whole-module pass

    # -- entrypoint discovery -------------------------------------------
    def _spawn_sites(self, ctx: ModuleContext):
        """Yield (callable-expr, how) for every cross-process handoff."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func_dotted = ctx.resolve_dotted(node.func) or ""
            func_tail = func_dotted.rsplit(".", 1)[-1]
            if func_tail in ("Process", "ProcessPoolExecutor", "Pool"):
                for keyword in node.keywords:
                    if keyword.arg in ("target", "initializer"):
                        yield keyword.value, "{}({}=...)".format(
                            func_tail, keyword.arg)
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("submit", "map", "apply_async"):
                receiver = (ctx.resolve_dotted(node.func.value) or "").lower()
                if any(hint in receiver for hint in _POOL_HINTS):
                    if node.args:
                        yield node.args[0], "{}.{}(...)".format(
                            receiver, node.func.attr)

    def _nested_function_names(self, ctx: ModuleContext) -> Set[str]:
        nested: Set[str] = set()
        for function in ctx.module_functions.values():
            for node in ast.walk(function):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node is not function:
                    nested.add(node.name)
        return nested

    # -- the pass -------------------------------------------------------
    def end_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        nested_names = self._nested_function_names(ctx)
        entry_names: Set[str] = set()
        for expr, how in self._spawn_sites(ctx):
            if isinstance(expr, ast.Lambda):
                findings.append(Finding(
                    "mp-unpicklable-callable", ctx.relpath,
                    expr.lineno, expr.col_offset,
                    "lambda handed to {} cannot pickle under the spawn "
                    "start method; use a module-level function".format(how),
                ))
                continue
            if isinstance(expr, ast.Name):
                name = ctx.aliases.get(expr.id, expr.id)
                if expr.id in ctx.module_functions:
                    entry_names.add(expr.id)
                elif name in ctx.module_functions:
                    entry_names.add(name)
                elif expr.id in nested_names:
                    findings.append(Finding(
                        "mp-unpicklable-callable", ctx.relpath,
                        expr.lineno, expr.col_offset,
                        "nested function {!r} handed to {} cannot pickle "
                        "under spawn; hoist it to module level".format(
                            expr.id, how),
                    ))

        # transitive closure over same-module calls
        reachable: Set[str] = set()
        worklist = sorted(entry_names)
        while worklist:
            name = worklist.pop()
            if name in reachable:
                continue
            reachable.add(name)
            function = ctx.module_functions[name]
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callee = node.func.id
                    if callee in ctx.module_functions and callee not in reachable:
                        worklist.append(callee)

        for name in sorted(reachable):
            findings.extend(self._check_function(
                name, ctx.module_functions[name], ctx))
        return findings

    def _check_function(self, name: str, function: ast.AST,
                        ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        locals_ = _local_names(function)
        declared_global: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        module_scope = set(ctx.module_assigns) | set(ctx.aliases)

        def is_module_state(root: Optional[str]) -> bool:
            if root is None:
                return False
            if root in declared_global:
                return True
            if root in locals_:
                return False
            return root in module_scope

        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        findings.append(Finding(
                            "mp-global-mutation", ctx.relpath,
                            node.lineno, node.col_offset,
                            "worker-reachable {}() rebinds module global "
                            "{!r}; under fork this diverges from the "
                            "parent, under spawn it never happens".format(
                                name, target.id),
                        ))
                    elif isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = _root_name(target)
                        if is_module_state(root):
                            findings.append(Finding(
                                "mp-global-mutation", ctx.relpath,
                                node.lineno, node.col_offset,
                                "worker-reachable {}() writes through "
                                "module-level {!r}; cross-process state "
                                "must flow through the task payload or an "
                                "initializer".format(name, root),
                            ))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATOR_METHODS:
                root = _root_name(node.func.value)
                if is_module_state(root):
                    findings.append(Finding(
                        "mp-global-mutation", ctx.relpath,
                        node.lineno, node.col_offset,
                        "worker-reachable {}() calls .{}() on module-level "
                        "{!r} — a cross-process mutation that fork hides "
                        "and spawn drops".format(name, node.func.attr, root),
                    ))
        return findings
