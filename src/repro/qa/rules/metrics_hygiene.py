"""Metrics/trace hygiene: every observable name must be declared.

The registry, the PERF facade and the tracer address series by
*string name*; a typo'd name doesn't crash, it silently forks a series
nothing ever reads.  These rules statically extract the name at every
``PERF``/``REGISTRY``/tracer call site and check it against
:mod:`repro.metrics.catalog`:

``met-undeclared-name``
    a metric/stage/span/kind string not declared in the catalog
    (typos land here).
``met-dynamic-name``
    a name built at runtime that the linter cannot resolve — unless
    it is a parameter of the enclosing function (the facade-forwarding
    pattern: the *caller's* literal is checked at the caller's site)
    or a declared dynamic prefix (``"cache.miss." + cause``).
``met-undeclared-label``
    a label key outside the metric's declared label set.
``met-unbounded-label``
    a label value built by f-string/``format``/concatenation — the
    classic cardinality leak (per-request ids as labels).

Sink detection is by receiver-name heuristics (``PERF.incr``,
``*.registry.inc``, ``trace.start_span``, ``TRACER.begin``,
``*.windows.inc``/``observe`` for the live rolling-window plane), so
renaming a local ``registry`` to ``r`` opts a call site out — the
meta-test pins the heuristics against the real tree to keep that
honest.  (The live plane also refuses undeclared names at runtime —
:meth:`LiveWindows.inc` raises ``KeyError`` — so the static check is
the early warning, not the only fence.)
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.metrics import catalog
from repro.qa.core import Finding, ModuleContext, Rule, register
from repro.qa.profiles import CORE, SIM

#: resolution outcomes of a name expression
_STR = "str"          # fully resolved literal
_PREFIX = "prefix"    # literal head + dynamic tail ("cache.miss." + x)
_PARAM = "param"      # enclosing-function parameter (facade forwarding)
_DYNAMIC = "dynamic"  # unresolvable

_CATALOG_MODULE = "repro.metrics.catalog"


def _last_segment(dotted: Optional[str]) -> str:
    if not dotted:
        return ""
    return dotted.rsplit(".", 1)[-1].lower()


def _function_params(ctx: ModuleContext, node: ast.AST) -> frozenset:
    function = ctx.enclosing_function(node)
    if function is None:
        return frozenset()
    names = set()
    arguments = function.args
    for group in (arguments.posonlyargs, arguments.args, arguments.kwonlyargs):
        names.update(arg.arg for arg in group)
    if arguments.vararg is not None:
        names.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.add(arguments.kwarg.arg)
    return frozenset(names)


def _catalog_value(dotted: str) -> Optional[str]:
    """``repro.metrics.catalog.NAME`` -> its actual string value."""
    if not dotted.startswith(_CATALOG_MODULE + "."):
        return None
    attr = dotted[len(_CATALOG_MODULE) + 1:]
    value = getattr(catalog, attr, None)
    return value if isinstance(value, str) else None


def resolve_static_string(
    node: ast.expr, ctx: ModuleContext, at: ast.AST,
    _depth: int = 0,
) -> Tuple[str, Optional[str]]:
    """Resolve a name expression to (kind, value) — see module doc."""
    if _depth > 8:
        return (_DYNAMIC, None)
    if isinstance(node, ast.Constant):
        return (_STR, node.value) if isinstance(node.value, str) else (_DYNAMIC, None)
    if isinstance(node, ast.Name):
        if node.id in _function_params(ctx, at):
            return (_PARAM, None)
        dotted = ctx.resolve_dotted(node)
        if dotted is not None:
            value = _catalog_value(dotted)
            if value is not None:
                return (_STR, value)
        if node.id in ctx.module_assigns:
            return resolve_static_string(
                ctx.module_assigns[node.id], ctx, at, _depth + 1)
        return (_DYNAMIC, None)
    if isinstance(node, ast.Attribute):
        dotted = ctx.resolve_dotted(node)
        if dotted is not None:
            value = _catalog_value(dotted)
            if value is not None:
                return (_STR, value)
        return (_DYNAMIC, None)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left_kind, left = resolve_static_string(node.left, ctx, at, _depth + 1)
        if left_kind != _STR:
            return (_DYNAMIC, None)
        right_kind, right = resolve_static_string(node.right, ctx, at, _depth + 1)
        if right_kind == _STR:
            return (_STR, left + right)
        return (_PREFIX, left)
    if isinstance(node, ast.JoinedStr):
        head = ""
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                head += value.value
            else:
                return (_PREFIX, head) if head else (_DYNAMIC, None)
        return (_STR, head)
    return (_DYNAMIC, None)


def _kwarg(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _resolve_labels_dict(node: ast.expr, ctx: ModuleContext,
                         at: ast.AST) -> Optional[ast.Dict]:
    """The label expression as a dict literal, chasing one local assign."""
    if isinstance(node, ast.Dict):
        return node
    if isinstance(node, ast.Name):
        function = ctx.enclosing_function(at)
        scope = ast.walk(function) if function is not None else iter(ctx.tree.body)
        found: Optional[ast.Dict] = None
        for stmt in scope:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and stmt.targets[0].id == node.id \
                    and isinstance(stmt.value, ast.Dict):
                found = stmt.value
        return found
    return None


def _value_is_unbounded(value: ast.expr) -> bool:
    """Does this label value bake per-request data into the series key?"""
    if isinstance(value, ast.JoinedStr):
        return any(isinstance(part, ast.FormattedValue) for part in value.values)
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr == "format":
            return True
        if isinstance(func, ast.Name) and func.id in ("str", "repr"):
            return True
    if isinstance(value, ast.BinOp):
        return True  # "u" + user / "%s" % x — concatenated identity
    return False


@register
class MetricsHygieneRule(Rule):
    emits = (
        "met-undeclared-name",
        "met-dynamic-name",
        "met-undeclared-label",
        "met-unbounded-label",
    )
    description = (
        "metric/span/label names at PERF/registry/tracer call sites must "
        "match repro.metrics.catalog; label cardinality must be bounded"
    )
    profiles = frozenset({SIM, CORE})
    node_types = (ast.Call,)

    # -- dispatch -------------------------------------------------------
    def visit(self, node: ast.Call, ctx: ModuleContext) -> Iterable[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return ()
        receiver = _last_segment(ctx.resolve_dotted(func.value))
        receiver_dotted = (ctx.resolve_dotted(func.value) or "").lower()
        attr = func.attr
        if attr in ("incr", "peak", "get") and receiver == "perf":
            return self._check_counter(node, ctx)
        if attr == "stage" and receiver == "perf":
            return self._check_vocab(
                node, ctx, catalog.PERF_STAGES, "PERF.stage name")
        if attr in ("inc", "observe", "set_gauge") and "registry" in receiver_dotted:
            return self._check_registry(node, ctx)
        if attr in ("inc", "observe") and (
                "windows" in receiver_dotted or receiver == "windows"):
            return self._check_window(node, ctx)
        if attr in ("start_span", "span") and (
                "trace" in receiver or receiver in ("ctx", "context")):
            return self._check_vocab(
                node, ctx, catalog.SPAN_STAGES, "span stage")
        if attr == "begin" and "tracer" in receiver:
            return self._check_kind(node, ctx)
        return ()

    # -- checks ---------------------------------------------------------
    def _name_arg(self, node: ast.Call) -> Optional[ast.expr]:
        return node.args[0] if node.args else _kwarg(node, "name")

    def _check_counter(self, node: ast.Call, ctx: ModuleContext) -> List[Finding]:
        arg = self._name_arg(node)
        if arg is None:
            return []
        kind, value = resolve_static_string(arg, ctx, node)
        if kind == _PARAM:
            return []
        if kind == _STR:
            if catalog.is_declared_counter(value):
                return []
            return [Finding(
                "met-undeclared-name", ctx.relpath, node.lineno, node.col_offset,
                "counter {!r} is not declared in repro.metrics.catalog "
                "(typo, or add it to COUNTERS)".format(value),
            )]
        if kind == _PREFIX:
            if catalog.declared_prefix_of(value) == value:
                return []
            return [Finding(
                "met-dynamic-name", ctx.relpath, node.lineno, node.col_offset,
                "counter name built from undeclared prefix {!r}; declare the "
                "family in catalog.COUNTER_PREFIXES with its bounded value "
                "set".format(value),
            )]
        return [Finding(
            "met-dynamic-name", ctx.relpath, node.lineno, node.col_offset,
            "counter name is not statically resolvable; use a catalog "
            "constant (or forward a caller-checked parameter)",
        )]

    def _check_vocab(self, node: ast.Call, ctx: ModuleContext,
                     vocabulary: Tuple[str, ...], what: str) -> List[Finding]:
        arg = self._name_arg(node)
        if arg is None:
            return []
        kind, value = resolve_static_string(arg, ctx, node)
        if kind == _PARAM:
            return []
        if kind == _STR:
            if value in vocabulary:
                return []
            return [Finding(
                "met-undeclared-name", ctx.relpath, node.lineno, node.col_offset,
                "{} {!r} is not in the declared vocabulary {}".format(
                    what, value, vocabulary),
            )]
        return [Finding(
            "met-dynamic-name", ctx.relpath, node.lineno, node.col_offset,
            "{} is not statically resolvable; use a catalog constant".format(what),
        )]

    def _check_window(self, node: ast.Call, ctx: ModuleContext) -> List[Finding]:
        arg = self._name_arg(node)
        if arg is None:
            return []
        kind, value = resolve_static_string(arg, ctx, node)
        if kind == _PARAM:
            return []
        if kind == _STR:
            if catalog.is_declared_window(value):
                return []
            return [Finding(
                "met-undeclared-name", ctx.relpath, node.lineno, node.col_offset,
                "rolling-window series {!r} is not declared in "
                "repro.metrics.catalog.WINDOWS (typo, or declare it with "
                "its kind)".format(value),
            )]
        return [Finding(
            "met-dynamic-name", ctx.relpath, node.lineno, node.col_offset,
            "rolling-window series name is not statically resolvable; use "
            "a catalog constant (or forward a caller-checked parameter)",
        )]

    def _check_kind(self, node: ast.Call, ctx: ModuleContext) -> List[Finding]:
        arg = _kwarg(node, "kind")
        if arg is None:
            return []
        kind, value = resolve_static_string(arg, ctx, node)
        if kind in (_PARAM, _DYNAMIC, _PREFIX):
            # kinds flow through facades; the literal producers are checked
            return []
        if value in catalog.TRACE_KINDS:
            return []
        return [Finding(
            "met-undeclared-name", ctx.relpath, node.lineno, node.col_offset,
            "trace kind {!r} is not in catalog.TRACE_KINDS {}".format(
                value, catalog.TRACE_KINDS),
        )]

    def _check_registry(self, node: ast.Call, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        arg = self._name_arg(node)
        if arg is None:
            return findings
        kind, value = resolve_static_string(arg, ctx, node)
        metric_name: Optional[str] = None
        if kind == _STR:
            metric_name = value
            if not catalog.is_declared_name(value):
                findings.append(Finding(
                    "met-undeclared-name", ctx.relpath, node.lineno, node.col_offset,
                    "registry metric {!r} is not declared in "
                    "repro.metrics.catalog (typo, or add a MetricSpec)".format(value),
                ))
        elif kind == _PREFIX:
            if catalog.declared_prefix_of(value) != value:
                findings.append(Finding(
                    "met-dynamic-name", ctx.relpath, node.lineno, node.col_offset,
                    "registry metric name built from undeclared prefix "
                    "{!r}".format(value),
                ))
        elif kind == _DYNAMIC:
            findings.append(Finding(
                "met-dynamic-name", ctx.relpath, node.lineno, node.col_offset,
                "registry metric name is not statically resolvable; use a "
                "catalog constant (or forward a caller-checked parameter)",
            ))
        findings.extend(self._check_labels(node, ctx, metric_name))
        return findings

    def _check_labels(self, node: ast.Call, ctx: ModuleContext,
                      metric_name: Optional[str]) -> List[Finding]:
        labels_expr = _kwarg(node, "labels")
        if labels_expr is None:
            return []
        findings: List[Finding] = []
        labels = _resolve_labels_dict(labels_expr, ctx, node)
        if labels is None:
            return []
        allowed = catalog.labels_for(metric_name) if metric_name else None
        for key, value in zip(labels.keys, labels.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                if allowed is not None and key.value not in allowed:
                    findings.append(Finding(
                        "met-undeclared-label", ctx.relpath,
                        key.lineno, key.col_offset,
                        "label {!r} is not declared for metric {!r} "
                        "(allowed: {})".format(key.value, metric_name, allowed),
                    ))
            if value is not None and _value_is_unbounded(value):
                findings.append(Finding(
                    "met-unbounded-label", ctx.relpath,
                    value.lineno, value.col_offset,
                    "label value is string-built per call — an unbounded-"
                    "cardinality series key; label with a bounded dimension "
                    "and put the identity in trace tags instead",
                ))
        return findings
