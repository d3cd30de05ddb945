"""repro.qa — the repo's self-applied static-analysis gate.

``python -m repro lint [paths] [--strict] [--json]`` runs an AST-based
lint enforcing the invariants the rest of the system silently depends
on: deterministic replay (no wall clocks/entropy, provable PRNG seed
provenance), metric/trace name hygiene against
:mod:`repro.metrics.catalog`, and multiprocessing safety for the
pool worker entrypoints.  See DESIGN.md §14 for the rule catalog
and the suppression convention.
"""

from repro.qa.core import (
    Finding,
    LintReport,
    Rule,
    all_rules,
    lint_source,
    register,
    rule_catalog,
    run_lint,
)
from repro.qa.reporters import render_json, render_text

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "lint_source",
    "register",
    "render_json",
    "render_text",
    "rule_catalog",
    "run_lint",
]
