"""End-to-end static analysis entry point.

``analyze_apk`` is the one call the rest of the framework uses: it
validates the program, abstract-interprets every entry point forward
to the ``Http.execute`` sinks, builds signatures, and extracts
dependencies.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.dependency import extract_dependencies
from repro.analysis.interp import AbstractInterpreter, AnalysisOptions
from repro.analysis.model import AnalysisResult
from repro.analysis.signatures import build_signatures
from repro.apk.program import ApkFile
from repro.apk.validate import validate_apk


def analyze_apk(apk: ApkFile, options: Optional[AnalysisOptions] = None) -> AnalysisResult:
    """Analyze an app binary; returns signatures + dependencies.

    This is phase 1 of the paper's Fig. 4 ("static program analysis":
    network-aware static taint analysis, signature building, dependency
    analysis).
    """
    validate_apk(apk)
    recorder = AbstractInterpreter(apk, options).run()
    signatures = build_signatures(recorder)
    dependencies = extract_dependencies(signatures)
    return AnalysisResult(apk.package, signatures, dependencies)
