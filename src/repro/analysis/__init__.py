"""Static program analysis (the Extractocol++ of the paper, §4.1).

Pipeline (see :func:`repro.analysis.pipeline.analyze_apk`):

1. **Network-aware taint analysis** — :mod:`repro.analysis.interp`:
   sink-driven abstract interpretation of every entry point forward to
   the ``Http.execute`` sites over the symbolic value domain
   (:mod:`repro.analysis.absval`).  Values carry their origin (constant,
   run-time wildcard, response field), so request templates and
   response access paths come out of one pass: heap objects are shared
   by reference (aliased stores resolve), run-time branch conditions
   fork to enumerate body variants (Fig. 8), and values flow through
   Intents (the Intent map) and RxAndroid operators.
2. **Signature building** — :mod:`repro.analysis.signatures`: merges
   each site's snapshots into one transaction signature.
3. **Dependency analysis** — :mod:`repro.analysis.dependency`: turns
   response-derived atoms inside request templates into
   inter-transaction dependency edges, computes chains and fan-out.
"""

from repro.analysis.model import (
    AnalysisResult,
    ConstAtom,
    DepAtom,
    DependencyEdge,
    RequestTemplate,
    ResponseTemplate,
    TransactionSignature,
    UnknownAtom,
    ValueTemplate,
)
from repro.analysis.pipeline import AnalysisOptions, analyze_apk
from repro.analysis.report import render_report, render_signature
from repro.analysis.serialize import dumps as dump_signatures
from repro.analysis.serialize import loads as load_signatures

__all__ = [
    "dump_signatures",
    "load_signatures",
    "render_report",
    "render_signature",
    "AnalysisOptions",
    "AnalysisResult",
    "ConstAtom",
    "DepAtom",
    "DependencyEdge",
    "RequestTemplate",
    "ResponseTemplate",
    "TransactionSignature",
    "UnknownAtom",
    "ValueTemplate",
    "analyze_apk",
]
