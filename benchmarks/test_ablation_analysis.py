"""Ablation: the §4.1 analysis extensions.

The paper motivates three extensions over stock Extractocol — Intent
support, RxAndroid semantics, and precise alias/heap analysis.  This
bench re-analyzes every app with each extension disabled and reports
how many dependencies (prefetch opportunities) each one contributes.
"""

from conftest import banner, run_once

from repro.analysis.pipeline import AnalysisOptions, analyze_apk
from repro.apps import all_apps

ABLATIONS = [
    ("full", AnalysisOptions()),
    ("no intents", AnalysisOptions(intent_support=False)),
    ("no rx", AnalysisOptions(rx_support=False)),
    ("no alias/heap", AnalysisOptions(precise_heap=False)),
]


def run_ablations():
    table = {}
    for name, spec in all_apps().items():
        apk = spec.build_apk()
        table[spec.label] = {
            label: analyze_apk(apk, options).summary()
            for label, options in ABLATIONS
        }
    return table


def test_ablation_analysis_extensions(benchmark):
    table = run_once(benchmark, run_ablations)
    banner("Ablation — §4.1 analyzer extensions (dependencies found)")
    print(
        "{:<14} {:>6} {:>12} {:>8} {:>15}".format(
            "App", "full", "no intents", "no rx", "no alias/heap"
        )
    )
    for app, results in table.items():
        print(
            "{:<14} {:>6} {:>12} {:>8} {:>15}".format(
                app,
                results["full"]["dependencies"],
                results["no intents"]["dependencies"],
                results["no rx"]["dependencies"],
                results["no alias/heap"]["dependencies"],
            )
        )
        full = results["full"]["dependencies"]
        assert results["no intents"]["dependencies"] < full
        # rx and alias matter wherever the app uses those constructs
        assert results["no rx"]["dependencies"] <= full
        assert results["no alias/heap"]["dependencies"] <= full
    # the shopping apps route their detail request through Rx + aliases
    assert table["Wish"]["no rx"]["dependencies"] < table["Wish"]["full"]["dependencies"]
    assert (
        table["Wish"]["no alias/heap"]["dependencies"]
        < table["Wish"]["full"]["dependencies"]
    )
