"""The lint framework: rule fixtures, suppressions, reporters, self-clean.

Each rule family gets must-flag / must-pass fixture pairs, the
suppression convention is exercised end to end, the JSON reporter
schema is pinned, and the meta-test runs the real linter over the real
``src/`` tree in ``--strict`` mode — the same configuration CI gates
on — so a regression that silently un-cleans the tree fails here
first.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.qa import lint_source, render_json, render_text, run_lint
from repro.qa.core import parse_suppressions
from repro.qa.profiles import BENCH, CORE, DEFAULT, SIM, TEST, profile_for

REPO_ROOT = Path(__file__).resolve().parent.parent

#: a path that resolves to the sim profile (full determinism contract)
SIM_PATH = "src/repro/experiments/fixture.py"
#: a path that resolves to the core profile (metrics + mp only)
CORE_PATH = "src/repro/metrics/fixture.py"


def lint_snippet(source: str, relpath: str = SIM_PATH, strict: bool = False):
    findings, suppressed = lint_source(
        relpath, textwrap.dedent(source), strict=strict
    )
    return findings, suppressed


def rule_ids(source: str, relpath: str = SIM_PATH, strict: bool = False):
    findings, _ = lint_snippet(source, relpath, strict=strict)
    return [finding.rule_id for finding in findings]


# ======================================================================
# profiles
# ======================================================================
def test_profile_resolution_longest_prefix():
    assert profile_for("src/repro/netsim/sim.py") == SIM
    assert profile_for("src/repro/proxy/cache.py") == SIM
    assert profile_for("src/repro/experiments/scale.py") == SIM
    assert profile_for("src/repro/metrics/trace.py") == CORE
    assert profile_for("src/repro/cli.py") == CORE
    assert profile_for("benchmarks/test_perf.py") == BENCH
    assert profile_for("tests/test_qa_lint.py") == TEST
    assert profile_for("setup.py") == DEFAULT


# ======================================================================
# determinism rules
# ======================================================================
def test_wall_clock_flagged_in_sim_path():
    ids = rule_ids("""
        import time

        def serve(sim):
            return time.time()
    """)
    assert ids == ["det-wall-clock"]


def test_wall_clock_alias_resolved_through_import():
    ids = rule_ids("""
        from time import time as now

        def serve(sim):
            return now()
    """)
    assert ids == ["det-wall-clock"]


def test_perf_counter_allowed_everywhere():
    ids = rule_ids("""
        import time

        def measure():
            return time.perf_counter()
    """)
    assert ids == []


def test_wall_clock_allowed_in_benchmarks_profile():
    ids = rule_ids(
        """
        import time

        def bench():
            return time.time()
        """,
        relpath="benchmarks/fixture.py",
    )
    assert ids == []


def test_entropy_sources_flagged():
    ids = rule_ids("""
        import os
        import uuid

        def ids_(sim):
            return uuid.uuid4(), os.urandom(8)
    """)
    assert ids == ["det-entropy", "det-entropy"]


def test_module_level_random_flagged_instance_allowed():
    ids = rule_ids("""
        import random

        def draw(rng):
            shared = random.random()
            threaded = rng.random()
            return shared, threaded
    """)
    assert ids == ["det-global-random"]


def test_seed_provenance_rejects_literal_seed():
    # the acceptance-criteria fixture: a literal-seeded Random in a sim
    # path must be rejected by the def-use provenance walk
    ids = rule_ids("""
        import random

        def replay(requests):
            rng = random.Random(42)
            return rng
    """)
    assert ids == ["det-seed-provenance"]


def test_seed_provenance_rejects_literal_through_assignment_chain():
    ids = rule_ids("""
        import random

        def replay(requests):
            base = 7
            seed = base * 31
            return random.Random(seed)
    """)
    assert ids == ["det-seed-provenance"]


def test_seed_provenance_rejects_clock_and_unseeded():
    findings, _ = lint_snippet("""
        import random
        import time

        def replay():
            wall = random.Random(time.time())
            unseeded = random.Random()
            return wall, unseeded
    """)
    ids = [finding.rule_id for finding in findings]
    # the clock read itself is also a det-wall-clock finding
    assert ids.count("det-seed-provenance") == 2
    assert "det-wall-clock" in ids


def test_seed_provenance_accepts_parameter_derived_seeds():
    ids = rule_ids("""
        import random

        def replay(seed, config, spec):
            direct = random.Random(seed)
            derived = random.Random(seed * 31 + 7)
            attr = random.Random(config.seed)
            key = random.Random(spec["seed"])
            mixed = random.Random("{}|{}".format(seed, config.shard))
            return direct, derived, attr, key, mixed
    """)
    assert ids == []


def test_seed_provenance_accepts_loop_variable_seeds():
    ids = rule_ids("""
        import random

        def shards(seed, workers):
            return [random.Random((seed, shard)) for shard in range(workers)]
    """)
    assert ids == []


# ======================================================================
# metrics hygiene rules
# ======================================================================
def test_declared_counter_and_stage_pass():
    ids = rule_ids("""
        from repro.metrics.perf import PERF

        def hot(request):
            PERF.incr("matcher.requests")
            with PERF.stage("proxy.dispatch"):
                pass
    """)
    assert ids == []


def test_typoed_counter_flagged():
    ids = rule_ids("""
        from repro.metrics.perf import PERF

        def hot(request):
            PERF.incr("matcher.reqests")
    """)
    assert ids == ["met-undeclared-name"]


def test_declared_prefix_passes_undeclared_prefix_flagged():
    ids = rule_ids("""
        from repro.metrics.perf import PERF

        def misses(cause, thing):
            PERF.incr("cache.miss." + cause)
            PERF.incr("cache.oops." + thing)
    """)
    assert ids == ["met-dynamic-name"]


def test_catalog_constant_resolves_at_call_site():
    ids = rule_ids("""
        from repro.metrics import catalog

        def feed(registry, seconds):
            registry.observe(
                catalog.SPAN_WALL_SECONDS, seconds, labels={"stage": "learn"}
            )
    """)
    assert ids == []


def test_registry_typo_and_label_violations_flagged():
    ids = rule_ids("""
        def feed(registry, user):
            registry.inc("span_outcmes", labels={"stage": "learn"})
            registry.inc("traces", labels={"knd": "request"})
            registry.inc("traces", labels={"kind": "u{}".format(user)})
    """)
    assert ids == [
        "met-undeclared-name", "met-undeclared-label", "met-unbounded-label",
    ]


def test_label_dict_resolved_through_local_assignment():
    ids = rule_ids("""
        def feed(registry, seconds):
            labels = {"stgae": "learn"}
            registry.observe("span_wall_seconds", seconds, labels=labels)
    """)
    assert ids == ["met-undeclared-label"]


def test_span_stage_and_trace_kind_vocabulary():
    ids = rule_ids("""
        def trace_it(trace, TRACER, user):
            trace.start_span("match")
            trace.start_span("mtach")
            TRACER.begin(user, kind="prefetch")
            TRACER.begin(user, kind="prefetchh")
    """)
    assert ids == ["met-undeclared-name", "met-undeclared-name"]


def test_parameter_forwarding_is_allowed():
    # the facade pattern: PerfCounters.incr(name) forwards its caller's
    # name — the literal is checked at the caller's site, not here
    ids = rule_ids("""
        def incr(self, name, amount=1):
            self.registry.inc(name, amount)
    """, relpath=CORE_PATH)
    assert ids == []


def test_metrics_rules_active_in_core_profile():
    ids = rule_ids("""
        from repro.metrics.perf import PERF

        def hot(request):
            PERF.incr("no.such.counter")
    """, relpath=CORE_PATH)
    assert ids == ["met-undeclared-name"]


def test_declared_window_passes_typo_flagged():
    ids = rule_ids("""
        from repro.metrics import catalog

        def tick(self, now, latency):
            self.windows.inc(catalog.W_HITS, now)
            self.windows.observe("proxy.request", now, latency)
            self.windows.inc("proxy.reqests", now)
    """)
    assert ids == ["met-undeclared-name"]


def test_window_forwarding_allowed_dynamic_flagged():
    ids = rule_ids("""
        def inc(self, name, now, amount=1):
            self.windows.inc(name, now, amount)

        def feed(windows, suffix, now):
            windows.inc("proxy." + suffix, now)
    """)
    assert ids == ["met-dynamic-name"]


# ======================================================================
# multiprocessing safety rules
# ======================================================================
def test_worker_reachable_global_mutation_flagged():
    ids = rule_ids("""
        from multiprocessing import Process

        CACHE = {}

        def _worker(spec):
            CACHE["key"] = spec
            CACHE.update(spec)

        def launch(spec):
            Process(target=_worker, args=(spec,)).start()
    """)
    assert ids == ["mp-global-mutation", "mp-global-mutation"]


def test_global_rebind_in_worker_flagged_supervisor_side_allowed():
    ids = rule_ids("""
        from concurrent.futures import ProcessPoolExecutor

        _POOL = None

        def _init(env):
            global _POOL
            _POOL = env

        def supervisor_reset():
            global _POOL
            _POOL = None

        def launch():
            return ProcessPoolExecutor(max_workers=2, initializer=_init)
    """)
    # only the initializer's rebind is worker-reachable; the
    # supervisor-side reset stays in the parent process and is fine
    assert ids == ["mp-global-mutation"]


def test_mutation_reached_transitively_and_locals_exempt():
    ids = rule_ids("""
        from multiprocessing import Process

        STATE = {}

        def _helper(spec):
            local = {}
            local["fine"] = spec
            STATE["bad"] = spec

        def _worker(spec):
            _helper(spec)

        def launch(spec):
            Process(target=_worker, args=(spec,)).start()
    """)
    assert ids == ["mp-global-mutation"]


def test_environ_write_through_imported_module_flagged():
    ids = rule_ids("""
        from concurrent.futures import ProcessPoolExecutor
        import os

        def _init(env):
            os.environ["REPRO_X"] = env

        def launch():
            return ProcessPoolExecutor(max_workers=2, initializer=_init)
    """)
    assert ids == ["mp-global-mutation"]


def test_lambda_and_nested_function_pool_targets_flagged():
    ids = rule_ids("""
        from multiprocessing import Process

        def launch(pool, items):
            def inner(item):
                return item

            Process(target=lambda: None).start()
            pool.submit(inner, items[0])
            return pool.map(inner, items)
    """)
    assert ids == [
        "mp-unpicklable-callable",
        "mp-unpicklable-callable",
        "mp-unpicklable-callable",
    ]


def test_module_level_pool_target_passes():
    ids = rule_ids("""
        from multiprocessing import Process

        def _worker(spec):
            result = dict(spec)
            return result

        def launch(spec):
            Process(target=_worker, args=(spec,)).start()
    """)
    assert ids == []


# ======================================================================
# suppressions
# ======================================================================
SUPPRESSIBLE = """
    import time

    def serve(sim):
        return time.time(){comment}
"""


def test_suppression_with_reason_silences_finding():
    findings, suppressed = lint_snippet(
        SUPPRESSIBLE.format(
            comment="  # repro-lint: disable=det-wall-clock -- test hook"
        )
    )
    assert findings == []
    assert suppressed == 1


def test_suppression_without_reason_is_itself_a_finding():
    ids = rule_ids(
        SUPPRESSIBLE.format(comment="  # repro-lint: disable=det-wall-clock")
    )
    assert ids == ["qa-suppression-missing-reason"]


def test_suppression_on_preceding_comment_line_covers_next_line():
    findings, suppressed = lint_snippet("""
        import time

        def serve(sim):
            # repro-lint: disable=det-wall-clock -- injected-hang test hook
            return time.time()
    """)
    assert findings == []
    assert suppressed == 1


def test_suppression_only_matches_named_rule():
    findings, suppressed = lint_snippet("""
        import time

        def serve(sim):
            return time.time()  # repro-lint: disable=det-entropy -- wrong id
    """)
    assert [finding.rule_id for finding in findings] == ["det-wall-clock"]
    assert suppressed == 0


def test_unused_suppression_flagged_only_in_strict():
    clean = """
        import time

        def serve(sim):
            # repro-lint: disable=det-wall-clock -- nothing to suppress
            return time.perf_counter()
    """
    assert rule_ids(clean) == []
    assert rule_ids(clean, strict=True) == ["qa-unused-suppression"]


def test_suppression_parser_handles_multiple_ids():
    suppressions = parse_suppressions(
        "x = 1  # repro-lint: disable=det-wall-clock,det-entropy -- both\n"
    )
    assert len(suppressions) == 1
    assert suppressions[0].rule_ids == ("det-wall-clock", "det-entropy")
    assert suppressions[0].reason == "both"
    assert suppressions[0].target_line == 1


# ======================================================================
# runner, reporters, determinism of output
# ======================================================================
def test_parse_error_is_a_finding_not_a_crash():
    findings, _ = lint_snippet("def broken(:\n")
    assert [finding.rule_id for finding in findings] == ["qa-parse-error"]


def test_run_lint_over_tree_deterministic_and_exit_codes(tmp_path):
    sim_dir = tmp_path / "src" / "repro" / "experiments"
    sim_dir.mkdir(parents=True)
    (sim_dir / "b_dirty.py").write_text(
        "import time\n\ndef f(sim):\n    return time.time()\n"
    )
    (sim_dir / "a_clean.py").write_text("def g(seed):\n    return seed\n")

    report = run_lint(["src"], root=str(tmp_path))
    assert report.exit_code == 1
    assert report.files_scanned == 2
    assert [f.path for f in report.findings] == [
        "src/repro/experiments/b_dirty.py"
    ]

    again = run_lint(["src"], root=str(tmp_path))
    assert render_text(again) == render_text(report)
    assert render_json(again) == render_json(report)

    (sim_dir / "b_dirty.py").write_text("def f(seed):\n    return seed\n")
    assert run_lint(["src"], root=str(tmp_path)).exit_code == 0


def test_json_report_schema(tmp_path):
    sim_dir = tmp_path / "src" / "repro" / "proxy"
    sim_dir.mkdir(parents=True)
    (sim_dir / "mod.py").write_text(
        "import random\n\ndef f(x):\n    return random.Random(1)\n"
    )
    report = run_lint(["src"], root=str(tmp_path), strict=True)
    data = json.loads(render_json(report))
    assert set(data) == {
        "version", "strict", "files_scanned", "findings", "suppressed",
        "counts", "exit_code",
    }
    assert data["version"] == 1
    assert data["strict"] is True
    assert data["files_scanned"] == 1
    assert data["exit_code"] == 1
    assert data["counts"] == {"det-seed-provenance": 1}
    (finding,) = data["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "det-seed-provenance"
    assert finding["path"] == "src/repro/proxy/mod.py"
    assert finding["line"] == 4


def test_missing_path_raises(tmp_path):
    try:
        run_lint(["no/such/dir"], root=str(tmp_path))
    except FileNotFoundError:
        pass
    else:
        raise AssertionError("expected FileNotFoundError")


# ======================================================================
# the meta-test: src/ is clean under the CI configuration
# ======================================================================
def test_src_tree_is_strict_clean():
    report = run_lint(["src"], root=str(REPO_ROOT), strict=True)
    rendered = render_text(report)
    assert report.exit_code == 0, "src/ is no longer lint-clean:\n" + rendered
    assert report.files_scanned > 80, rendered
    # a silently inert linter would also pass above: the real pool
    # entrypoint (``pool.map(execute_cell, ...)``) must still be found,
    # so a global write added to the worker side must flag
    relpath = "src/repro/experiments/parallel.py"
    source = (REPO_ROOT / relpath).read_text()
    mutated = source.replace(
        "    kind, kwargs = unit\n",
        "    kind, kwargs = unit\n    os.environ['CELL'] = kind\n",
    )
    assert mutated != source
    assert "mp-global-mutation" in rule_ids(mutated, relpath=relpath)


def test_sink_heuristics_still_match_real_call_shapes():
    """Pin the receiver heuristics against the real tree's idioms.

    If a refactor renames ``PERF``/``registry``/``TRACER`` receivers,
    the sinks silently stop matching and the gate goes blind; this
    differential (typo'd copies of real call shapes MUST flag) keeps it
    honest.
    """
    real_shapes = """
        from repro.metrics.perf import PERF
        from repro.metrics.trace import TRACER

        def serve(user, registry, trace):
            PERF.incr("matcher.reqests")
            PERF.registry.inc("prefetch_hitz", labels={"signature": user})
            registry.observe("span_wall_secondz", 0.1, labels={"stage": "learn"})
            trace.start_span("mtach")
            TRACER.begin(user, kind="requestt")
    """
    ids = rule_ids(real_shapes)
    assert ids.count("met-undeclared-name") == 5
