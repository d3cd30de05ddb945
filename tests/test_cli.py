"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_apps_command(capsys):
    code, out = run_cli(capsys, "apps")
    assert code == 0
    for name in ("wish", "geek", "doordash", "purple_ocean", "postmates"):
        assert name in out


def test_analyze_command(capsys):
    code, out = run_cli(capsys, "analyze", "purple_ocean")
    assert code == 0
    assert "signatures: 8" in out
    assert "dependencies:" in out
    assert "[side-effect]" in out


def test_analyze_sig_file(tmp_path, capsys):
    target = tmp_path / "wish.sig.json"
    code, out = run_cli(capsys, "analyze", "wish", "--sig-file", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["package"] == "com.wish.android"
    assert payload["signatures"]


def test_demo_command(capsys):
    code, out = run_cli(capsys, "demo", "postmates")
    assert code == 0
    assert "without proxy" in out
    assert "with APPx" in out


def test_experiment_table1(capsys):
    code, out = run_cli(capsys, "experiment", "table1")
    assert code == 0
    assert "Wish" in out


def test_experiment_ablation(capsys):
    code, out = run_cli(capsys, "experiment", "ablation")
    assert code == 0
    assert "no_intents" in out


def test_experiment_unknown(capsys):
    code = main(["experiment", "nope"])
    assert code == 2


def test_unknown_app_errors():
    with pytest.raises(KeyError):
        main(["analyze", "not-an-app"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_verify_command(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    code, out = run_cli(
        capsys, "verify", "purple_ocean", "--duration", "20",
        "--config-file", str(config_file),
    )
    assert code == 0
    assert "expiration estimates" in out
    payload = json.loads(config_file.read_text())
    assert payload["policies"]


# ----------------------------------------------------------------------
# live telemetry plane / SLO flags
# ----------------------------------------------------------------------
def _slo_config_file(tmp_path):
    # slow window wider than the run: terminal events push the sim
    # clock past the nominal duration, and the end-of-run verdict must
    # still see the whole run inside the slow window
    config = {
        "window_s": 12.0,
        "fast_window_s": 1.0,
        "objectives": [
            {"name": "overflow_rate", "kind": "overflow",
             "budget_ratio": 0.01, "fast_burn": 2.0, "slow_burn": 1.0,
             "min_events": 10},
        ],
    }
    path = tmp_path / "slo.json"
    path.write_text(json.dumps(config))
    return str(path)


def _failing_slo_config_file(tmp_path):
    # every request makes one round trip on the 55 ms access link, so
    # none is answered within 50 ms and the latency objective is
    # overspent
    config = {
        "window_s": 12.0,
        "fast_window_s": 1.0,
        "objectives": [
            {"name": "latency_under_rtt", "kind": "latency",
             "good_under_ms": 50, "target": 0.99, "fast_burn": 2.0,
             "slow_burn": 1.0, "min_events": 10},
        ],
    }
    path = tmp_path / "slo_failing.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_scale_slo_violation_exits_nonzero(tmp_path, capsys):
    report_path = tmp_path / "slo_report.json"
    code, out = run_cli(
        capsys, "scale", "--users", "60", "--duration", "4",
        "--rate", "2.0", "--max-entries-per-user", "16",
        "--slo", _failing_slo_config_file(tmp_path),
        "--slo-report", str(report_path),
    )
    assert code == 1
    assert "slo verdict: FAIL" in out
    assert "VIOLATED" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is False
    assert report["cells"][0]["slo"]["objectives"][0]["bad"] > 0


def test_scale_slo_clean_run_passes(tmp_path, capsys):
    code, out = run_cli(
        capsys, "scale", "--users", "60", "--duration", "4",
        "--rate", "2.0", "--max-entries-per-user", "16",
        "--slo", _slo_config_file(tmp_path),
    )
    assert code == 0
    assert "slo verdict: PASS" in out
    assert "live[60 users]" in out


def test_scale_slo_flag_validation(tmp_path, capsys):
    # --slo-report without --slo
    assert main(["scale", "--users", "10", "--slo-report", "x.json"]) == 2
    # unreadable SLO config
    assert main([
        "scale", "--users", "10", "--slo", str(tmp_path / "missing.json"),
    ]) == 2
    capsys.readouterr()


def test_scale_prom_atomic_dump(tmp_path, capsys):
    prom_path = tmp_path / "metrics.prom"
    code, out = run_cli(
        capsys, "scale", "--users", "20", "--duration", "2",
        "--max-entries-per-user", "16", "--prom", str(prom_path),
    )
    assert code == 0
    assert "wrote Prometheus metrics to {}".format(prom_path) in out
    assert "# TYPE" in prom_path.read_text()
