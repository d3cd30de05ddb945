"""Unit tests for scenario assembly knobs."""

import pytest

from repro.experiments.scenario import Scenario, prepare_app, scoped_config


@pytest.fixture(scope="module")
def wish():
    return prepare_app("wish")


def test_origin_rtt_override(wish):
    default = Scenario(wish, proxied=False)
    overridden = Scenario(wish, proxied=False, origin_rtt_override=0.5)
    from repro.httpmsg.message import Request
    from repro.httpmsg.uri import Uri

    request = Request("GET", Uri.parse("https://api.wish.com/x"))
    assert default.origins.link_for(request).rtt == pytest.approx(0.165)
    assert overridden.origins.link_for(request).rtt == pytest.approx(0.5)


def test_global_probability_flows_to_config(wish):
    scenario = Scenario(wish, proxied=True, global_probability=0.4)
    assert scenario.proxy.config.global_probability == 0.4


def test_max_chain_depth_flows_to_learner(wish):
    scenario = Scenario(wish, proxied=True, max_chain_depth=1)
    assert scenario.proxy.config.max_chain_depth == 1
    # the learner's spawn gate reads the configured bound
    gate = scenario.proxy.learner.spawn_gate
    site = next(
        s.site for s in wish.analysis.prefetchable()
        if scenario.proxy.config.policy(s.site).prefetch
    )
    assert gate(site, 1, "u1", 0)
    assert not gate(site, 2, "u1", 0)


def test_scenario_config_copy_isolated(wish):
    # mutating one scenario's config must not leak into the prepared app
    scenario = Scenario(wish, proxied=True)
    some_site = wish.analysis.signatures[0].site
    scenario.proxy.config.disable(some_site, "scenario-local")
    assert wish.config.policy(some_site).prefetch


def test_unproxied_scenario_has_no_proxy(wish):
    scenario = Scenario(wish, proxied=False)
    assert scenario.proxy is None
    assert scenario.server_bytes() == scenario.demand_bytes() == 0


def test_demand_bytes_counts_traffic(wish):
    scenario = Scenario(wish, proxied=False)
    runtime = scenario.runtime("u1")
    scenario.sim.run_process(runtime.launch())
    assert scenario.demand_bytes() > 1_000_000  # feed + 30 thumbnails


def test_scoped_config_none_enables_everything(wish):
    config = scoped_config(wish.analysis, None)
    enabled = [
        s.site for s in wish.analysis.signatures
        if config.policy(s.site).prefetch
    ]
    side_effects = [s.site for s in wish.analysis.signatures if s.side_effect]
    assert len(enabled) == len(wish.analysis.signatures) - len(side_effects)


def test_prepare_app_memo_is_keyed_on_every_argument(monkeypatch):
    monkeypatch.setattr("repro.experiments.scenario._PREPARED", {})
    a = prepare_app("purple_ocean", fuzz_duration=10.0, estimate_expiry=False)
    assert prepare_app("purple_ocean", fuzz_duration=10.0, estimate_expiry=False) is a
    longer = prepare_app("purple_ocean", fuzz_duration=20.0, estimate_expiry=False)
    estimated = prepare_app("purple_ocean", fuzz_duration=10.0, estimate_expiry=True)
    assert len({id(a), id(longer), id(estimated)}) == 3
    assert prepare_app("purple_ocean", fuzz_duration=20.0, estimate_expiry=False) is longer
