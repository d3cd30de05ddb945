"""Cross-app structural tests: all five evaluated apps."""

import hashlib

import pytest

from repro.analysis import analyze_apk, dump_signatures
from repro.apps import all_apps, app_names, get_app
from repro.device.runtime import AppRuntime
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import DirectTransport
from repro.server.content import Catalog

APPS = list(all_apps().values())


def test_registry_has_the_papers_five_apps():
    assert app_names() == ["wish", "geek", "doordash", "purple_ocean", "postmates"]


def test_get_app_unknown_raises():
    with pytest.raises(KeyError):
        get_app("tiktok")


@pytest.mark.parametrize("spec", APPS, ids=lambda s: s.name)
def test_apk_builds_and_validates(spec):
    apk = spec.build_apk()
    assert apk.instruction_count() > 50
    assert apk.main() is not None


@pytest.mark.parametrize("spec", APPS, ids=lambda s: s.name)
def test_analysis_finds_dependencies(spec):
    result = analyze_apk(spec.build_apk())
    summary = result.summary()
    assert summary["signatures"] >= 5
    assert summary["prefetchable"] >= 3
    assert summary["dependencies"] >= 4
    assert summary["max_chain"] >= 3


# each app's summary (signatures, prefetchable, dependencies, max_chain)
# and the SHA-256 of its signature file, as the analysis writes them
PINNED_SIGNATURE_FILES = {
    "wish": (
        (13, 11, 17, 5),
        "5b0694406ae13eed7587ec0c4536013393fc964ad735fce3e160da91aa86d915",
    ),
    "geek": (
        (9, 7, 11, 3),
        "a0785f77ab4e919940ec38dafb4b818fec45161ea9f559aa7438e247a595a2a1",
    ),
    "doordash": (
        (10, 8, 9, 5),
        "db3d65cd85e1dbf3b670d479a6d6604a1b72ff4d76106b4776841bc3abbf8578",
    ),
    "purple_ocean": (
        (8, 6, 6, 3),
        "0e1b2820520f08df1ece4b259f4eea80be14311aebd54a11c0c3e4f5aa77b97e",
    ),
    "postmates": (
        (11, 9, 10, 5),
        "101f5d57e6576d296140610fa701831c516b136009cb85b7c6a7a7dc101833ff",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SIGNATURE_FILES))
def test_signature_file_is_pinned(name):
    result = analyze_apk(get_app(name).build_apk())
    summary, digest = PINNED_SIGNATURE_FILES[name]
    assert tuple(result.summary().values()) == summary
    text = dump_signatures(result)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", APPS, ids=lambda s: s.name)
def test_main_flow_runs_end_to_end(spec):
    sim = Simulator()
    origins, _ = spec.build_origin_map(sim, Catalog())
    transport = DirectTransport(sim, Link(rtt=0.055, shared=True), origins)
    runtime = AppRuntime(spec.build_apk(), transport, sim, spec.default_profile())

    def flow():
        launch = yield sim.spawn(runtime.launch())
        result = None
        for event, index in spec.main_flow:
            yield Delay(2.0)
            result = yield sim.spawn(runtime.dispatch(event, index))
        return launch, result

    launch, main = sim.run_process(flow())
    assert launch.transactions, "launch must produce traffic"
    assert main.transactions, "main interaction must produce traffic"
    assert all(t.response.ok for t in main.transactions)


@pytest.mark.parametrize("spec", APPS, ids=lambda s: s.name)
def test_every_event_handler_is_exercisable(spec):
    apk = spec.build_apk()
    sim = Simulator()
    origins, _ = spec.build_origin_map(sim, Catalog())
    transport = DirectTransport(sim, Link(rtt=0.055, shared=True), origins)
    runtime = AppRuntime(apk, transport, sim, spec.default_profile())
    sim.run_process(runtime.launch())
    start_screen = runtime.current_screen
    for event_name in list(runtime.available_events()):
        # every event on the start screen dispatches without error;
        # navigation events may move screens, so walk back by relaunch
        if runtime.current_screen != start_screen:
            sim.run_process(runtime.launch())
        sim.run_process(runtime.dispatch(event_name, 0))


@pytest.mark.parametrize("spec", APPS, ids=lambda s: s.name)
def test_origin_rtts_match_table2(spec):
    # every transaction label in Table 2 maps to a declared origin RTT
    origin_rtts = {round(o.rtt * 1000) for o in spec.origins}
    for _, rtt in spec.transactions_of_main:
        assert round(rtt * 1000) in origin_rtts


@pytest.mark.parametrize("spec", APPS, ids=lambda s: s.name)
def test_all_transactions_route_to_known_origins(spec):
    sim = Simulator()
    origins, _ = spec.build_origin_map(sim, Catalog())
    transport = DirectTransport(sim, Link(rtt=0.055, shared=True), origins)
    runtime = AppRuntime(spec.build_apk(), transport, sim, spec.default_profile())

    def flow():
        yield sim.spawn(runtime.launch())
        for event, index in spec.main_flow:
            yield Delay(1.0)
            yield sim.spawn(runtime.dispatch(event, index))
        return None

    sim.run_process(flow())  # raises UnknownOriginError on a routing gap
    assert all(t.response.status != 404 for t in runtime.transaction_log)


@pytest.mark.parametrize("spec", APPS, ids=lambda s: s.name)
def test_each_app_has_a_side_effect_event(spec):
    apk = spec.build_apk()
    side_effects = [
        event
        for screen in apk.screens.values()
        for event in screen.events.values()
        if event.side_effect
    ]
    if spec.name == "doordash":
        assert side_effects  # add_to_cart
    else:
        assert side_effects, "{} needs a side-effecting event".format(spec.name)


@pytest.mark.parametrize("spec", APPS, ids=lambda s: s.name)
def test_each_app_has_a_background_service(spec):
    apk = spec.build_apk()
    services = [c for c in apk.components.values() if c.kind == "service"]
    assert services, "background service missing (Table 3 coverage gap)"


def test_wish_matches_fig5_signature_shape():
    """The paper's Fig. 5: /product/get body fields."""
    result = analyze_apk(get_app("wish").build_apk())
    detail = next(s for s in result.signatures if "postDetail" in s.site)
    fields = {p.to_string() for p in detail.request.fields}
    for expected in ("body.cid", "body._client", "body._ver", "body._xsrf"):
        assert expected in fields
    # credit_id is branch-dependent: present in some variants only
    assert "body.credit_id" in fields
    variants = {frozenset(v) for v in detail.variants}
    assert any("body.credit_id" in v for v in variants)
    assert any("body.credit_id" not in v for v in variants)


def test_doordash_matches_fig11_chain():
    """Fig. 11: store list → menu → menu detail → suggestions."""
    from repro.analysis.dependency import dependency_chains

    result = analyze_apk(get_app("doordash").build_apk())
    chains = dependency_chains(result.dependencies)
    rendered = ["->".join(c) for c in chains]
    assert any(
        "loadStores" in r and "StoreActivity" in r and "MenuItemActivity" in r
        for r in rendered
    )


def test_wish_matches_fig12_fanout():
    """Fig. 12: one detail response feeds several successors."""
    from repro.analysis.dependency import fan_out

    result = analyze_apk(get_app("wish").build_apk())
    fanout = fan_out(result.dependencies)
    detail_fanout = max(
        v for k, v in fanout.items() if k.startswith("DetailActivity")
    )
    assert detail_fanout >= 3
