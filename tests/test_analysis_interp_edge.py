"""Edge-case tests for the abstract interpreter."""


from repro.analysis.interp import MAX_LIST_ITERATIONS, AbstractInterpreter
from repro.analysis.pipeline import analyze_apk
from repro.apk.builder import AppBuilder, Lit, MethodBuilder
from repro.httpmsg.fieldpath import FieldPath


def shell(body_builder, extra=None):
    """Wrap one onStart body into a runnable APK."""
    app = AppBuilder("com.test.edge")
    app.config_default("api_host", "https://a.com")
    m = MethodBuilder("onStart", params=["this", "intent"])
    body_builder(app, m)
    app.method("Main", m)
    if extra:
        extra(app)
    app.component("main", "Main", screen="home", main=True)
    app.screen("home")
    return app.build()


def test_constant_branch_takes_one_arm_only():
    def build(app, m):
        cond = m.const(True)
        with m.if_(cond):
            req = m.new_request("GET", m.concat(m.config("api_host"), m.const("/yes")))
            m.execute(req)
        with m.else_():
            req = m.new_request("GET", m.concat(m.config("api_host"), m.const("/no")))
            m.execute(req)

    result = analyze_apk(shell(build))
    uris = [s.request.uri.regex() for s in result.signatures]
    assert any("/yes" in u for u in uris)
    assert not any("/no" in u for u in uris)


def test_unknown_branch_explores_both_arms():
    def build(app, m):
        cond = m.flag("maybe")
        with m.if_(cond):
            req = m.new_request("GET", m.concat(m.config("api_host"), m.const("/yes")))
            m.execute(req)
        with m.else_():
            req = m.new_request("GET", m.concat(m.config("api_host"), m.const("/no")))
            m.execute(req)

    result = analyze_apk(shell(build))
    assert len(result.signatures) == 2


def test_return_in_one_abstract_arm_does_not_kill_the_other():
    def build(app, m):
        cond = m.flag("maybe")
        with m.if_(cond):
            m.ret()
        req = m.new_request("GET", m.concat(m.config("api_host"), m.const("/after")))
        m.execute(req)

    result = analyze_apk(shell(build))
    assert any("/after" in s.request.uri.regex() for s in result.signatures)


def test_call_depth_guard_terminates():
    def build(app, m):
        m.call("Main.helper", "this")

    def extra(app):
        helper = MethodBuilder("helper", params=["this"])
        helper.call("Main.helper2", "this")
        app.method("Main", helper)
        helper2 = MethodBuilder("helper2", params=["this"])
        helper2.call("Main.helper", "this")  # mutual recursion
        app.method("Main", helper2)

    # the depth bound cuts the recursion; analysis must terminate
    result = analyze_apk(shell(build, extra))
    assert result.signatures == []


def test_json_has_on_app_built_object_is_concrete():
    def build(app, m):
        obj = m.json_new()
        m.json_put(obj, "present", Lit("v"))
        has = m.json_has(obj, "present")
        with m.if_(has):
            req = m.new_request("GET", m.concat(m.config("api_host"), m.const("/taken")))
            m.execute(req)
        with m.else_():
            req = m.new_request("GET", m.concat(m.config("api_host"), m.const("/nottaken")))
            m.execute(req)

    result = analyze_apk(shell(build))
    uris = [s.request.uri.regex() for s in result.signatures]
    assert any("/taken" in u for u in uris)
    assert not any("/nottaken" in u for u in uris)


def test_foreach_over_app_list_iterates_each_element():
    def build(app, m):
        items = m.invoke("List.new")
        m.invoke("List.add", items, m.const("/a"))
        m.invoke("List.add", items, m.const("/b"))
        with m.foreach(items) as item:
            req = m.new_request("GET", m.concat(m.config("api_host"), item))
            m.execute(req)

    result = analyze_apk(shell(build))
    # one site, but its URI merged across both concrete elements
    assert len(result.signatures) == 1
    template = result.signatures[0].request.uri
    assert template.matches("https://a.com/a")
    assert template.matches("https://a.com/b")
    assert not template.matches("https://a.com/c")


def test_component_start_cycle_guard():
    app = AppBuilder("com.test.cycle")
    app.config_default("api_host", "https://a.com")
    m = MethodBuilder("onStart", params=["this", "intent"])
    intent = m.intent_new()
    m.start_component(intent, "other")
    app.method("A", m)
    m = MethodBuilder("onStart", params=["this", "intent"])
    req = m.new_request("GET", m.concat(m.config("api_host"), m.const("/x")))
    m.execute(req)
    intent = m.intent_new()
    m.start_component(intent, "main")  # cycle back
    app.method("B", m)
    app.component("main", "A", screen="home", main=True)
    app.component("other", "B", screen="other")
    app.screen("home")
    app.screen("other")
    result = analyze_apk(app.build())
    assert len(result.signatures) == 1  # terminated, one execute site


def test_site_merging_across_two_callers():
    """One helper with one execute, called from two handlers: one site,
    merged templates."""
    app = AppBuilder("com.test.merge")
    app.config_default("api_host", "https://a.com")

    helper = MethodBuilder("fetch", params=["this", "kind"])
    url = m_url = helper.concat(
        helper.config("api_host"), helper.const("/fetch?kind="), "kind"
    )
    helper.execute(helper.new_request("GET", m_url))
    app.method("Main", helper)

    m = MethodBuilder("onStart", params=["this", "intent"])
    m.call("Main.fetch", "this", m.const("feed"))
    m.call("Main.fetch", "this", m.const("promo"))
    app.method("Main", m)
    app.component("main", "Main", screen="home", main=True)
    app.screen("home")

    result = analyze_apk(app.build())
    assert len(result.signatures) == 1
    signature = result.signatures[0]
    template = signature.request.fields[FieldPath.parse("query.kind")]
    assert template.matches("feed")
    assert template.matches("promo")
    assert not template.matches("other")


def test_max_list_iterations_bounds_work():
    def build(app, m):
        items = m.invoke("List.new")
        for index in range(10):
            m.invoke("List.add", items, m.const("/p{}".format(index)))
        with m.foreach(items) as item:
            req = m.new_request("GET", m.concat(m.config("api_host"), item))
            m.execute(req)

    apk = shell(build)
    recorder = AbstractInterpreter(apk).run()
    site = next(iter(recorder.snapshots))
    assert MAX_LIST_ITERATIONS == 8
    assert len(recorder.snapshots[site]) == 8  # bounded, not 10
