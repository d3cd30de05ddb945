"""Small unit tests across remaining surfaces."""

import pytest

from repro.device.profile import DeviceProfile
from repro.httpmsg.body import JsonBody
from repro.httpmsg.message import Request, Response, Transaction
from repro.httpmsg.uri import Uri
from repro.netsim.link import Link
from repro.netsim.transport import OriginMap


# -- DeviceProfile ------------------------------------------------------------
def test_profile_config_precedence():
    profile = DeviceProfile(config={"api_host": "https://override.com"})
    defaults = {"api_host": "https://default.com", "other": "x"}
    assert profile.config_value("api_host", defaults) == "https://override.com"
    assert profile.config_value("other", defaults) == "x"
    assert profile.config_value("missing", defaults) == ""


def test_profile_flags_default_false():
    profile = DeviceProfile(flags={"vip": True})
    assert profile.flag("vip")
    assert not profile.flag("unknown")


def test_profile_processing_default_zero():
    profile = DeviceProfile(processing={"launch": 2.0})
    assert profile.processing_delay("launch") == 2.0
    assert profile.processing_delay("interaction") == 0.0


def test_profile_copy_for_user():
    base = DeviceProfile(
        user="a", config={"k": "v"}, flags={"f": True}, processing={"launch": 1.0}
    )
    copy = base.copy_for_user("b")
    assert copy.user == "b"
    assert copy.device_id == "device-b"
    assert copy.config == base.config
    copy.config["k"] = "changed"
    assert base.config["k"] == "v"  # deep enough to be independent


# -- OriginMap ------------------------------------------------------------------
def test_origin_map_default_link_for_unknown():
    origins = OriginMap()
    request = Request("GET", Uri.parse("https://nowhere.com/x"))
    link = origins.link_for(request)
    assert isinstance(link, Link)
    assert origins.endpoint_for(request) is None


# -- Transaction -------------------------------------------------------------------
def test_transaction_elapsed():
    transaction = Transaction(
        Request("GET", Uri.parse("https://a.com/x")),
        Response(200),
        started_at=1.0,
        finished_at=1.5,
    )
    assert transaction.elapsed == pytest.approx(0.5)
    assert not transaction.prefetched


def test_response_ok_bounds():
    assert Response(200).ok
    assert Response(204).ok
    assert not Response(304).ok
    assert not Response(404).ok
    assert not Response(500).ok


def test_request_wire_size_components():
    small = Request("GET", Uri.parse("https://a.com/x"))
    big = Request(
        "GET", Uri.parse("https://a.com/x"), body=JsonBody({"k": "v" * 100})
    )
    assert big.wire_size() > small.wire_size() + 90


def test_request_exact_key_sensitive_to_all_parts():
    base = Request("GET", Uri.parse("https://a.com/x?q=1"))
    assert base.exact_key() != Request("POST", Uri.parse("https://a.com/x?q=1")).exact_key()
    assert base.exact_key() != Request("GET", Uri.parse("https://a.com/x?q=2")).exact_key()
    with_header = base.copy()
    with_header.headers.add("Cookie", "a=1")
    assert base.exact_key() != with_header.exact_key()


# -- public package surface -----------------------------------------------------------
def test_top_level_imports():
    import repro
    from repro.analysis import (
        analyze_apk,
        dump_signatures,
        load_signatures,
        render_report,
    )
    from repro.proxy import (
        AccelerationProxy,
        MultiAppProxy,
        PopularityTracker,
    )

    assert repro.__version__
    assert callable(analyze_apk)
    assert callable(dump_signatures) and callable(load_signatures)
    assert callable(render_report)
    for symbol in (AccelerationProxy, MultiAppProxy, PopularityTracker):
        assert symbol is not None
