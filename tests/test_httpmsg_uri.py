"""Tests for repro.httpmsg.uri."""

import pytest

from repro.httpmsg.uri import Uri, quote, unquote


def test_parse_basic():
    uri = Uri.parse("https://api.wish.com/product/get")
    assert uri.scheme == "https"
    assert uri.host == "api.wish.com"
    assert uri.path == "/product/get"
    assert uri.query == []


def test_parse_with_query():
    uri = Uri.parse("https://a.com/x?cid=09cf&v=2")
    assert uri.query == [("cid", "09cf"), ("v", "2")]
    assert uri.query_get("cid") == "09cf"


def test_parse_with_port():
    uri = Uri.parse("https://a.com:8443/x")
    assert uri.port == 8443
    assert uri.effective_port() == 8443


def test_default_ports():
    assert Uri.parse("https://a.com/").effective_port() == 443
    assert Uri.parse("http://a.com/").effective_port() == 80


def test_parse_no_path():
    uri = Uri.parse("https://a.com")
    assert uri.path == "/"


def test_parse_requires_scheme():
    with pytest.raises(ValueError):
        Uri.parse("a.com/x")


def test_round_trip():
    text = "https://api.wish.com/api/merchant?q=Silk%20lantern"
    assert Uri.parse(text).to_string() == text


def test_origin_hides_default_port():
    assert Uri.parse("https://a.com:443/x").origin() == "https://a.com"
    assert Uri.parse("https://a.com:8443/x").origin() == "https://a.com:8443"


def test_path_segments():
    uri = Uri.parse("https://a.com/v2/store/ab12/menu")
    assert uri.path_segments() == ["v2", "store", "ab12", "menu"]


def test_query_set_updates_in_place():
    uri = Uri.parse("https://a.com/x?k=1")
    uri.query_set("k", "2")
    assert uri.query == [("k", "2")]
    uri.query_set("new", "3")
    assert uri.query_get("new") == "3"


def test_query_dict():
    uri = Uri.parse("https://a.com/x?a=1&b=2")
    assert uri.query_dict() == {"a": "1", "b": "2"}


def test_equality_and_hash():
    a = Uri.parse("https://a.com/x?k=1")
    b = Uri.parse("https://a.com/x?k=1")
    assert a == b
    assert hash(a) == hash(b)


def test_copy_independent():
    a = Uri.parse("https://a.com/x")
    b = a.copy()
    b.query_set("k", "1")
    assert a.query == []


def test_quote_unquote_round_trip():
    text = "hello world/50% off&more=yes"
    assert unquote(quote(text)) == text


def test_quote_safe_characters_untouched():
    assert quote("abc-XYZ_0.9~") == "abc-XYZ_0.9~"


def test_unquote_tolerates_stray_percent():
    assert unquote("100%") == "100%"


# -- quote against the seed's character walk --------------------------------
try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False

from tests.oracles.template_walk import seed_quote


@pytest.mark.parametrize(
    "text", ["", "abc-_.~XYZ09", "a b", "café", "x=1&y", "%41", 12345, -7]
)
def test_quote_matches_seed_walk(text):
    assert quote(text) == seed_quote(text)


def test_quote_returns_a_plain_str():
    class Tagged(str):
        pass

    quoted = quote(Tagged("abc"))
    assert type(quoted) is str and quoted == "abc"


if HAVE_HYPOTHESIS:

    @given(st.one_of(st.text(), st.integers()))
    def test_quote_matches_seed_walk_on_arbitrary_input(text):
        assert quote(text) == seed_quote(text)
