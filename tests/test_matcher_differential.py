"""SignatureMatcher ≡ the seed's un-memoised linear scan.

The dispatch path (exact-key memo + rank-ordered scan with early exit)
must pick exactly the signature the seed's linear regex scan
(``tests/oracles/linear_scan.py``) picked, for any request.  The
ranking rules themselves — most literal characters wins, earliest
signature breaks ties, the method must match — are pinned with
explicit expectations.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.analysis import analyze_apk
from repro.analysis.model import (
    AltAtom,
    ConstAtom,
    RequestTemplate,
    ResponseTemplate,
    TransactionSignature,
    UnknownAtom,
    ValueTemplate,
)
from repro.apps import all_apps
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri
from repro.metrics.perf import PERF
from repro.proxy.instances import (
    RuntimeSignature,
    SignatureMatcher,
    build_runtime_signatures,
)
from tests.oracles.linear_scan import linear_scan_match


def runtime(site, method, atoms):
    return RuntimeSignature(
        TransactionSignature(
            site,
            RequestTemplate(method=method, uri=ValueTemplate(atoms)),
            ResponseTemplate(),
        )
    )


def assert_agreement(matcher, requests):
    for request in requests:
        found = matcher.match(request)
        scanned = linear_scan_match(matcher.signatures, request)
        assert found is scanned, "{} {}: matcher={} scan={}".format(
            request.method,
            request.uri.to_string(),
            found.site if found else None,
            scanned.site if scanned else None,
        )


# -- synthetic dispatch workload ---------------------------------------------
def render_uri(
    signature: RuntimeSignature, rng: random.Random, host: str
) -> Optional[str]:
    """One concrete URI the signature's template accepts, or None."""
    parts: List[str] = []
    atoms = signature.signature.request.uri.atoms
    for position, atom in enumerate(atoms):
        if isinstance(atom, ConstAtom):
            parts.append(str(atom.value))
        elif isinstance(atom, AltAtom):
            option = rng.choice(atom.options)
            if not option.is_const():
                return None
            parts.append(str(option.const_value()))
        elif position == 0:
            # leading wildcard: in every bundled app this is the
            # env:config host tag, so substitute a plausible origin
            parts.append(host)
        else:
            parts.append("{:x}".format(rng.randrange(16 ** 8)))
    return "".join(parts)


def synthesize_workload(
    signature_sets: Dict[str, List[RuntimeSignature]],
    total_requests: int,
    seed: int = 0,
    repeat_fraction: float = 0.3,
    miss_fraction: float = 0.2,
) -> List[Request]:
    """A mixed match/repeat/miss workload over all apps' signatures.

    ``repeat_fraction`` of the requests re-send an earlier URI
    verbatim (the dispatch-memo case); ``miss_fraction`` are
    deliberate non-matches (unknown paths on known hosts, unknown
    hosts, wrong methods).
    """
    rng = random.Random(seed)
    renderable: List[Tuple[RuntimeSignature, str]] = []
    base: List[Request] = []
    for app, signatures in sorted(signature_sets.items()):
        host = "https://api.{}.example.com".format(app)
        for signature in signatures:
            uri_string = render_uri(signature, rng, host)
            if uri_string is None:
                continue
            try:
                uri = Uri.parse(uri_string)
            except ValueError:
                continue
            renderable.append((signature, host))
            base.append(Request(signature.method, uri))
    if not base:
        raise ValueError("no synthesizable signatures")
    requests: List[Request] = []
    while len(requests) < total_requests:
        roll = rng.random()
        if requests and roll < repeat_fraction:
            template = rng.choice(requests)
            requests.append(Request(template.method, template.uri.copy()))
        elif roll < repeat_fraction + miss_fraction:
            kind = rng.randrange(3)
            sample = rng.choice(base)
            if kind == 0:  # unknown path on a known host
                uri = sample.uri.copy()
                uri.path = "/nope/{:x}".format(rng.randrange(16 ** 6))
                requests.append(Request(sample.method, uri))
            elif kind == 1:  # unknown host entirely
                requests.append(
                    Request(
                        sample.method,
                        Uri.parse(
                            "https://unknown-{:x}.example.org/misc/{:x}".format(
                                rng.randrange(16 ** 4), rng.randrange(16 ** 6)
                            )
                        ),
                    )
                )
            else:  # wrong method for a known URI
                method = "PUT" if sample.method != "PUT" else "DELETE"
                requests.append(Request(method, sample.uri.copy()))
        else:
            # fresh render: wildcard/dependency atoms get new values,
            # so distinct URIs keep arriving and the memo cannot absorb
            # the whole workload
            signature, host = rng.choice(renderable)
            uri_string = render_uri(signature, rng, host)
            try:
                requests.append(Request(signature.method, Uri.parse(uri_string)))
            except ValueError:
                requests.append(Request(signature.method, rng.choice(base).uri.copy()))
    return requests



# -- randomized differential over all five bundled apps ----------------------
@pytest.fixture(scope="module")
def app_signature_sets():
    return {
        name: build_runtime_signatures(analyze_apk(spec.build_apk()))
        for name, spec in all_apps().items()
    }


def test_five_app_randomized_differential(app_signature_sets):
    combined = [s for sigs in app_signature_sets.values() for s in sigs]
    matcher = SignatureMatcher(combined)
    requests = synthesize_workload(app_signature_sets, 1500, seed=1234)
    assert_agreement(matcher, requests)


def test_per_app_randomized_differential(app_signature_sets):
    for name, signatures in app_signature_sets.items():
        matcher = SignatureMatcher(signatures)
        requests = synthesize_workload({name: signatures}, 300, seed=99)
        assert_agreement(matcher, requests)


def test_mutated_uris_differential(app_signature_sets):
    """Truncations, extensions, and segment swaps of real URIs."""
    combined = [s for sigs in app_signature_sets.values() for s in sigs]
    matcher = SignatureMatcher(combined)
    rng = random.Random(7)
    base = synthesize_workload(app_signature_sets, 300, seed=7)
    mutated = []
    for request in base:
        uri = request.uri.copy()
        segments = uri.path_segments()
        op = rng.randrange(4)
        if op == 0 and segments:
            segments = segments[:-1]  # truncate
        elif op == 1:
            segments = segments + ["zz{}".format(rng.randrange(100))]
        elif op == 2 and segments:
            index = rng.randrange(len(segments))
            segments[index] = segments[index][::-1] or "x"
        else:
            rng.shuffle(segments)
        uri.path = "/" + "/".join(segments)
        mutated.append(Request(request.method, uri))
    assert_agreement(matcher, mutated)


# -- ambiguous-URI tie-breaks -------------------------------------------------
def test_equal_specificity_earliest_signature_wins():
    first = runtime("first#0", "GET", [UnknownAtom("h"), ConstAtom("/same/path")])
    second = runtime("second#0", "GET", [UnknownAtom("h"), ConstAtom("/same/path")])
    matcher = SignatureMatcher([first, second])
    request = Request("GET", Uri.parse("https://a.com/same/path"))
    assert matcher.match(request) is first


def test_most_specific_wins_over_generic():
    generic = runtime("generic#0", "GET", [UnknownAtom("h"), UnknownAtom("x")])
    specific = runtime(
        "specific#0", "GET", [UnknownAtom("h"), ConstAtom("/product/get")]
    )
    matcher = SignatureMatcher([generic, specific])
    request = Request("GET", Uri.parse("https://api.a.com/product/get"))
    assert matcher.match(request) is specific
    # ...but URIs only the generic pattern matches still resolve to it
    other = Request("GET", Uri.parse("https://api.a.com/anything/else"))
    assert matcher.match(other) is generic


def test_literal_host_beats_wildcard_host_on_specificity():
    wildcard = runtime("wild#0", "GET", [UnknownAtom("h"), ConstAtom("/feed")])
    literal = runtime("lit#0", "GET", [ConstAtom("https://api.a.com/feed")])
    matcher = SignatureMatcher([wildcard, literal])
    request = Request("GET", Uri.parse("https://api.a.com/feed"))
    assert matcher.match(request) is literal
    # a host the literal signature does not name falls to the wildcard
    other = Request("GET", Uri.parse("https://other.com/feed"))
    assert matcher.match(other) is wildcard


# -- wildcard edges -----------------------------------------------------------
def test_wildcard_can_swallow_host_equal_to_segment_literal():
    """`.*` may cover scheme+host, leaving a literal that straddles the
    authority: the request host equals the signature's path literal."""
    signature = runtime("s#0", "GET", [UnknownAtom("h"), ConstAtom("/b/c")])
    matcher = SignatureMatcher([signature])
    request = Request("GET", Uri.parse("https://b/c"))
    assert matcher.match(request) is signature


def test_wrong_method_never_matches():
    signature = runtime("s#0", "POST", [UnknownAtom("h"), ConstAtom("/x")])
    matcher = SignatureMatcher([signature])
    request = Request("GET", Uri.parse("https://a.com/x"))
    assert matcher.match(request) is None
    # ...not even from the memo once the right method has been seen
    assert matcher.match(Request("POST", Uri.parse("https://a.com/x"))) is signature
    assert matcher.match(request) is None


def test_trailing_partial_segment_not_overpruned():
    """A literal whose last segment is wildcard-extended must still
    match URIs where the wildcard lengthens that segment."""
    signature = runtime(
        "s#0",
        "GET",
        [ConstAtom("https://a.com/pro"), UnknownAtom("rest")],
    )
    matcher = SignatureMatcher([signature])
    hits = [
        Request("GET", Uri.parse("https://a.com/product/get")),
        Request("GET", Uri.parse("https://a.com/pro")),
        Request("GET", Uri.parse("https://a.com/pro/x")),
    ]
    misses = [
        Request("GET", Uri.parse("https://a.com/other")),
        Request("GET", Uri.parse("https://b.com/product")),
    ]
    for request in hits:
        assert matcher.match(request) is signature
    for request in misses:
        assert matcher.match(request) is None


def test_memo_repeats_and_capacity():
    signature = runtime("s#0", "GET", [UnknownAtom("h"), ConstAtom("/x")])
    matcher = SignatureMatcher([signature], memo_capacity=4)
    request = Request("GET", Uri.parse("https://a.com/x"))
    with PERF.capture():
        for _ in range(3):
            assert matcher.match(request) is signature
        assert PERF.get("matcher.memo_hits") == 2
    # overflow the memo with distinct URIs; results stay correct
    for index in range(20):
        uri = Uri.parse("https://a.com/x{}".format(index))
        got = matcher.match(Request("GET", uri))
        assert got is None
    assert len(matcher._memo) <= 4
    assert matcher.match(request) is signature


def test_empty_matcher():
    matcher = SignatureMatcher([])
    request = Request("GET", Uri.parse("https://a.com/x"))
    assert matcher.match(request) is None
