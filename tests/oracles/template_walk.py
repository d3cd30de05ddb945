"""The seed's per-request walks behind two demand-path helpers.

:func:`repro.httpmsg.uri.quote` returns a string with nothing to escape
unchanged after one regex search; :func:`seed_quote` encodes character
by character.  :func:`repro.proxy.popularity.item_key_for_request`
walks the signature's build plan; :func:`seed_item_key_for_request`
re-derives each field's dependency atoms and path string from the
signature's templates.  Both pairs must give identical results.
"""

from __future__ import annotations

from repro.analysis.model import DepAtom
from repro.proxy.popularity import ItemKey

_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~")


def seed_quote(text) -> str:
    """Percent-encode ``text`` for use in a query component."""
    out = []
    for ch in str(text):
        if ch in _SAFE:
            out.append(ch)
        else:
            out.extend("%{:02X}".format(b) for b in ch.encode("utf-8"))
    return "".join(out)


def seed_item_key_for_request(signature, request) -> ItemKey:
    """Extract the dep-derived field values from an actual request."""
    values = []
    for path, template in signature.signature.request.fields.items():
        if not template.dep_atoms():
            continue
        extracted = path.extract(request)
        if extracted:
            values.append((path.to_string(), str(extracted[0])))
    # dependencies embedded in the URI count too
    if signature.signature.request.uri.dep_atoms():
        captures = signature.uri_matcher.match(
            request.uri.origin() + request.uri.path
        )
        if captures:
            for atom, value in captures:
                if isinstance(atom, DepAtom):
                    values.append(("uri", value))
    return tuple(sorted(values))
