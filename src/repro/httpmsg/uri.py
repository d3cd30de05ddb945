"""URI parsing and formatting.

A tiny, deterministic URI implementation: scheme, host, optional port,
path segments, and an order-preserving query string.  The proxy's
signature matching operates on the string form produced by
:meth:`Uri.to_string`, so formatting must be canonical.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

_DEFAULT_PORTS = {"http": 80, "https": 443}

_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~")
#: one character outside ``_SAFE``
_UNSAFE = re.compile(r"[^a-zA-Z0-9\-_.~]")


def quote(text: str) -> str:
    """Percent-encode ``text`` for use in a query component."""
    text = str(text)
    if _UNSAFE.search(text) is None:
        return text  # the common case: nothing to escape
    out = []
    for ch in text:
        if ch in _SAFE:
            out.append(ch)
        else:
            out.extend("%{:02X}".format(b) for b in ch.encode("utf-8"))
    return "".join(out)


def unquote(text: str) -> str:
    """Decode percent-encoding; tolerant of stray ``%``."""
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%" and i + 2 < len(text) + 1:
            hexpart = text[i + 1 : i + 3]
            try:
                out.append(int(hexpart, 16))
                i += 3
                continue
            except ValueError:
                pass
        out.extend(ch.encode("utf-8"))
        i += 1
    return out.decode("utf-8", errors="replace")


class Uri:
    """Structured URI with canonical string form.

    ``_version`` is the mutation counter :meth:`Request.exact_key`
    stamps its memo with.  In-place mutators (:meth:`query_set`, plus
    the :meth:`FieldPath.assign` write paths, which poke attributes and
    the query list directly) bump it via :meth:`touch`.
    """

    #: mutation counter for exact_key memoization
    _version = 0

    def __init__(
        self,
        scheme: str = "https",
        host: str = "",
        path: str = "/",
        query: Optional[List[Tuple[str, str]]] = None,
        port: Optional[int] = None,
    ) -> None:
        self.scheme = scheme
        self.host = host
        self.port = port
        self.path = path if path.startswith("/") else "/" + path
        self.query: List[Tuple[str, str]] = list(query or [])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Uri":
        """Parse ``scheme://host[:port]/path?query`` into a :class:`Uri`."""
        scheme, sep, rest = text.partition("://")
        if not sep:
            raise ValueError("URI missing scheme: {!r}".format(text))
        authority, slash, tail = rest.partition("/")
        path_and_query = slash + tail if slash else "/"
        host, colon, port_text = authority.partition(":")
        port = int(port_text) if colon else None
        path, qmark, query_text = path_and_query.partition("?")
        query: List[Tuple[str, str]] = []
        if qmark and query_text:
            for pair in query_text.split("&"):
                key, _, value = pair.partition("=")
                query.append((unquote(key), unquote(value)))
        return cls(scheme=scheme, host=host, path=path or "/", query=query, port=port)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def effective_port(self) -> int:
        if self.port is not None:
            return self.port
        return _DEFAULT_PORTS.get(self.scheme, 80)

    def path_segments(self) -> List[str]:
        return [seg for seg in self.path.split("/") if seg]

    def query_get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for name, value in self.query:
            if name == key:
                return value
        return default

    def query_set(self, key: str, value: str) -> None:
        self._version += 1
        for i, (name, _) in enumerate(self.query):
            if name == key:
                self.query[i] = (key, str(value))
                return
        self.query.append((key, str(value)))

    def touch(self) -> None:
        """Record an out-of-band mutation (direct attribute writes)."""
        self._version += 1

    def query_dict(self) -> Dict[str, str]:
        return {name: value for name, value in self.query}

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def origin(self) -> str:
        """``scheme://host[:port]`` — identifies the server endpoint."""
        if self.port is not None and self.port != _DEFAULT_PORTS.get(self.scheme):
            return "{}://{}:{}".format(self.scheme, self.host, self.port)
        return "{}://{}".format(self.scheme, self.host)

    def path_and_query(self) -> str:
        if not self.query:
            return self.path
        encoded = "&".join(
            "{}={}".format(quote(name), quote(value)) for name, value in self.query
        )
        return "{}?{}".format(self.path, encoded)

    def to_string(self) -> str:
        return self.origin() + self.path_and_query()

    def copy(self) -> "Uri":
        return Uri(self.scheme, self.host, self.path, list(self.query), self.port)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Uri):
            return NotImplemented
        return self.to_string() == other.to_string()

    def __hash__(self) -> int:
        return hash(self.to_string())

    def __repr__(self) -> str:
        return "Uri({!r})".format(self.to_string())
