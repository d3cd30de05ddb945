"""Field paths: addressing parts of an HTTP message.

Signatures and dependency edges produced by the static analyzer refer to
message fields by path, e.g.::

    header.Cookie
    query.cid
    body.cid                          (form field)
    body.data.products[].product_info.id   (json, [] = every element)
    uri.host
    uri.path[1]                       (second path segment)
    status

The dynamic-learning engine uses :func:`FieldPath.extract` to pull
values out of observed transactions and :func:`FieldPath.assign` to fill
them into prefetch request instances.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple, Union

from repro.httpmsg.body import BlobBody, FormBody, JsonBody

#: A path part: a string key, an integer index, or the marker "[]"
PathPart = Union[str, int]

_ROOTS = ("method", "uri", "query", "header", "body", "status")

ALL = "[]"


class FieldPath:
    """Immutable path into a request or response.

    ``occurrence`` selects the n-th value when a header, query key, or
    form key repeats (Wish sends several ``_cap[]`` form fields; each
    is a distinct signature field).  Rendered as a ``~n`` suffix.
    """

    __slots__ = ("root", "parts", "occurrence")

    def __init__(
        self, root: str, parts: Sequence[PathPart] = (), occurrence: int = 0
    ) -> None:
        if root not in _ROOTS:
            raise ValueError("unknown field-path root: {!r}".format(root))
        self.root = root
        self.parts: Tuple[PathPart, ...] = tuple(parts)
        self.occurrence = occurrence

    # ------------------------------------------------------------------
    # parsing / formatting
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FieldPath":
        """Parse the dotted textual form, e.g. ``body.items[].id``."""
        occurrence = 0
        if "~" in text:
            text, _, occurrence_text = text.rpartition("~")
            occurrence = int(occurrence_text)
        pieces = text.split(".")
        root = pieces[0]
        parts: List[PathPart] = []
        for piece in pieces[1:]:
            suffixes: List[PathPart] = []
            while True:
                if piece.endswith("[]"):
                    suffixes.append(ALL)
                    piece = piece[:-2]
                elif piece.endswith("]") and "[" in piece:
                    name, _, index_text = piece[:-1].rpartition("[")
                    suffixes.append(int(index_text))
                    piece = name
                else:
                    break
            if piece:
                parts.append(_unescape_key(piece))
            parts.extend(reversed(suffixes))
        return cls(root, parts, occurrence)

    def to_string(self) -> str:
        out = [self.root]
        for part in self.parts:
            if part == ALL:
                if out:
                    out[-1] = out[-1] + "[]"
                else:  # pragma: no cover - root always present
                    out.append("[]")
            elif isinstance(part, int):
                out[-1] = out[-1] + "[{}]".format(part)
            else:
                out.append(_escape_key(str(part)))
        text = ".".join(out)
        if self.occurrence:
            text += "~{}".format(self.occurrence)
        return text

    # ------------------------------------------------------------------
    # message access
    # ------------------------------------------------------------------
    def extract(self, message: Any) -> List[Any]:
        """Values at this path inside ``message`` (possibly many).

        ``message`` is duck-typed: a Request (``method``, ``uri``,
        ``headers``, ``body``) or Response (``status``, ``headers``,
        ``body``).
        """
        if self.root == "method":
            return [message.method]
        if self.root == "status":
            return [message.status]
        if self.root == "header":
            name = str(self.parts[0])
            return self._pick(list(message.headers.get_all(name)))
        if self.root == "query":
            key = str(self.parts[0])
            return self._pick([v for n, v in message.uri.query if n == key])
        if self.root == "uri":
            return self._extract_uri(message.uri)
        if self.root == "body":
            return self._extract_body(message.body)
        raise AssertionError("unreachable root {!r}".format(self.root))

    def _extract_uri(self, uri: Any) -> List[Any]:
        if not self.parts:
            return [uri.to_string()]
        head = self.parts[0]
        if head == "host":
            return [uri.host]
        if head == "scheme":
            return [uri.scheme]
        if head == "origin":
            return [uri.origin()]
        if head == "path":
            segments = uri.path_segments()
            if len(self.parts) == 1:
                return [uri.path]
            index = self.parts[1]
            if isinstance(index, int) and 0 <= index < len(segments):
                return [segments[index]]
            return []
        return []

    def _extract_body(self, body: Any) -> List[Any]:
        if isinstance(body, FormBody):
            if not self.parts:
                return [body.to_wire()]
            key = str(self.parts[0])
            return self._pick(body.get_all(key))
        if isinstance(body, JsonBody):
            return _json_walk(body.value, self.parts)
        if isinstance(body, BlobBody):
            return [body.label] if not self.parts else []
        return []

    def assign(self, message: Any, value: Any) -> bool:
        """Set the field at this path in ``message`` to ``value``.

        Returns ``True`` when the assignment landed.  ``[]`` parts are
        not assignable (instances are replicated per element instead —
        §4.2 of the paper).
        """
        if ALL in self.parts:
            raise ValueError("cannot assign through []: {}".format(self.to_string()))
        if self.root == "method":
            message.method = str(value)
            return True
        if self.root == "header":
            name = str(self.parts[0])
            values = message.headers.get_all(name)
            if self.occurrence < len(values):
                values[self.occurrence] = str(value)
            else:
                values.append(str(value))
            message.headers.remove(name)
            for item in values:
                message.headers.add(name, item)
            return True
        if self.root == "query":
            key = str(self.parts[0])
            landed = _set_nth(message.uri.query, key, self.occurrence, str(value))
            if landed:
                message.uri.touch()  # in-place list write; bump exact_key stamp
            return landed
        if self.root == "uri":
            landed = self._assign_uri(message.uri, value)
            if landed:
                message.uri.touch()
            return landed
        if self.root == "body":
            landed = self._assign_body(message, value)
            # covers nested JSON writes too, and a miss: a JSON write can
            # create intermediate objects before it finds no slot
            message.body.touch()
            return landed
        return False

    def _assign_uri(self, uri: Any, value: Any) -> bool:
        if not self.parts:
            parsed = type(uri).parse(str(value))
            uri.scheme = parsed.scheme
            uri.host = parsed.host
            uri.port = parsed.port
            uri.path = parsed.path
            uri.query = parsed.query
            return True
        head = self.parts[0]
        if head == "host":
            uri.host = str(value)
            return True
        if head == "scheme":
            uri.scheme = str(value)
            return True
        if head == "origin":
            scheme, _, host = str(value).partition("://")
            uri.scheme = scheme
            host_only, colon, port = host.partition(":")
            uri.host = host_only
            uri.port = int(port) if colon else None
            return True
        if head == "path":
            if len(self.parts) == 1:
                uri.path = str(value)
                return True
            index = self.parts[1]
            segments = uri.path_segments()
            if isinstance(index, int) and 0 <= index < len(segments):
                segments[index] = str(value)
                uri.path = "/" + "/".join(segments)
                return True
        return False

    def _assign_body(self, message: Any, value: Any) -> bool:
        body = message.body
        if isinstance(body, FormBody):
            if not self.parts:
                return False
            key = str(self.parts[0])
            return _set_nth(body.fields, key, self.occurrence, str(value))
        if isinstance(body, JsonBody):
            return _json_set(body.value, self.parts, value)
        return False

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def child(self, part: PathPart) -> "FieldPath":
        return FieldPath(self.root, self.parts + (part,), self.occurrence)

    def _pick(self, values: List[Any]) -> List[Any]:
        """Select by occurrence when one was requested."""
        if self.occurrence == 0 and len(values) <= 1:
            return values
        if self.occurrence < len(values):
            return [values[self.occurrence]]
        return []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldPath):
            return NotImplemented
        return (self.root, self.parts, self.occurrence) == (
            other.root,
            other.parts,
            other.occurrence,
        )

    def __hash__(self) -> int:
        return hash((self.root, self.parts, self.occurrence))

    def __repr__(self) -> str:
        return "FieldPath({!r})".format(self.to_string())


#: characters with structural meaning in the textual path form; literal
#: occurrences inside keys (e.g. the form key ``_cap[]``) are escaped
_KEY_ESCAPES = [("%", "%25"), (".", "%2E"), ("[", "%5B"), ("]", "%5D"), ("~", "%7E")]


def _escape_key(key: str) -> str:
    for char, escaped in _KEY_ESCAPES:
        key = key.replace(char, escaped)
    return key


def _unescape_key(key: str) -> str:
    for char, escaped in reversed(_KEY_ESCAPES):
        key = key.replace(escaped, char)
    return key


def _set_nth(pairs: List[Tuple[str, str]], key: str, occurrence: int, value: str) -> bool:
    """Set the n-th pair with ``key`` in an ordered pair list (in place).

    Appends when fewer than ``occurrence + 1`` occurrences exist.
    """
    seen = 0
    for index, (name, _) in enumerate(pairs):
        if name == key:
            if seen == occurrence:
                pairs[index] = (key, value)
                return True
            seen += 1
    pairs.append((key, value))
    return True


def _json_walk(value: Any, parts: Sequence[PathPart]) -> List[Any]:
    """All values reached by following ``parts`` through a JSON value."""
    current: List[Any] = [value]
    for part in parts:
        next_values: List[Any] = []
        for node in current:
            if part == ALL:
                if isinstance(node, list):
                    next_values.extend(node)
            elif isinstance(part, int):
                if isinstance(node, list) and 0 <= part < len(node):
                    next_values.append(node[part])
            else:
                if isinstance(node, dict) and part in node:
                    next_values.append(node[part])
        current = next_values
        if not current:
            return []
    return current


def _json_set(value: Any, parts: Sequence[PathPart], new_value: Any) -> bool:
    """Set a single (non-``[]``) path inside a JSON value in place."""
    if not parts:
        return False
    node = value
    for part in parts[:-1]:
        if isinstance(part, int):
            if not isinstance(node, list) or not 0 <= part < len(node):
                return False
            node = node[part]
        else:
            if not isinstance(node, dict):
                return False
            node = node.setdefault(str(part), {})
    last = parts[-1]
    if isinstance(last, int):
        if isinstance(node, list) and 0 <= last < len(node):
            node[last] = new_value
            return True
        return False
    if isinstance(node, dict):
        node[str(last)] = new_value
        return True
    return False
