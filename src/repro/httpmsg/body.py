"""HTTP message bodies.

Four concrete kinds cover everything the evaluated apps exchange:

* :class:`FormBody` — ``application/x-www-form-urlencoded`` key/value
  pairs, order-preserving and supporting repeated keys (Wish uses
  repeated ``_cap[]`` fields in its request bodies).
* :class:`JsonBody` — a JSON document (the dominant response format).
* :class:`BlobBody` — opaque binary content (images).  Content is
  modelled as a label plus a byte size; the simulator only needs the
  size, and equality uses the label.
* :class:`TextBody` / :class:`EmptyBody` — plain text and absent bodies.
"""

from __future__ import annotations

import json as _json
from typing import Any, List, Optional, Tuple

from repro.httpmsg.uri import quote, unquote


class Body:
    """Abstract message body."""

    kind = "abstract"

    #: mutation counter; :meth:`Request.exact_key` stamps its memo with
    #: it.  Immutable bodies never bump it (the class attribute stays
    #: 0); mutators call :meth:`touch` or ``self._version += 1``.
    _version = 0

    def touch(self) -> None:
        """Record an in-place mutation (e.g. nested JSON writes)."""
        self._version += 1

    def wire_size(self) -> int:
        raise NotImplementedError

    def content_type(self) -> Optional[str]:
        raise NotImplementedError

    def copy(self) -> "Body":
        raise NotImplementedError

    def to_wire(self) -> str:
        """Canonical textual form (blobs render as a placeholder)."""
        raise NotImplementedError


class EmptyBody(Body):
    kind = "empty"

    def wire_size(self) -> int:
        return 0

    def content_type(self) -> Optional[str]:
        return None

    def copy(self) -> "EmptyBody":
        return EmptyBody()

    def to_wire(self) -> str:
        return ""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EmptyBody)

    def __hash__(self) -> int:
        return hash("empty-body")

    def __repr__(self) -> str:
        return "EmptyBody()"


class FormBody(Body):
    """Order-preserving form-encoded body with repeated-key support."""

    kind = "form"

    def __init__(self, fields: Optional[List[Tuple[str, str]]] = None) -> None:
        self.fields: List[Tuple[str, str]] = [
            (str(k), str(v)) for k, v in (fields or [])
        ]

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def get_all(self, key: str) -> List[str]:
        return [value for name, value in self.fields if name == key]

    def set(self, key: str, value: str) -> None:
        """Replace the first occurrence of ``key`` (append if absent)."""
        self._version += 1
        for i, (name, _) in enumerate(self.fields):
            if name == key:
                self.fields[i] = (key, str(value))
                return
        self.fields.append((key, str(value)))

    def add(self, key: str, value: str) -> None:
        self.fields.append((str(key), str(value)))
        self._version += 1

    def remove(self, key: str) -> None:
        self.fields = [(n, v) for n, v in self.fields if n != key]
        self._version += 1

    def keys(self) -> List[str]:
        seen = set()
        ordered = []
        for name, _ in self.fields:
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        return ordered

    def wire_size(self) -> int:
        return len(self.to_wire().encode("utf-8"))

    def content_type(self) -> Optional[str]:
        return "application/x-www-form-urlencoded"

    def to_wire(self) -> str:
        return "&".join(
            "{}={}".format(quote(name), quote(value)) for name, value in self.fields
        )

    @classmethod
    def parse(cls, text: str) -> "FormBody":
        fields: List[Tuple[str, str]] = []
        if text:
            for pair in text.split("&"):
                key, _, value = pair.partition("=")
                fields.append((unquote(key), unquote(value)))
        return cls(fields)

    def copy(self) -> "FormBody":
        return FormBody(list(self.fields))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormBody):
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        return hash(tuple(self.fields))

    def __repr__(self) -> str:
        return "FormBody({!r})".format(self.fields)


class JsonBody(Body):
    """A JSON document body."""

    kind = "json"

    #: (``_version``, size) from the last :meth:`wire_size`; the size
    #: is memoised, not the text, so a cached body keeps no string alive
    _sized: Tuple[int, int] = (-1, 0)

    def __init__(self, value: Any) -> None:
        self.value = value

    def wire_size(self) -> int:
        # stamped like Request.exact_key: a write into ``value`` (or a
        # new ``value``) must touch() the body to be seen here
        version, size = self._sized
        if version != self._version:
            size = len(self.to_wire().encode("utf-8"))
            self._sized = (self._version, size)
        return size

    def content_type(self) -> Optional[str]:
        return "application/json"

    def to_wire(self) -> str:
        return _json.dumps(self.value, sort_keys=True, separators=(",", ":"))

    @classmethod
    def parse(cls, text: str) -> "JsonBody":
        return cls(_json.loads(text))

    def copy(self) -> "JsonBody":
        return JsonBody(_json.loads(self.to_wire()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JsonBody):
            return NotImplemented
        return self.to_wire() == other.to_wire()

    def __hash__(self) -> int:
        return hash(self.to_wire())

    def __repr__(self) -> str:
        return "JsonBody({!r})".format(self.value)


class TextBody(Body):
    kind = "text"

    def __init__(self, text: str) -> None:
        self.text = str(text)

    def wire_size(self) -> int:
        return len(self.text.encode("utf-8"))

    def content_type(self) -> Optional[str]:
        return "text/plain"

    def to_wire(self) -> str:
        return self.text

    def copy(self) -> "TextBody":
        return TextBody(self.text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TextBody):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash(("text-body", self.text))

    def __repr__(self) -> str:
        return "TextBody({!r})".format(self.text)


class BlobBody(Body):
    """Opaque binary content, modelled as label + size.

    Images dominate the byte counts in the paper's evaluation (Wish
    product images average ~315 KB, Postmates restaurant images
    ~168 KB); only their sizes matter to the simulator.
    """

    kind = "blob"

    def __init__(self, label: str, size: int, media_type: str = "image/jpeg") -> None:
        if size < 0:
            raise ValueError("blob size must be non-negative")
        self.label = label
        self.size = int(size)
        self.media_type = media_type

    def wire_size(self) -> int:
        return self.size

    def content_type(self) -> Optional[str]:
        return self.media_type

    def to_wire(self) -> str:
        return "<blob {} {} bytes>".format(self.label, self.size)

    def copy(self) -> "BlobBody":
        return BlobBody(self.label, self.size, self.media_type)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlobBody):
            return NotImplemented
        return (self.label, self.size, self.media_type) == (
            other.label,
            other.size,
            other.media_type,
        )

    def __hash__(self) -> int:
        return hash((self.label, self.size, self.media_type))

    def __repr__(self) -> str:
        return "BlobBody({!r}, size={})".format(self.label, self.size)
