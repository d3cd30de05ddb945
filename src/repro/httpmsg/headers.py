"""Case-insensitive, order-preserving HTTP header collection."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class Headers:
    """HTTP headers: case-insensitive lookup, insertion order preserved.

    Multiple values for the same header name are supported (needed for
    ``Set-Cookie`` and for APPx's ``add_header`` configuration policy).
    """

    #: mutation counter; :meth:`Request.exact_key` and :meth:`wire_size`
    #: stamp their memos with it, so every mutator must bump it
    _version = 0
    #: (``_version``, size) from the last :meth:`wire_size`
    _sized: Tuple[int, int] = (-1, 0)

    def __init__(self, items: Optional[List[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        self._index: Dict[str, List[int]] = {}
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header, keeping any existing values for ``name``.

        Values are canonicalized like HTTP does: optional whitespace
        around the field value is not significant and is stripped.
        """
        self._index.setdefault(name.lower(), []).append(len(self._items))
        self._items.append((name, str(value).strip()))
        self._version += 1

    def set(self, name: str, value: str) -> None:
        """Replace all values of ``name`` with a single ``value``."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> None:
        key = name.lower()
        if key not in self._index:
            return
        drop = set(self._index.pop(key))
        kept = [item for i, item in enumerate(self._items) if i not in drop]
        self._items = []
        self._index = {}
        for item_name, item_value in kept:
            self.add(item_name, item_value)
        self._version += 1

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value of ``name``, or ``default``."""
        positions = self._index.get(name.lower())
        if not positions:
            return default
        return self._items[positions[0]][1]

    def get_all(self, name: str) -> List[str]:
        positions = self._index.get(name.lower(), [])
        return [self._items[i][1] for i in positions]

    def names(self) -> List[str]:
        """Header names in first-appearance order (original casing)."""
        seen = set()
        ordered = []
        for name, _ in self._items:
            key = name.lower()
            if key not in seen:
                seen.add(key)
                ordered.append(name)
        return ordered

    def items(self) -> List[Tuple[str, str]]:
        return list(self._items)

    def copy(self) -> "Headers":
        return Headers(self._items)

    def wire_size(self) -> int:
        """Bytes this header block occupies on the wire."""
        version, size = self._sized
        if version != self._version:
            size = sum(len(n) + len(v) + 4 for n, v in self._items)  # "N: V\r\n"
            self._sized = (self._version, size)
        return size

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        mine = sorted((n.lower(), v) for n, v in self._items)
        theirs = sorted((n.lower(), v) for n, v in other._items)
        return mine == theirs

    def __repr__(self) -> str:
        return "Headers({!r})".format(self._items)
