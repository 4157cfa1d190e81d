"""The common index protocol.

Every index structure in the subsystem (slides 78-82's taxonomy) implements
this small protocol so that :class:`repro.storage.views.IndexView` and the
query optimizer can treat them uniformly:

* ``insert(key, rid)`` — associate a record id with an indexed value;
* ``delete(key, rid)`` — remove one association;
* ``search(key) -> list[rid]`` — exact-match probe;
* ``clear()`` — drop all entries;
* ``__len__`` — number of distinct indexed values.

Ordered indexes additionally provide ``range_search(low, high)``; the
inverted indexes provide containment/key-existence probes; bitmap indexes
provide bit-parallel aggregates.  Capability flags let the optimizer pick a
structure without isinstance checks.
"""

from __future__ import annotations

from typing import Any

from repro.core.datamodel import normalize, value_token

__all__ = ["Index", "IndexCapabilities", "probe_token"]


def probe_token(key: Any) -> Any:
    """*key*'s :func:`~repro.core.datamodel.value_token`, the dict key an
    in-memory index files it under; what the model cannot hold (NaN, say)
    raises ``DataModelError``, as the stable digest does, not a miss."""
    kind = type(key)
    if kind is str or kind is int:
        return key
    return value_token(normalize(key))


class IndexCapabilities:
    """Declarative capabilities used by the optimizer's access-path choice."""

    def __init__(
        self,
        point: bool = True,
        range_: bool = False,
        containment: bool = False,
        key_exists: bool = False,
        text: bool = False,
    ):
        self.point = point
        self.range = range_
        self.containment = containment
        self.key_exists = key_exists
        self.text = text

    def __repr__(self) -> str:
        enabled = [
            name
            for name in ("point", "range", "containment", "key_exists", "text")
            if getattr(self, name)
        ]
        return f"IndexCapabilities({', '.join(enabled)})"


class Index:
    """Abstract base index; see module docstring for the protocol."""

    kind = "abstract"
    capabilities = IndexCapabilities()

    def insert(self, key: Any, rid: Any) -> None:
        raise NotImplementedError

    def delete(self, key: Any, rid: Any) -> None:
        raise NotImplementedError

    def search(self, key: Any) -> list[Any]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError
