"""Key/value buckets (the Riak / Oracle NoSQL / Redis-adjacent model).

A :class:`KeyValueBucket` is the simplest veneer over the shared backend:
string keys, arbitrary data-model values, the "Simple API" of slide 70
(store / retrieve / delete) plus:

* TTL expiry on a logical clock (``tick`` advances it — deterministic, per
  DESIGN.md conventions);
* counters and CRDT values (:mod:`repro.keyvalue.crdt`), the Riak data
  types;
* multi-get and prefix scans (DynamoDB-style partition-local queries).

Values stored in a bucket are wrapped in an envelope ``{"value": …,
"expires_at": …}`` so expiry metadata travels with the record through the
central log and any storage view.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core import datamodel
from repro.core.context import BaseStore, EngineContext
from repro.core.cursor import IteratorScanCursor, ScanCursor
from repro.errors import DataModelError
from repro.keyvalue.crdt import crdt_from_dict
from repro.txn.manager import Transaction

__all__ = ["KeyValueBucket"]


class KeyValueBucket(BaseStore):
    """One key/value bucket."""

    model = "kv"
    key_path = ("_key",)

    def __init__(self, context: EngineContext, name: str):
        super().__init__(context, name)
        self._clock = 0  # logical time for TTL

    # -- logical time -------------------------------------------------------------

    def tick(self, steps: int = 1) -> int:
        """Advance the bucket's logical clock (TTL expiry unit)."""
        self._clock += steps
        return self._clock

    @property
    def now(self) -> int:
        return self._clock

    # -- simple API (slide 70) -------------------------------------------------------

    def put(
        self,
        key: str,
        value: Any,
        ttl: Optional[int] = None,
        txn: Optional[Transaction] = None,
    ) -> None:
        """Store *value* under *key*; ``ttl`` is in logical ticks."""
        if not isinstance(key, str):
            raise DataModelError("key/value keys are strings")
        envelope = {
            "value": datamodel.normalize(value),
            "expires_at": None if ttl is None else self._clock + ttl,
        }
        self._put(key, envelope, txn)

    def get(self, key: str, txn: Optional[Transaction] = None) -> Any:
        """Value for *key*, or None when absent or expired."""
        envelope = self._raw_get(key, txn)
        if envelope is None:
            return None
        if self._expired(envelope):
            return None
        return envelope["value"]

    def get_many(
        self, keys: list[str], txn: Optional[Transaction] = None
    ) -> dict[str, Any]:
        """Multi-get: only present, unexpired keys appear in the result."""
        result = {}
        for key in keys:
            value = self.get(key, txn)
            if value is not None:
                result[key] = value
        return result

    def delete(self, key: str, txn: Optional[Transaction] = None) -> bool:
        return self._delete_key(key, txn)

    def keys(self, txn: Optional[Transaction] = None) -> Iterator[str]:
        for key, envelope in self._raw_scan(txn):
            if not self._expired(envelope):
                yield key

    def scan_cursor(
        self,
        txn: Optional[Transaction] = None,
        prefix: Optional[str] = None,
    ) -> ScanCursor:
        """Unified batched scan: ``{"_key": key, "value": value}`` frames
        for every live (unexpired) entry; ``prefix`` narrows to keys
        sharing it (the DynamoDB sort-key pattern, unified here instead of
        the bespoke ``scan_prefix``)."""
        expired = self._expired

        def _frames():
            for key, envelope in self._raw_scan(txn):
                if expired(envelope):
                    continue
                if prefix is not None and not key.startswith(prefix):
                    continue
                yield {"_key": key, "value": envelope["value"]}

        return IteratorScanCursor(_frames())

    def keyed_frame(self, key: Any, txn: Optional[Transaction] = None) -> Optional[dict]:
        """The scan frame of *key* (``{"_key": key, "value": value}``), or
        None when it is absent or expired — a stored NULL is a frame."""
        envelope = self._raw_get(key, txn)
        if envelope is None or self._expired(envelope):
            return None
        return {"_key": key, "value": envelope["value"]}

    def _expired(self, envelope: dict) -> bool:
        expires_at = envelope.get("expires_at")
        return expires_at is not None and expires_at <= self._clock

    def purge_expired(self) -> int:
        """Physically delete expired entries; returns how many."""
        doomed = [
            key
            for key, envelope in self._raw_scan(None)
            if self._expired(envelope)
        ]
        for key in doomed:
            self._delete_key(key)
        return len(doomed)

    # -- counters ---------------------------------------------------------------------

    def increment(
        self, key: str, amount: int = 1, txn: Optional[Transaction] = None
    ) -> int:
        """Atomic numeric counter (creates at 0); returns the new value."""
        current = self.get(key, txn)
        if current is None:
            current = 0
        if datamodel.type_of(current) is not datamodel.TypeTag.NUMBER:
            raise DataModelError(
                f"key {key!r} holds a {datamodel.type_name(current)}, "
                "not a counter"
            )
        new_value = current + amount
        self.put(key, new_value, txn=txn)
        return new_value

    # -- CRDT values (Riak data types, slide 49) -----------------------------------------

    def put_crdt(self, key: str, crdt: Any, txn: Optional[Transaction] = None) -> None:
        """Store a CRDT by its dict form; merges with any stored replica
        instead of overwriting (the convergent write path)."""
        stored = self.get(key, txn)
        if stored is not None:
            crdt = crdt_from_dict(stored).merge(crdt)
        self.put(key, crdt.to_dict(), txn=txn)

    def get_crdt(self, key: str, txn: Optional[Transaction] = None) -> Any:
        stored = self.get(key, txn)
        if stored is None:
            return None
        return crdt_from_dict(stored)
