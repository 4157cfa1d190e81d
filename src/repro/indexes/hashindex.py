"""Extendible hashing index.

Slide 79: "OrientDB — extendible hashing, significantly faster [than SB
trees for point lookups]"; ArangoDB's primary and edge indexes are hash
indexes, and DynamoDB partitions by hash.  This module implements classic
extendible hashing — a directory of 2^d pointers into buckets with local
depths, doubling the directory only when a full bucket's local depth equals
the global depth — so the point-lookup-vs-range trade-off of experiment E11
is structural, not simulated.

The digest only places an entry in the directory: probes, deletes and an
insert's duplicate check find it through a map keyed on
:func:`~repro.indexes.base.probe_token` (no digest, no collision).

Hash indexes deliberately cannot answer range queries (slide 79:
"user-defined [ArangoDB hash] indices … no range queries"); asking raises
:class:`UnsupportedIndexOperationError`.
"""

from __future__ import annotations

from typing import Any

from repro.core.datamodel import hash_value
from repro.errors import ConstraintViolationError, UnsupportedIndexOperationError
from repro.indexes.base import Index, IndexCapabilities, probe_token

__all__ = ["ExtendibleHashIndex"]


class _Bucket:
    __slots__ = ("local_depth", "entries")

    def __init__(self, local_depth: int):
        self.local_depth = local_depth
        # entries: list of [hash, key, rid, rid, ...] — a small open list;
        # the bucket capacity bounds its length (unless one digest fills it).
        self.entries: list[list] = []


class ExtendibleHashIndex(Index):
    """Extendible hash index over arbitrary data-model values."""

    kind = "hash"
    capabilities = IndexCapabilities(point=True)

    def __init__(self, bucket_capacity: int = 8, unique: bool = False, name: str = ""):
        if bucket_capacity < 1:
            raise ValueError("bucket capacity must be positive")
        self._capacity = bucket_capacity
        self._unique = unique
        self.name = name
        self._global_depth = 1
        bucket_a = _Bucket(local_depth=1)
        bucket_b = _Bucket(local_depth=1)
        self._directory: list[_Bucket] = [bucket_a, bucket_b]
        # probe_token(key) -> the key's entry in its bucket.
        self._slots: dict[Any, list] = {}

    # -- protocol ----------------------------------------------------------

    def insert(self, key: Any, rid: Any) -> None:
        token = probe_token(key)
        slot = self._slots.get(token)
        if slot is not None:
            if self._unique:
                raise ConstraintViolationError(
                    f"unique hash index {self.name or self.kind!r} "
                    f"already contains key {key!r}"
                )
            slot.append(rid)
            return
        hashed = hash_value(key)
        while True:
            bucket = self._bucket_for(hashed)
            # A full bucket whose entries all share the new key's digest
            # overflows: no split can ever separate them.
            if len(bucket.entries) < self._capacity or all(
                entry[0] == hashed for entry in bucket.entries
            ):
                slot = self._slots[token] = [hashed, key, rid]
                bucket.entries.append(slot)
                return
            self._split_bucket(hashed)

    def delete(self, key: Any, rid: Any) -> None:
        token = probe_token(key)
        slot = self._slots.get(token)
        if slot is None or rid not in slot[2:]:
            return
        del slot[slot.index(rid, 2)]
        if len(slot) == 2:
            self._bucket_for(slot[0]).entries.remove(slot)
            del self._slots[token]

    def search(self, key: Any) -> list[Any]:
        slot = self._slots.get(probe_token(key))
        if slot is None:
            return []
        return slot[2:]

    def range_search(self, low: Any = None, high: Any = None, **kwargs) -> list[Any]:
        raise UnsupportedIndexOperationError(
            "hash indexes cannot answer range queries (use a B+tree index)"
        )

    def clear(self) -> None:
        self.__init__(bucket_capacity=self._capacity, unique=self._unique, name=self.name)

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def entry_count(self) -> int:
        return sum(len(slot) - 2 for slot in self._slots.values())

    @property
    def global_depth(self) -> int:
        return self._global_depth

    @property
    def directory_size(self) -> int:
        return len(self._directory)

    # -- internals -----------------------------------------------------------

    def _bucket_for(self, hashed: int) -> _Bucket:
        return self._directory[hashed & ((1 << self._global_depth) - 1)]

    def _split_bucket(self, hashed: int) -> None:
        mask = (1 << self._global_depth) - 1
        bucket = self._directory[hashed & mask]
        if bucket.local_depth == self._global_depth:
            # Double the directory: each new slot aliases its low-bits twin.
            self._directory = self._directory + self._directory
            self._global_depth += 1
        new_depth = bucket.local_depth + 1
        bit = 1 << bucket.local_depth
        zero_bucket = _Bucket(new_depth)
        one_bucket = _Bucket(new_depth)
        for entry in bucket.entries:
            target = one_bucket if entry[0] & bit else zero_bucket
            target.entries.append(entry)
        # Repoint the 2^(global - local) slots of the old bucket: every
        # ``bit``-th from *hashed*'s low local-depth bits, alternating.
        self._directory[hashed & (bit - 1)::bit] = [zero_bucket, one_bucket] * (
            len(self._directory) >> new_depth
        )
