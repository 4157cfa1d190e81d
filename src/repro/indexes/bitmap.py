"""Bitmap and bit-slice indexes (slide 80).

InterSystems Caché "uses a series of highly compressed bitstrings to
represent the set of object IDs" per indexed value, "extended with bitslice
index for numeric data fields used for a SUM, COUNT, or AVG".  Oracle builds
bitmaps over ``json_exists`` results.

:class:`BitmapIndex` maps each distinct (low-cardinality) value to a bitmap
over a dense row-number space; boolean predicates combine via bitwise
AND/OR/NOT, which is what makes them fast for multi-predicate analytics.
:class:`BitSliceIndex` stores one bitmap per bit position of a non-negative
integer field so SUM/COUNT can be computed from popcounts without touching
the rows — the Caché trick.

Bitmaps are plain Python ints (arbitrary-precision bit strings), which gives
genuinely bit-parallel AND/OR and :meth:`int.bit_count` popcounts.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional

from repro.core.datamodel import SortKey
from repro.errors import UnsupportedIndexOperationError
from repro.indexes.base import Index, IndexCapabilities, probe_token

__all__ = ["BitmapIndex", "BitSliceIndex"]


class BitmapIndex(Index):
    """Value → bitmap over a dense rid space.

    Record ids must be mappable to dense row numbers; callers either pass
    integer rids directly or let the index assign row numbers on first
    sight (the mapping is kept for translation back).
    """

    kind = "bitmap"
    capabilities = IndexCapabilities(point=True)

    def __init__(self, name: str = ""):
        self.name = name
        # probe_token(value) -> its bitmap, and the value itself.
        self._bitmaps: dict[Any, int] = {}
        self._values: dict[Any, Any] = {}
        self._rid_to_row: dict[Any, int] = {}
        self._row_to_rid: list[Any] = []
        self._live = 0  # bitmap of rows currently live

    # -- row-number management ----------------------------------------------

    def _row_of(self, rid: Any, create: bool) -> Optional[int]:
        row = self._rid_to_row.get(rid)
        if row is None and create:
            row = len(self._row_to_rid)
            self._rid_to_row[rid] = row
            self._row_to_rid.append(rid)
        return row

    def _rids_of(self, bitmap: int) -> list[Any]:
        result = []
        row = 0
        while bitmap:
            if bitmap & 1:
                result.append(self._row_to_rid[row])
            bitmap >>= 1
            row += 1
        return result

    # -- protocol ----------------------------------------------------------

    def insert(self, key: Any, rid: Any) -> None:
        row = self._row_of(rid, create=True)
        bit = 1 << row
        token = probe_token(key)
        self._bitmaps[token] = self._bitmaps.get(token, 0) | bit
        self._values.setdefault(token, key)
        self._live |= bit

    def delete(self, key: Any, rid: Any) -> None:
        row = self._row_of(rid, create=False)
        if row is None:
            return
        bit = 1 << row
        token = probe_token(key)
        if token in self._bitmaps:
            self._bitmaps[token] &= ~bit
            if not self._bitmaps[token]:
                del self._bitmaps[token]
                del self._values[token]
        self._live &= ~bit

    def search(self, key: Any) -> list[Any]:
        return self._rids_of(self._bitmaps.get(probe_token(key), 0))

    def clear(self) -> None:
        self.__init__(name=self.name)

    def __len__(self) -> int:
        return len(self._bitmaps)

    # -- bit-parallel combinators --------------------------------------------

    def bitmap_for(self, key: Any) -> int:
        return self._bitmaps.get(probe_token(key), 0)

    def search_any(self, keys: Iterable[Any]) -> list[Any]:
        """OR of the bitmaps for *keys* (the ``IN (…)`` fast path)."""
        bitmap = 0
        for key in keys:
            bitmap |= self.bitmap_for(key)
        return self._rids_of(bitmap)

    def search_not(self, key: Any) -> list[Any]:
        """Live rows whose value differs from *key*."""
        return self._rids_of(self._live & ~self.bitmap_for(key))

    def count(self, key: Any) -> int:
        """COUNT(*) WHERE column = key, without touching rows."""
        return self.bitmap_for(key).bit_count()

    def distinct_values(self) -> list[Any]:
        return sorted(self._values.values(), key=SortKey)

    def intersect_count(self, other: "BitmapIndex", key_a: Any, key_b: Any) -> int:
        """COUNT of rows matching both predicates (bitmap AND).

        Both indexes must share a rid space (built over the same table in
        the same order); the caller guarantees that, as real engines do.
        """
        return (self.bitmap_for(key_a) & other.bitmap_for(key_b)).bit_count()


class BitSliceIndex(Index):
    """Bit-slice index over a non-negative integer attribute (slide 80).

    Slice *b* holds a bitmap of rows whose value has bit *b* set; SUM is
    ``sum(popcount(slice_b & filter) << b)``.
    """

    kind = "bitslice"
    capabilities = IndexCapabilities(point=False)

    def __init__(self, name: str = ""):
        self.name = name
        self._slices: list[int] = []
        self._rid_to_row: dict[Any, int] = {}
        self._row_to_rid: list[Any] = []
        self._row_value: list[int] = []
        self._live = 0

    def insert(self, key: Any, rid: Any) -> None:
        if not isinstance(key, int) or isinstance(key, bool) or key < 0:
            raise UnsupportedIndexOperationError(
                "bit-slice indexes require non-negative integer values"
            )
        row = self._rid_to_row.get(rid)
        if row is None:
            row = len(self._row_to_rid)
            self._rid_to_row[rid] = row
            self._row_to_rid.append(rid)
            self._row_value.append(0)
        else:
            self._unset(row)
        bit = 1 << row
        self._live |= bit
        self._row_value[row] = key
        position = 0
        while key:
            if position == len(self._slices):
                self._slices.append(0)
            if key & 1:
                self._slices[position] |= bit
            key >>= 1
            position += 1

    def delete(self, key: Any, rid: Any) -> None:
        row = self._rid_to_row.get(rid)
        if row is None:
            return
        self._unset(row)
        self._live &= ~(1 << row)

    def _unset(self, row: int) -> None:
        bit = 1 << row
        for position in range(len(self._slices)):
            self._slices[position] &= ~bit
        self._row_value[row] = 0

    def search(self, key: Any) -> list[Any]:
        raise UnsupportedIndexOperationError(
            "bit-slice indexes answer aggregates (SUM/COUNT/AVG), not lookups"
        )

    def clear(self) -> None:
        self.__init__(name=self.name)

    def __len__(self) -> int:
        return self._live.bit_count()

    # -- aggregates ----------------------------------------------------------

    def total(self, filter_bitmap: Optional[int] = None) -> int:
        """SUM over live rows, optionally restricted by a filter bitmap
        (typically produced by a :class:`BitmapIndex` over the same table)."""
        mask = self._live if filter_bitmap is None else self._live & filter_bitmap
        return sum(
            (self._slices[position] & mask).bit_count() << position
            for position in range(len(self._slices))
        )

    def count(self, filter_bitmap: Optional[int] = None) -> int:
        mask = self._live if filter_bitmap is None else self._live & filter_bitmap
        return mask.bit_count()

    def average(self, filter_bitmap: Optional[int] = None) -> float:
        rows = self.count(filter_bitmap)
        if rows == 0:
            return 0.0
        return self.total(filter_bitmap) / rows
