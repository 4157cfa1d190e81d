"""Columnar segments with zone maps — the analytic storage format.

The batched executor (PR 5) removed per-row *pipeline* overhead, but its
batches are still lists of per-row frame dicts: every scanned row pays a
``dict(frame)`` copy and every aggregate pays a compiled-closure call.
This module adds the storage half of the fix, the "specialized engine per
workload class" the tutorial's challenge #5 asks for:

* each registered namespace (relational and wide-column tables) is
  decomposed into fixed-size **column segments** (:data:`SEGMENT_ROWS`
  rows).  Inside a segment every column is a typed ``array`` (``'q'`` for
  int-only columns, ``'d'`` for float-only) or a plain object list for
  strings/mixed values, plus a null set and per-segment **min/max zone
  maps** under the engine's cross-type total order
  (:func:`repro.core.datamodel.compare` — NULL sorts lowest, so pruning
  stays conservative for NULL and mixed-type columns);
* a :class:`ColumnBatch` carries (segment, selection vector) through the
  executor pipeline next to ordinary row batches; operators that do not
  understand columns get an exact lazy :meth:`ColumnBatch.to_rows` pivot
  — segments keep references to the *stored* row dicts, so the pivot
  reproduces precisely what a row scan would have produced.

Maintenance follows the central-log architecture: :class:`SegmentManager`
is a :class:`repro.storage.views.StorageView` subscriber, so it only sees
**committed** entries, and it maintains the segments as writes commit:

* an INSERT of a new key appends to the tail segment;
* an UPDATE, or an INSERT of a key the segments already hold, replaces
  that one row in its segment **copy-on-write** — the replacement shares
  every unchanged column, and a scan that already took its snapshot sees
  none of the change;
* a value that no longer fits a typed column degrades only that column of
  that segment to an object list (and one that fits again re-types it),
  so a maintained segment always stores what a fresh build over its rows
  would; zone maps only widen, so pruning stays conservative;
* a DELETE marks the namespace dirty and the next scan rebuilds from the
  row view (see :class:`SegmentManager` for why).

The first scan builds from the row view too, which makes recovery free:
after a WAL replay the row view is authoritative.
"""

from __future__ import annotations

import threading
from array import array
from typing import Any, Iterable, Optional

from repro.core import datamodel
from repro.obs import metrics as obs_metrics
from repro.storage.log import CentralLog, LogEntry, LogOp
from repro.storage.views import RowView, StorageView

__all__ = [
    "SEGMENT_ROWS",
    "ColumnSegment",
    "ColumnBatch",
    "SegmentManager",
    "segment_may_match",
]

#: Rows per segment: small enough that a pruned segment skips real work,
#: large enough that the per-segment bookkeeping (zone-map check, batch
#: object) amortizes to noise over the typed-array kernels.
SEGMENT_ROWS = 1024

#: Column storage kinds.
_KIND_INT = "q"
_KIND_FLOAT = "d"
_KIND_OBJECT = "obj"

_MISSING = object()

obs_metrics.describe(
    "columnar_segment_rebuilds_total",
    "Columnar segment rebuilds from the row view (first scan, after a delete).",
)
obs_metrics.describe(
    "columnar_segments_pruned_total",
    "Segments skipped entirely by zone-map pruning.",
)
obs_metrics.describe(
    "columnar_kernel_rows_total",
    "Rows processed by vectorized columnar kernels, by kernel type.",
)


def _classify(values: list) -> str:
    """Pick the storage kind for a freshly built column."""
    kind: Optional[str] = None
    for value in values:
        if value is None:
            continue
        value_type = type(value)
        if value_type is int:
            candidate = _KIND_INT
        elif value_type is float:
            candidate = _KIND_FLOAT
        else:
            return _KIND_OBJECT
        if kind is None:
            kind = candidate
        elif kind != candidate:
            # Mixed int/float stays an object list so stored values round-
            # trip exactly (1 stays int, 1.0 stays float).
            return _KIND_OBJECT
    return kind if kind is not None else _KIND_OBJECT


def _store(values: list) -> tuple:
    """``(kind, column)`` for one column's values, as a fresh build
    stores them: a typed array when :func:`_classify` allows it and every
    int fits 64 bits, else the list itself."""
    kind = _classify(values)
    if kind == _KIND_OBJECT:
        return kind, values
    try:
        return kind, array(
            kind, [0 if value is None else value for value in values]
        )
    except OverflowError:
        # An int outside the 64-bit range: keep objects.
        return _KIND_OBJECT, values


def _typable(value: Any) -> bool:
    """True for the values a typed column holds (an int or a float)."""
    value_type = type(value)
    return value_type is int or value_type is float


class ColumnSegment:
    """One fixed-size run of rows, decomposed per column.

    ``rows`` holds the *stored* record dicts (the same objects the row
    view holds), which is what makes :meth:`ColumnBatch.to_rows` exact.
    ``columns[name]`` is an ``array('q')``/``array('d')`` (nulls stored as
    a 0 sentinel, tracked in ``nulls[name]``) or a plain list;
    ``zone_min``/``zone_max`` cover **all** values of the column
    including NULLs, under the model total order."""

    __slots__ = ("rows", "columns", "kinds", "nulls", "zone_min", "zone_max")

    def __init__(self, rows: list, column_names: Iterable[str]):
        self.rows = rows
        self.columns: dict[str, Any] = {}
        self.kinds: dict[str, str] = {}
        self.nulls: dict[str, set] = {}
        self.zone_min: dict[str, Any] = {}
        self.zone_max: dict[str, Any] = {}
        sort_key = datamodel.SortKey
        for name in column_names:
            values = [row.get(name) for row in rows]
            kind, column = _store(values)
            nulls = {
                position
                for position, value in enumerate(values)
                if value is None
            }
            self.columns[name] = column
            self.kinds[name] = kind
            if nulls:
                self.nulls[name] = nulls
            if not values:
                continue
            if kind == _KIND_OBJECT:
                self.zone_min[name] = min(values, key=sort_key)
                self.zone_max[name] = max(values, key=sort_key)
            else:
                # All int or all float besides the NULLs (and at least one
                # of them): their own order is the model's, NULL is lowest.
                present = (
                    [value for value in values if value is not None]
                    if nulls else values
                )
                self.zone_min[name] = None if nulls else min(present)
                self.zone_max[name] = max(present)

    def __len__(self) -> int:
        return len(self.rows)

    def _degrade(self, name: str) -> list:
        """Convert a typed column to an object list (a value arrived that
        no longer fits the array type)."""
        column = self.columns[name]
        nulls = self.nulls.get(name, ())
        values = [
            None if position in nulls else value
            for position, value in enumerate(column)
        ]
        self.columns[name] = values
        self.kinds[name] = _KIND_OBJECT
        return values

    def _widen(self, name: str, value: Any) -> None:
        """Stretch the zone map over *value*; it never narrows, so pruning
        stays conservative whatever a patch replaced."""
        zone_min = self.zone_min.get(name, _MISSING)
        if zone_min is _MISSING:
            self.zone_min[name] = value
            self.zone_max[name] = value
            return
        compare = datamodel.compare
        if compare(value, zone_min) < 0:
            self.zone_min[name] = value
        if compare(value, self.zone_max[name]) > 0:
            self.zone_max[name] = value

    def append(self, row: dict) -> None:
        """Append one stored row, maintaining columns and zone maps.

        The segment stays equal to a fresh build over its rows (zone maps
        aside): a column that held only NULLs — every column of a new
        tail segment — becomes a typed array at its first number."""
        position = len(self.rows)
        self.rows.append(row)
        for name, column in self.columns.items():
            value = row.get(name)
            kind = self.kinds[name]
            if value is None:
                self.nulls.setdefault(name, set()).add(position)
                column.append(0 if kind != _KIND_OBJECT else None)
            elif kind == _KIND_INT and type(value) is int:
                try:
                    column.append(value)
                except OverflowError:
                    self._degrade(name).append(value)
            elif kind == _KIND_FLOAT and type(value) is float:
                column.append(value)
            elif kind == _KIND_OBJECT:
                if _typable(value) and len(
                    self.nulls.get(name, ())
                ) == position:
                    self.kinds[name], self.columns[name] = _store(
                        column + [value]
                    )
                else:
                    column.append(value)
            else:
                self._degrade(name).append(value)
            self._widen(name, value)

    def replaced(self, position: int, row: dict) -> "ColumnSegment":
        """A copy of this segment with the row at *position* replaced —
        the copy-on-write patch a committed UPDATE makes.

        The copy shares every column the new row leaves unchanged and
        copies ``rows`` and the changed columns only, so a scan holding
        this segment sees none of the change.  Each changed column ends as
        a fresh build over the new rows would store it (a value that no
        longer fits degrades only that column; one that fits again re-
        types it); zone maps only widen."""
        clone = ColumnSegment.__new__(ColumnSegment)
        clone.rows = list(self.rows)
        before = clone.rows[position]
        clone.rows[position] = row
        clone.columns = dict(self.columns)
        clone.kinds = dict(self.kinds)
        clone.nulls = dict(self.nulls)
        clone.zone_min = dict(self.zone_min)
        clone.zone_max = dict(self.zone_max)
        for name in self.columns:
            value = row.get(name)
            old = before.get(name)
            if value is old or (
                type(value) is type(old)
                and (type(value) is int or type(value) is str)
                and value == old
            ):
                continue
            clone._write(name, position, value)
        return clone

    def _write(self, name: str, position: int, value: Any) -> None:
        """Store *value* at *position* of column *name* in fresh objects
        (the column and, when it changes, its null set)."""
        nulls = self.nulls.get(name)
        if value is None:
            nulls = set(nulls) if nulls else set()
            nulls.add(position)
            self.nulls[name] = nulls
        elif nulls and position in nulls:
            nulls = set(nulls)
            nulls.discard(position)
            if nulls:
                self.nulls[name] = nulls
            else:
                del self.nulls[name]
        self._widen(name, value)
        kind = self.kinds[name]
        column = self.columns[name]
        if kind != _KIND_OBJECT:
            fits = (
                len(self.nulls[name]) < len(self.rows)
                if value is None
                else type(value) is (int if kind == _KIND_INT else float)
            )
            if fits:
                column = column[:]
                try:
                    column[position] = 0 if value is None else value
                except OverflowError:
                    pass
                else:
                    self.columns[name] = column
                    return
            values = self._degrade(name)
        else:
            values = list(column)
        values[position] = value
        if value is None or _typable(value):
            self.kinds[name], self.columns[name] = _store(values)
        else:
            self.columns[name] = values
            self.kinds[name] = _KIND_OBJECT


def segment_may_match(
    segment: ColumnSegment, column: str, op: str, value: Any
) -> bool:
    """Conservative zone-map check: ``False`` only when **no** row of the
    segment can satisfy ``column <op> value`` under the model total order.

    NULL has the lowest type tag, so a column containing NULLs gets
    ``zone_min == None`` — which correctly keeps the segment alive for
    ``<``/``<=`` predicates (NULL compares below every number) and lets
    ``>``/``>=``/``==`` prune through NULLs."""
    zone_min = segment.zone_min.get(column, _MISSING)
    if zone_min is _MISSING:
        return True
    compare = datamodel.compare
    low = compare(zone_min, value)
    high = compare(segment.zone_max[column], value)
    if op == "==":
        return low <= 0 <= high
    if op == ">":
        return high > 0
    if op == ">=":
        return high >= 0
    if op == "<":
        return low < 0
    if op == "<=":
        return low <= 0
    return True


class ColumnBatch:
    """A pipeline batch in columnar form: one segment view plus an
    optional selection vector (row positions that survived filtering).

    Columnar-aware operators (filter kernels, COLLECT aggregates, RETURN
    projections) read the typed columns directly; everything else —
    probes, SORT, LIMIT slicing, nested FOR, DML — falls back through the
    sequence protocol, which pivots lazily (and exactly) to the row
    frames a row scan would have produced."""

    __slots__ = ("var", "base", "segment", "length", "selection", "_rows")

    def __init__(
        self,
        var: str,
        base: dict,
        segment: ColumnSegment,
        length: int,
        selection: Optional[list] = None,
    ):
        self.var = var
        self.base = base
        self.segment = segment
        #: Row count captured at scan time — the tail segment may grow
        #: concurrently; positions >= length are never read.
        self.length = length
        self.selection = selection
        self._rows: Optional[list] = None

    def indices(self):
        """Selected row positions, scan order."""
        if self.selection is None:
            return range(self.length)
        return self.selection

    def with_selection(self, selection: list) -> "ColumnBatch":
        return ColumnBatch(
            self.var, self.base, self.segment, self.length, selection
        )

    def to_rows(self) -> list:
        """Pivot to ordinary frame batches (cached).  Exact: the stored
        row dicts are reused, so sparse wide-column rows, nested values
        and object identity all match the row-scan path."""
        rows = self._rows
        if rows is None:
            stored = self.segment.rows
            var = self.var
            base = self.base
            if base:
                rows = []
                for position in self.indices():
                    frame = dict(base)
                    frame[var] = stored[position]
                    rows.append(frame)
            else:
                rows = [{var: stored[position]} for position in self.indices()]
            self._rows = rows
        return rows

    def __len__(self) -> int:
        if self.selection is None:
            return self.length
        return len(self.selection)

    def __iter__(self):
        return iter(self.to_rows())

    def __getitem__(self, item):
        return self.to_rows()[item]


class _Namespace:
    __slots__ = (
        "column_names",
        "segments",
        "positions",
        "width",
        "dirty",
        "rebuilds",
        "appends",
        "patches",
    )

    def __init__(self, column_names: tuple):
        self.column_names = column_names
        self.segments: list[ColumnSegment] = []
        #: Key -> global row position (segment, offset = divmod by
        #: ``width``, the segment width of the last build).
        self.positions: dict = {}
        self.width = 1
        #: Dirty until the first scan builds the segments; set again by
        #: DELETE and by writes the position map cannot place.
        self.dirty = True
        self.rebuilds = 0
        self.appends = 0
        self.patches = 0


class SegmentManager(StorageView):
    """Maintains columnar segments for registered namespaces from the
    central log (commit-time entries only, like every storage view).

    * ``register(namespace, columns)`` — called by the relational and
      wide-column stores at creation; the first scan builds segments from
      the row view (so registering over existing data, or after a WAL
      replay, just works).
    * A key -> position map places every committed write.  INSERT of a
      new key appends to the tail segment; UPDATE, or INSERT of a key the
      segments already hold (a delete and re-insert inside one
      transaction), replaces that one row in its segment copy-on-write
      (:meth:`ColumnSegment.replaced`) — the segments stay in the row
      view's order, and no scan pays a rebuild.
    * DELETE marks the namespace dirty and the next scan rebuilds, on
      purpose: an eager per-segment rebuild would make a bulk ``REMOVE``
      cost O(rows x segment), and a tombstone selection vector would touch
      every kernel.  No workload deletes from a registered table.  An
      UPDATE of a key the map does not hold also marks it dirty; DROP and
      ``register`` reset.
    * ``segments_for_scan`` returns a snapshot list of
      ``(segment, row_count)`` pairs — the captured count shields readers
      from concurrent tail appends, and copy-on-write from patches.
    """

    name = "segments"

    def __init__(
        self,
        log: CentralLog,
        rows: RowView,
        segment_rows: int = SEGMENT_ROWS,
    ):
        self._rows = rows
        self._spaces: dict[str, _Namespace] = {}
        self._lock = threading.RLock()
        self.segment_rows = max(int(segment_rows), 1)
        # Subscribed per namespace, as each is registered.
        super().__init__(log, subscribe=False)

    # -- registration ------------------------------------------------------

    def register(self, namespace: str, column_names: Iterable[str]) -> None:
        """(Re)register a namespace for columnar maintenance."""
        with self._lock:
            if namespace not in self._spaces:
                self._log.subscribe(self.apply, namespace)
            self._spaces[namespace] = _Namespace(tuple(column_names))

    def registered(self, namespace: str) -> bool:
        return namespace in self._spaces

    # -- log maintenance ---------------------------------------------------

    def _apply_data(self, entry: LogEntry) -> None:
        space = self._spaces.get(entry.namespace)
        if space is None:
            return
        with self._lock:
            if space.dirty:
                return  # the next scan rebuilds from the row view
            row = entry.value
            if entry.op is LogOp.DELETE or not isinstance(row, dict):
                space.dirty = True
                return
            position = space.positions.get(entry.key)
            if position is not None:
                index, offset = divmod(position, space.width)
                segments = space.segments
                segments[index] = segments[index].replaced(offset, row)
                space.patches += 1
            elif entry.op is LogOp.INSERT:
                self._append(space, entry.key, row)
            else:
                space.dirty = True

    def _drop_namespace(self, namespace: str) -> None:
        space = self._spaces.get(namespace)
        if space is None:
            return
        with self._lock:
            space.segments = []
            space.positions = {}
            space.dirty = True

    def _append(self, space: _Namespace, key: Any, row: dict) -> None:
        segments = space.segments
        if not segments or len(segments[-1]) >= space.width:
            segments.append(ColumnSegment([], space.column_names))
        tail = segments[-1]
        space.positions[key] = (len(segments) - 1) * space.width + len(tail)
        tail.append(row)
        space.appends += 1

    # -- scanning ----------------------------------------------------------

    def _rebuild(self, namespace: str, space: _Namespace) -> None:
        items = list(self._rows.scan(namespace))
        rows = [value for _key, value in items]
        width = space.width = self.segment_rows
        space.segments = [
            ColumnSegment(rows[start:start + width], space.column_names)
            for start in range(0, len(rows), width)
        ]
        space.positions = {
            key: position for position, (key, _value) in enumerate(items)
        }
        space.dirty = False
        space.rebuilds += 1
        if obs_metrics.ENABLED:
            obs_metrics.counter("columnar_segment_rebuilds_total").inc()

    def segments_for_scan(
        self, namespace: str
    ) -> Optional[list[tuple[ColumnSegment, int]]]:
        """Snapshot of ``(segment, captured_row_count)`` pairs for a scan,
        or ``None`` when the namespace is not registered.  Rebuilds first
        when dirty."""
        with self._lock:
            space = self._spaces.get(namespace)
            if space is None:
                return None
            if space.dirty:
                self._rebuild(namespace, space)
            return [
                (segment, len(segment))
                for segment in space.segments
                if len(segment)
            ]

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "namespaces": len(self._spaces),
                "segments": sum(
                    len(space.segments) for space in self._spaces.values()
                ),
                "rows": sum(
                    len(segment)
                    for space in self._spaces.values()
                    for segment in space.segments
                ),
                "rebuilds": sum(
                    space.rebuilds for space in self._spaces.values()
                ),
                "appends": sum(
                    space.appends for space in self._spaces.values()
                ),
                "patches": sum(
                    space.patches for space in self._spaces.values()
                ),
            }
