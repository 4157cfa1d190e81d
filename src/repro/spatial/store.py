"""Spatial store: geo-tagged records over the shared backend.

Completes the title figure's model list (Table, XML, JSON, Spatial, Text,
RDF): records carry a point or box geometry, an R-tree serves window and
nearest-neighbour queries, and everything participates in cross-model
transactions like every other store.

Records are stored as ``{"geometry": {"type": "point"|"box", …},
"properties": {…}}``; geometry follows a GeoJSON-flavoured dict shape so
documents can embed it too.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import datamodel
from repro.core.context import BaseStore, EngineContext
from repro.core.cursor import IteratorScanCursor, ScanCursor
from repro.errors import SchemaError
from repro.spatial.rtree import Rect, RTree
from repro.storage.log import LogEntry, LogOp
from repro.txn.manager import Transaction

__all__ = ["SpatialStore", "geometry_to_rect"]


def geometry_to_rect(geometry: dict) -> Rect:
    """Convert a geometry dict to its bounding :class:`Rect`."""
    if not isinstance(geometry, dict):
        raise SchemaError("geometry must be an object")
    kind = geometry.get("type")
    try:
        if kind == "point":
            return Rect.point(float(geometry["x"]), float(geometry["y"]))
        if kind == "box":
            return Rect(
                float(geometry["min_x"]),
                float(geometry["min_y"]),
                float(geometry["max_x"]),
                float(geometry["max_y"]),
            )
    except (KeyError, TypeError, ValueError) as error:
        raise SchemaError(f"bad geometry {geometry!r}: {error}") from error
    raise SchemaError(f"unknown geometry type {kind!r} (point or box)")


def _rect(record: dict) -> Rect:
    return geometry_to_rect(record["geometry"])


class SpatialStore(BaseStore):
    """Geo-keyed records with an R-tree maintained from the central log."""

    model = "geo"

    def __init__(self, context: EngineContext, name: str, rtree_fanout: int = 8):
        super().__init__(context, name)
        self._rtree = RTree(max_entries=rtree_fanout, name=f"rtree:{name}")
        context.log.subscribe(self._on_log_entry, self.namespace)

    # -- R-tree maintenance (committed data only, like all indexes) ------------

    def _on_log_entry(self, entry: LogEntry) -> None:
        if entry.op is LogOp.DROP_NAMESPACE:
            self._rtree.clear()
            return
        if entry.op in (LogOp.UPDATE, LogOp.DELETE) and entry.before is not None:
            self._rtree.delete(_rect(entry.before), entry.key)
        if entry.op in (LogOp.INSERT, LogOp.UPDATE):
            self._rtree.insert(_rect(entry.value), entry.key)

    # -- CRUD --------------------------------------------------------------------

    def put_point(
        self,
        key: str,
        x: float,
        y: float,
        properties: Optional[dict] = None,
        txn: Optional[Transaction] = None,
    ) -> None:
        self._put_record(
            key, {"type": "point", "x": float(x), "y": float(y)}, properties, txn
        )

    def put_box(
        self,
        key: str,
        min_x: float,
        min_y: float,
        max_x: float,
        max_y: float,
        properties: Optional[dict] = None,
        txn: Optional[Transaction] = None,
    ) -> None:
        geometry = {
            "type": "box",
            "min_x": float(min_x),
            "min_y": float(min_y),
            "max_x": float(max_x),
            "max_y": float(max_y),
        }
        geometry_to_rect(geometry)  # validates ordering
        self._put_record(key, geometry, properties, txn)

    def _put_record(
        self,
        key: str,
        geometry: dict,
        properties: Optional[dict],
        txn: Optional[Transaction],
    ) -> None:
        if not isinstance(key, str):
            raise SchemaError("spatial keys are strings")
        record = {
            "geometry": geometry,
            "properties": datamodel.normalize(properties or {}),
        }
        self._put(key, record, txn)

    def get(self, key: str, txn: Optional[Transaction] = None) -> Optional[dict]:
        return self._raw_get(key, txn)

    def delete(self, key: str, txn: Optional[Transaction] = None) -> bool:
        return self._delete_key(key, txn)

    def scan_cursor(self, txn: Optional[Transaction] = None) -> ScanCursor:
        """Unified batched scan: ``{"_key": key, "geometry": …,
        "properties": …}`` frames (key folded into the record, MMQL
        shape)."""
        return IteratorScanCursor(
            {"_key": key, **record} for key, record in self._raw_scan(txn)
        )

    # -- spatial queries -------------------------------------------------------------

    def window(
        self,
        min_x: float,
        min_y: float,
        max_x: float,
        max_y: float,
        txn: Optional[Transaction] = None,
    ) -> list[str]:
        """Keys whose geometry intersects the window, served by the R-tree
        (inside a transaction too, under the visibility rule)."""
        query = Rect(min_x, min_y, max_x, max_y)
        return self._sorted_keys(self._rtree.search_intersects(query), txn, query.intersects)

    def within(
        self,
        min_x: float,
        min_y: float,
        max_x: float,
        max_y: float,
        txn: Optional[Transaction] = None,
    ) -> list[str]:
        """Keys fully contained in the window."""
        query = Rect(min_x, min_y, max_x, max_y)
        return self._sorted_keys(self._rtree.search_contained_in(query), txn, query.contains)

    def _sorted_keys(self, keys: list, txn: Optional[Transaction], matches) -> list[str]:
        """The R-tree's *keys* as *txn* sees them, sorted; *matches* takes
        the rectangle of a record the visibility rule rechecks."""
        found = self._index_records(keys, txn, lambda record: matches(_rect(record)))
        return sorted(key for key, record in found.items() if record is not None)

    def nearest(
        self, x: float, y: float, k: int = 1, txn: Optional[Transaction] = None
    ) -> list[tuple[str, float]]:
        """k nearest keys to (x, y) as (key, distance).  The R-tree is asked
        for *k* more than the keys a transaction sees changed, so *k* of its
        answers are unchanged; those merge with the changed records."""
        asked = k
        while True:
            found = self._rtree.nearest(x, y, asked)
            changed = self._context.transactions.changed(txn, self.namespace)
            if asked >= k + len(changed):
                break
            asked = k + len(changed)
        scored = [(distance, key) for distance, key in found if key not in changed]
        for key, record in changed.items():
            if record is not None:
                scored.append((_rect(record).min_distance_to(x, y), key))
        return [(key, distance) for distance, key in sorted(scored)[:k]]

    @property
    def rtree(self) -> RTree:
        return self._rtree
