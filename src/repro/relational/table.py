"""Relational tables over the shared backend.

A :class:`Table` is a schema-checked record store keyed by primary key, with
SQL-flavoured conveniences: ``select`` with predicate/projection/order/limit,
``where_equals`` using a secondary index when one exists, and JSON path
access into ``json`` columns (the PostgreSQL pattern of slides 37/73).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core import datamodel
from repro.core.context import BaseStore, EngineContext
from repro.errors import PrimaryKeyError
from repro.relational.schema import TableSchema
from repro.txn.manager import Transaction

__all__ = ["Table"]


class Table(BaseStore):
    """One relational table."""

    model = "rel"

    def __init__(self, context: EngineContext, schema: TableSchema):
        super().__init__(context, schema.name)
        self.schema = schema
        self.key_path = (schema.primary_key,)
        # Rows are dense (admit_row fills every schema column), so every
        # column is worth a typed segment + zone map.
        context.segments.register(self.namespace, schema.column_names)

    # -- DML -----------------------------------------------------------------

    def insert(self, row: dict, txn: Optional[Transaction] = None) -> Any:
        """Insert one row; returns its primary key."""
        admitted = self.schema.admit_row(row)
        key = admitted[self.schema.primary_key]
        if self._raw_get(key, txn) is not None:
            raise PrimaryKeyError(
                f"table {self.name!r}: duplicate primary key {key!r}"
            )
        self._put(key, admitted, txn)
        return key

    def insert_many(self, rows: list[dict], txn: Optional[Transaction] = None) -> int:
        for row in rows:
            self.insert(row, txn)
        return len(rows)

    def get(self, key: Any, txn: Optional[Transaction] = None) -> Optional[dict]:
        """Row by primary key (None when absent)."""
        return self._raw_get(key, txn)

    def update(
        self, key: Any, changes: dict, txn: Optional[Transaction] = None
    ) -> bool:
        """Apply column changes to one row; False when the key is absent."""
        current = self._raw_get(key, txn)
        if current is None:
            return False
        merged = dict(current)
        merged.update(changes)
        admitted = self.schema.admit_row(merged)
        if admitted[self.schema.primary_key] != key:
            raise PrimaryKeyError(
                f"table {self.name!r}: updates must not change the primary key"
            )
        self._put(key, admitted, txn)
        return True

    def replace(
        self, key: Any, row: dict, txn: Optional[Transaction] = None
    ) -> bool:
        """Whole-row replacement (unset columns revert to their defaults);
        False when the key is absent."""
        if self._raw_get(key, txn) is None:
            return False
        admitted = self.schema.admit_row(row)
        if admitted[self.schema.primary_key] != key:
            raise PrimaryKeyError(
                f"table {self.name!r}: REPLACE must not change the primary key"
            )
        self._put(key, admitted, txn)
        return True

    def delete(self, key: Any, txn: Optional[Transaction] = None) -> bool:
        return self._delete_key(key, txn)

    # -- queries ------------------------------------------------------------------

    def select(
        self,
        where: Optional[Callable[[dict], bool]] = None,
        columns: Optional[list[str]] = None,
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
        txn: Optional[Transaction] = None,
    ) -> list[dict]:
        """SELECT columns FROM self WHERE … ORDER BY … LIMIT …"""
        result = [
            row for row in self.scan_cursor(txn=txn) if where is None or where(row)
        ]
        if order_by is not None:
            self.schema.column(order_by)
            result.sort(
                key=lambda row: datamodel.SortKey(row.get(order_by)),
                reverse=descending,
            )
        if limit is not None:
            result = result[:limit]
        if columns is not None:
            for name in columns:
                self.schema.column(name)
            result = [{name: row.get(name) for name in columns} for row in result]
        return result

    def where_equals(
        self, column: str, value: Any, txn: Optional[Transaction] = None
    ) -> list[dict]:
        """Equality filter, served by a secondary index when available
        (inside a transaction too, under the visibility rule)."""
        self.schema.column(column)

        def equal(row: dict) -> bool:
            return datamodel.values_equal(row.get(column), value)

        index = self._context.indexes.find(self.namespace, (column,), "point")
        if index is None or value is None:  # an index holds no null
            return [row for row in self.scan_cursor(txn=txn) if equal(row)]
        found = self._index_records(index.search(value), txn, equal)
        return [row for row in found.values() if row is not None]

    def json_path(
        self,
        key: Any,
        column: str,
        path: tuple,
        txn: Optional[Transaction] = None,
    ) -> Any:
        """Navigate into a JSON column (slide 37's ``orders #> '{…}'``)."""
        row = self.get(key, txn)
        if row is None:
            return None
        return datamodel.deep_get(row.get(column), path)

    # -- DDL helpers -----------------------------------------------------------------

    def create_index(self, column: str, kind: str = "hash", unique: bool = False):
        """Secondary index on one column."""
        self.schema.column(column)
        return self._context.indexes.create_index(
            self.namespace, (column,), kind=kind, unique=unique
        )
