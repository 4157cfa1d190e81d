"""Wide-column tables with CQL-style JSON support (slides 41-46).

"Cassandra — column store with sparse tables… 2015: JSON format (schema of
tables must be defined): keys → column names, JSON values → column values."

This module reproduces the slide examples:

* user-defined types (``CREATE TYPE orderline (product_no text, …)``) via
  :class:`UserDefinedType`;
* tables whose columns may be scalars, UDTs, or ``list<frozen<udt>>``
  (:class:`WideColumnTable` with :class:`CqlColumn`);
* ``INSERT INTO … JSON '{…}'`` — :meth:`WideColumnTable.insert_json`;
* ``SELECT JSON * FROM …`` — :meth:`WideColumnTable.select_json`, which
  prints rows back as JSON exactly like slide 46's
  ``{"id": "Irena", "age": 37, "country": "CZ"}``.

Rows are *sparse*: unset columns simply don't exist in storage (the
wide-column property), and reappear as ``null`` in SELECT JSON output.
The query engine scans them through the per-column decomposition of the
columnar segments (:mod:`repro.storage.segments`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import datamodel
from repro.core.context import BaseStore, EngineContext
from repro.errors import ConstraintViolationError, PrimaryKeyError, SchemaError
from repro.txn.manager import Transaction

__all__ = ["UserDefinedType", "CqlColumn", "WideColumnTable"]

_SCALAR_TYPES = ("text", "int", "float", "boolean")


@dataclass(frozen=True)
class UserDefinedType:
    """``CREATE TYPE name (field type, …)`` — fields are scalars or nested
    UDTs (Cassandra allows frozen nesting)."""

    name: str
    fields: tuple[tuple[str, Any], ...]  # (field name, type spec)

    def validate(self, value: Any, context: str) -> dict:
        if datamodel.type_of(value) is not datamodel.TypeTag.OBJECT:
            raise ConstraintViolationError(
                f"{context}: UDT {self.name!r} expects an object"
            )
        unknown = set(value) - {name for name, _spec in self.fields}
        if unknown:
            raise ConstraintViolationError(
                f"{context}: UDT {self.name!r} has no fields {sorted(unknown)}"
            )
        admitted = {}
        for field_name, spec in self.fields:
            if field_name in value:
                admitted[field_name] = _validate_spec(
                    spec, value[field_name], f"{context}.{field_name}"
                )
        return admitted


def _validate_spec(spec: Any, value: Any, context: str) -> Any:
    """Validate one value against a type spec: a scalar type name, a
    :class:`UserDefinedType`, or ``("list", inner_spec)``."""
    if value is None:
        return None
    if isinstance(spec, UserDefinedType):
        return spec.validate(value, context)
    if isinstance(spec, tuple) and spec and spec[0] == "list":
        if datamodel.type_of(value) is not datamodel.TypeTag.ARRAY:
            raise ConstraintViolationError(f"{context}: expected a list")
        return [
            _validate_spec(spec[1], item, f"{context}[{index}]")
            for index, item in enumerate(value)
        ]
    if spec == "text":
        if not isinstance(value, str):
            raise ConstraintViolationError(f"{context}: expected text")
        return value
    if spec == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConstraintViolationError(f"{context}: expected int")
        return value
    if spec == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConstraintViolationError(f"{context}: expected float")
        return float(value)
    if spec == "boolean":
        if not isinstance(value, bool):
            raise ConstraintViolationError(f"{context}: expected boolean")
        return value
    raise SchemaError(f"unknown CQL type spec {spec!r}")


@dataclass(frozen=True)
class CqlColumn:
    """One column: name + type spec (scalar name, UDT, or ("list", spec))."""

    name: str
    spec: Any


class WideColumnTable(BaseStore):
    """A sparse, schema-defined wide-column table."""

    model = "wide"

    def __init__(
        self,
        context: EngineContext,
        name: str,
        columns: list[CqlColumn],
        primary_key: str,
    ):
        super().__init__(context, name)
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate columns in table {name!r}")
        if primary_key not in names:
            raise SchemaError(f"primary key {primary_key!r} is not a column")
        self.columns = {column.name: column for column in columns}
        self.primary_key = primary_key
        # Sparse rows: a column a row never set reads as NULL, which is
        # exactly how the segment builder records it (null set + NULL in
        # the zone map), so columnar scans match the row path.
        context.segments.register(self.namespace, list(self.columns))

    # -- writes ---------------------------------------------------------------

    def insert(self, row: dict, txn: Optional[Transaction] = None) -> Any:
        """Insert a sparse row (only supplied columns are stored)."""
        unknown = set(row) - set(self.columns)
        if unknown:
            raise SchemaError(
                f"table {self.name!r} has no columns {sorted(unknown)} "
                "(the schema of tables must be defined — slide 41)"
            )
        if self.primary_key not in row or row[self.primary_key] is None:
            raise ConstraintViolationError(
                f"table {self.name!r}: primary key {self.primary_key!r} required"
            )
        admitted = {}
        for column_name, value in row.items():
            validated = _validate_spec(
                self.columns[column_name].spec,
                value,
                f"{self.name}.{column_name}",
            )
            if validated is not None:
                admitted[column_name] = validated
        key = admitted[self.primary_key]
        if self._raw_get(key, txn) is not None:
            raise PrimaryKeyError(
                f"table {self.name!r}: duplicate primary key {key!r}"
            )
        self._put(key, admitted, txn)
        return key

    def insert_json(self, text: str, txn: Optional[Transaction] = None) -> Any:
        """``INSERT INTO t JSON '{…}'`` (slide 45)."""
        try:
            row = json.loads(text)
        except json.JSONDecodeError as error:
            raise SchemaError(f"bad JSON payload: {error}") from error
        return self.insert(row, txn)

    def delete(self, key: Any, txn: Optional[Transaction] = None) -> bool:
        return self._delete_key(key, txn)

    # -- reads -----------------------------------------------------------------

    def get(self, key: Any, txn: Optional[Transaction] = None) -> Optional[dict]:
        return self._raw_get(key, txn)

    def select_json(
        self,
        where=None,
        txn: Optional[Transaction] = None,
    ) -> list[str]:
        """``SELECT JSON * FROM t`` — each row as a JSON string with every
        schema column present (unset sparse columns as null), in column
        declaration order, like slide 46's output."""
        output = []
        for row in self.scan_cursor(txn=txn):
            if where is not None and not where(row):
                continue
            dense = {
                column_name: row.get(column_name)
                for column_name in self.columns
            }
            output.append(json.dumps(dense))
        return output

    def column_values(self, column: str, txn: Optional[Transaction] = None):
        """``(key, value)`` for every row that sets *column*."""
        if column not in self.columns:
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        return iter(
            (key, row[column])
            for key, row in self._raw_scan(txn)
            if column in row
        )
