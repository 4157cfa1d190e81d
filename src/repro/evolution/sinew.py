"""Sinew's universal relation over multi-structured data (slide 36).

"Sinew: a new layer above a relational DBMS that enables SQL queries over
multi-structured data without having to define a schema.  Logical view = a
universal relation — one column for each unique key in the data set; nested
data is flattened into separate columns.  Physically partially materialized."

:class:`UniversalRelation` watches a namespace through the central log and
maintains the column catalog (dotted paths of every key seen).  Every column
starts *virtual* — reads recompute it from the stored documents, like
Vertica's flex-table ``maplookup()`` (slide 43).  :meth:`promote`
materializes a column into a real map maintained incrementally; the
materialization benchmark (E17) measures the difference.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.core import datamodel
from repro.errors import SchemaError
from repro.storage.log import CentralLog, LogEntry, LogOp
from repro.storage.views import RowView

__all__ = ["UniversalRelation", "flatten_document"]


def flatten_document(document: Any, prefix: str = "") -> dict[str, Any]:
    """Flatten nested objects into dotted columns; arrays stay whole values
    (Sinew treats them as opaque), scalars map directly."""
    if datamodel.type_of(document) is not datamodel.TypeTag.OBJECT:
        return {prefix or "$value": document}
    flat: dict[str, Any] = {}
    for key, value in document.items():
        column = f"{prefix}.{key}" if prefix else key
        if datamodel.type_of(value) is datamodel.TypeTag.OBJECT and value:
            flat.update(flatten_document(value, column))
        else:
            flat[column] = value
    return flat


class UniversalRelation:
    """The logical universal relation over one namespace."""

    def __init__(self, log: CentralLog, rows: RowView, namespace: str):
        self._rows = rows
        self.namespace = namespace
        self._columns: set[str] = set()
        self._materialized: dict[str, dict[Any, Any]] = {}
        self.virtual_reads = 0
        self.materialized_reads = 0
        log.subscribe(self._on_log_entry, namespace)
        for _key, document in rows.scan(namespace):
            self._columns.update(flatten_document(document))

    # -- log maintenance --------------------------------------------------------

    def _on_log_entry(self, entry: LogEntry) -> None:
        if entry.op is LogOp.DROP_NAMESPACE:
            self._columns.clear()
            for column in self._materialized:
                self._materialized[column] = {}
            return
        if not entry.is_data_op():
            return
        if entry.before is not None:
            before_flat = flatten_document(entry.before)
            for column, store in self._materialized.items():
                if column in before_flat:
                    store.pop(entry.key, None)
        if entry.op is not LogOp.DELETE:
            flat = flatten_document(entry.value)
            self._columns.update(flat)
            for column, store in self._materialized.items():
                if column in flat:
                    store[entry.key] = flat[column]

    # -- catalog -------------------------------------------------------------------

    def columns(self) -> list[str]:
        """Every column of the universal relation (dotted key paths)."""
        return sorted(self._columns)

    def is_materialized(self, column: str) -> bool:
        return column in self._materialized

    # -- materialization (virtual → real columns) --------------------------------------

    def promote(self, column: str) -> int:
        """Materialize *column*; returns the number of rows it covers."""
        if column not in self._columns:
            raise SchemaError(
                f"universal relation over {self.namespace!r} has no column "
                f"{column!r}"
            )
        store: dict[Any, Any] = {}
        for key, document in self._rows.scan(self.namespace):
            flat = flatten_document(document)
            if column in flat:
                store[key] = flat[column]
        self._materialized[column] = store
        return len(store)

    def demote(self, column: str) -> None:
        """Back to virtual (frees the materialized map)."""
        self._materialized.pop(column, None)

    # -- reads ----------------------------------------------------------------------

    def column_values(self, column: str) -> Iterator[tuple[Any, Any]]:
        """(row key, value) pairs of one column — materialized map when
        promoted, document scan (the maplookup path) otherwise."""
        store = self._materialized.get(column)
        if store is not None:
            self.materialized_reads += 1
            return iter(list(store.items()))
        self.virtual_reads += 1
        result = []
        for key, document in self._rows.scan(self.namespace):
            flat = flatten_document(document)
            if column in flat:
                result.append((key, flat[column]))
        return iter(result)

    def select(
        self,
        where: Callable[[dict], bool],
        columns: Optional[list[str]] = None,
    ) -> list[dict]:
        """SQL over the universal relation: each row is its flattened
        document (missing columns read as None)."""
        result = []
        for _key, document in self._rows.scan(self.namespace):
            flat = flatten_document(document)
            row = {column: flat.get(column) for column in self._columns}
            if where(row):
                if columns is not None:
                    row = {column: row.get(column) for column in columns}
                result.append(row)
        return result

    def row(self, key: Any) -> Optional[dict]:
        document = self._rows.get(self.namespace, key)
        if document is None:
            return None
        flat = flatten_document(document)
        return {column: flat.get(column) for column in self._columns}
