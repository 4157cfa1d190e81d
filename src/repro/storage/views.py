"""Storage views over the central log (OctopusDB, slides 15-16).

"Based on that log, define several types of optional storage views. The query
optimization, view maintenance, and index selection problems suddenly become
a single problem: storage view selection."

Four view kinds are provided, matching the architectures the tutorial
surveys:

* :class:`LogOnlyView` — nothing materialized; every read replays the log
  (the OctopusDB baseline, and the slowest point of experiment E15);
* :class:`RowView` — a primary row store (key → record), the OLTP layout;
* :class:`ColumnView` — per-attribute columns (HPE Vertica / Cassandra
  style), the scan/analytics layout;
* :class:`IndexView` — a secondary index on one document path, backed by any
  index structure from :mod:`repro.indexes`.

Views only apply *committed* effects when driven through
:class:`repro.txn.manager.TransactionManager`; when used standalone (as in
the storage benchmarks) every entry applies immediately.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterator, Optional

from repro.core import datamodel
from repro.errors import StorageError
from repro.storage.log import CentralLog, LogEntry, LogOp

__all__ = ["StorageView", "LogOnlyView", "RowView", "ColumnView", "IndexView"]


class StorageView:
    """Base class: a materialized structure maintained from the log."""

    name = "view"
    #: The one namespace whose entries this view reads (None: every one).
    namespace: Optional[str] = None

    def __init__(self, log: CentralLog, subscribe: bool = True):
        self._log = log
        self._applied_lsn = 0
        if subscribe:
            log.subscribe(self.apply, self.namespace)

    def apply(self, entry: LogEntry) -> None:
        """Incorporate one log entry (idempotent per LSN)."""
        if entry.lsn <= self._applied_lsn:
            return
        self._applied_lsn = entry.lsn
        if entry.is_data_op():
            self._apply_data(entry)
        elif entry.op is LogOp.DROP_NAMESPACE:
            self._drop_namespace(entry.namespace)

    def catch_up(self) -> int:
        """Replay any log entries this view has not seen yet; returns the
        number applied.  Used after creating a view on an existing log."""
        applied = 0
        for entry in self._log.entries_since(self._applied_lsn):
            if self.namespace in (None, entry.namespace):
                self.apply(entry)
                applied += 1
        return applied

    # Subclass API -----------------------------------------------------

    def _apply_data(self, entry: LogEntry) -> None:
        raise NotImplementedError

    def _drop_namespace(self, namespace: str) -> None:
        raise NotImplementedError


class LogOnlyView(StorageView):
    """No materialization: reads replay the whole log (slide 16 baseline).

    Point reads and scans are O(log length); the storage-view benchmark
    (E15) uses this as the floor every materialized view is compared to.
    """

    name = "log-only"

    def _apply_data(self, entry: LogEntry) -> None:
        # Nothing is materialized, by design.
        return

    def _drop_namespace(self, namespace: str) -> None:
        return

    def get(self, namespace: str, key: Any) -> Any:
        """Replay the log to find the latest value for (namespace, key)."""
        value = None
        for entry in self._log:
            if entry.op is LogOp.DROP_NAMESPACE and entry.namespace == namespace:
                value = None
            if not entry.is_data_op() or entry.namespace != namespace:
                continue
            if datamodel.values_equal(entry.key, key):
                value = None if entry.op is LogOp.DELETE else entry.value
        return value

    def scan(self, namespace: str) -> Iterator[tuple[Any, Any]]:
        """Replay the log and yield the live (key, value) pairs."""
        state: dict[Any, tuple[Any, Any]] = {}
        for entry in self._log:
            if entry.op is LogOp.DROP_NAMESPACE and entry.namespace == namespace:
                state.clear()
            if not entry.is_data_op() or entry.namespace != namespace:
                continue
            token = datamodel.value_token(entry.key)
            if entry.op is LogOp.DELETE:
                state.pop(token, None)
            else:
                state[token] = (entry.key, entry.value)
        return iter(list(state.values()))


class RowView(StorageView):
    """Primary row store: namespace → {key → record}.

    This is the view every model API reads through by default; point reads
    are O(1) and scans stream the dict values.
    """

    name = "row"

    def __init__(self, log: CentralLog, subscribe: bool = True):
        super().__init__(log, subscribe)
        self._rows: dict[str, dict[Any, Any]] = defaultdict(dict)

    def _apply_data(self, entry: LogEntry) -> None:
        rows = self._rows[entry.namespace]
        if entry.op is LogOp.DELETE:
            rows.pop(entry.key, None)
        else:
            rows[entry.key] = entry.value

    def _drop_namespace(self, namespace: str) -> None:
        self._rows.pop(namespace, None)

    def get(self, namespace: str, key: Any) -> Any:
        return self._rows.get(namespace, {}).get(key)

    def contains(self, namespace: str, key: Any) -> bool:
        return key in self._rows.get(namespace, {})

    def scan(self, namespace: str) -> Iterator[tuple[Any, Any]]:
        return iter(list(self._rows.get(namespace, {}).items()))

    def keys(self, namespace: str) -> Iterator[Any]:
        return iter(list(self._rows.get(namespace, {}).keys()))

    def count(self, namespace: str) -> int:
        return len(self._rows.get(namespace, {}))

    def namespaces(self) -> list[str]:
        return sorted(self._rows)


class ColumnView(StorageView):
    """Column-oriented view: namespace → {attribute → {key → value}}.

    Only top-level attributes of object records are decomposed (nested
    values stay intact inside their column), matching Vertica flex tables
    where the map holds whole values per key.  Non-object records land in
    the pseudo-column ``"$value"``.
    """

    name = "column"

    VALUE_COLUMN = "$value"

    def __init__(self, log: CentralLog, subscribe: bool = True):
        super().__init__(log, subscribe)
        self._columns: dict[str, dict[str, dict[Any, Any]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        # Track which columns each key populated so deletes are exact.
        self._row_columns: dict[str, dict[Any, tuple[str, ...]]] = defaultdict(dict)

    def _apply_data(self, entry: LogEntry) -> None:
        columns = self._columns[entry.namespace]
        row_columns = self._row_columns[entry.namespace]
        previous = row_columns.pop(entry.key, ())
        for column in previous:
            columns[column].pop(entry.key, None)
        if entry.op is LogOp.DELETE:
            return
        record = entry.value
        if datamodel.type_of(record) is datamodel.TypeTag.OBJECT:
            for attribute, value in record.items():
                columns[attribute][entry.key] = value
            row_columns[entry.key] = tuple(record.keys())
        else:
            columns[self.VALUE_COLUMN][entry.key] = record
            row_columns[entry.key] = (self.VALUE_COLUMN,)

    def _drop_namespace(self, namespace: str) -> None:
        self._columns.pop(namespace, None)
        self._row_columns.pop(namespace, None)

    def column_names(self, namespace: str) -> list[str]:
        return sorted(self._columns.get(namespace, {}))

    def scan_column(self, namespace: str, column: str) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) for one attribute — the analytics fast path."""
        return iter(list(self._columns.get(namespace, {}).get(column, {}).items()))

    def count(self, namespace: str) -> int:
        return len(self._row_columns.get(namespace, {}))


class IndexView(StorageView):
    """A secondary index maintained from the log.

    ``index`` is any object with the small index protocol from
    :mod:`repro.indexes.base` (``insert(key, rid)``, ``delete(key, rid)``,
    ``search(key)``, optionally ``range_search``).  ``path`` selects which
    part of the record is indexed (empty path indexes the whole record).
    """

    name = "index"

    def __init__(
        self,
        log: CentralLog,
        namespace: str,
        path: tuple,
        index: Any,
        subscribe: bool = True,
    ):
        self.namespace = namespace
        self.path = tuple(path)
        self.index = index
        super().__init__(log, subscribe)

    def _extract(self, record: Any) -> Any:
        if not self.path:
            return record
        return datamodel.deep_get(record, self.path)

    def _apply_data(self, entry: LogEntry) -> None:
        # Whatever the op: drop what the entry replaced, add what it wrote.
        if entry.before is not None:
            self.index.delete(self._extract(entry.before), entry.key)
        if entry.op is not LogOp.DELETE:
            indexed = self._extract(entry.value)
            if indexed is not None:
                self.index.insert(indexed, entry.key)

    def _drop_namespace(self, namespace: str) -> None:
        self.index.clear()

    def search(self, value: Any) -> list[Any]:
        """Primary keys of records whose indexed value equals *value*."""
        return self.index.search(value)

    def range_search(self, low: Any, high: Any, **kwargs) -> list[Any]:
        if not hasattr(self.index, "range_search"):
            raise StorageError(
                f"index view on {self.namespace}:{self.path} does not "
                "support range search"
            )
        return self.index.range_search(low, high, **kwargs)
