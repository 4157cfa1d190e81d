"""Shared engine context and the base record store every model builds on.

The paper's definition (slide 11): "a multi-model database is designed to
support multiple data models against a *single, integrated backend*".  The
:class:`EngineContext` is that backend: one central log, one row view, one
column view, one transaction manager, one index manager.  Every model store
(:mod:`repro.relational`, :mod:`repro.document`, :mod:`repro.keyvalue`,
:mod:`repro.graph`, :mod:`repro.xmlmodel`, :mod:`repro.rdf`) is a
:class:`BaseStore` veneer over it — which is exactly what makes cross-model
queries, cross-model indexes and cross-model transactions possible.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core import datamodel
from repro.core.cursor import IteratorScanCursor, ScanCursor
from repro.errors import UnknownCollectionError
from repro.indexes.manager import IndexManager
from repro.storage.log import CentralLog, LogOp
from repro.storage.segments import SegmentManager
from repro.storage.views import RowView
from repro.txn.manager import Transaction, TransactionManager

__all__ = ["EngineContext", "BaseStore", "index_records"]

# Entries the engine's own log keeps behind its head (it holds between one
# and two of these).  The views, segments and indexes are maintained entry by
# entry as the log is appended and nothing in the engine reads history; the
# one reader is the server's ship loop, which a replica that is merely lagging
# stays inside; one that joins later than that bootstraps from a snapshot.
_LOG_TAIL = 4096


class EngineContext:
    """The single integrated backend shared by all model APIs."""

    def __init__(self):
        self.log = CentralLog(tail=_LOG_TAIL)
        self.rows = RowView(self.log)
        #: Columnar segments + zone maps for registered (relational /
        #: wide-column) namespaces — the analytic scan format.
        self.segments = SegmentManager(self.log, self.rows)
        self.transactions = TransactionManager(self.log, self.rows)
        self.indexes = IndexManager(self.log, self.rows)


def index_records(
    context: EngineContext, namespace: str, keys, txn: Optional[Transaction],
    matches=None,
) -> dict:
    """key -> record (None: none) of the *keys* an index of *namespace*
    answered, as *txn* sees them: a changed key's record is the one *txn*
    sees, kept when it passes *matches(record)*."""
    rows = context.rows
    found = {key: rows.get(namespace, key) for key in keys}
    for key, record in context.transactions.changed(txn, namespace).items():
        found[key] = record if record is None or matches is None or matches(record) else None
    return found


class BaseStore:
    """Keyed record store over the shared backend.

    All methods accept an optional ``txn``.  Reads take the same path
    either way, the row view or an index as of latest, which the visibility
    rule (``TransactionManager.changed``) turns into a transaction's snapshot
    plus its own writes; writes are buffered, or auto-commit one at a time.
    """

    #: model tag used in the namespace prefix, e.g. "doc"
    model = "base"
    #: The FOR frame attribute that holds a record's key, as a path: the
    #: primary-key access path index selection probes through
    #: :meth:`keyed_frame` (None: the store offers none).
    key_path: Optional[tuple] = None

    def __init__(self, context: EngineContext, name: str):
        self._context = context
        self.name = name
        self.namespace = f"{self.model}:{name}"

    # -- write path ------------------------------------------------------------

    def _write(
        self, key: Any, value: Any, txn: Optional[Transaction]
    ) -> None:
        """Write *value* under *key* (``None`` deletes); the transaction
        manager derives the logged op from what the write replaces."""
        manager = self._context.transactions
        if txn is not None:
            manager.write(txn, self.namespace, key, value)
            return
        local = manager.begin()
        try:
            manager.write(local, self.namespace, key, value)
            manager.commit(local)
        except BaseException:
            if local.is_active:
                manager.abort(local)
            raise

    def _put(self, key: Any, value: Any, txn: Optional[Transaction] = None) -> None:
        self._write(key, datamodel.normalize(value), txn)

    def _delete_key(self, key: Any, txn: Optional[Transaction] = None) -> bool:
        if self._raw_get(key, txn) is None:
            return False
        self._write(key, None, txn)
        return True

    # -- read path ----------------------------------------------------------------

    def _raw_get(self, key: Any, txn: Optional[Transaction] = None) -> Any:
        if txn is not None:
            return self._context.transactions.read(txn, self.namespace, key)
        return self._context.rows.get(self.namespace, key)

    def keyed_frame(self, key: Any, txn: Optional[Transaction] = None) -> Any:
        """The FOR frame value of the record under *key* as *txn* sees it
        (None: no record) — what a scan would bind for it."""
        return self._raw_get(key, txn)

    def _raw_scan(
        self, txn: Optional[Transaction] = None
    ) -> Iterator[tuple[Any, Any]]:
        latest = self._context.rows.scan(self.namespace)
        changed = self._context.transactions.changed(txn, self.namespace)
        if not changed:
            return latest
        kept = [pair for pair in latest if pair[0] not in changed]
        return iter(kept + [pair for pair in changed.items() if pair[1] is not None])

    def _index_records(self, keys, txn: Optional[Transaction], matches=None) -> dict:
        """:func:`index_records` of this store."""
        return index_records(self._context, self.namespace, keys, txn, matches)

    def scan_cursor(self, txn: Optional[Transaction] = None) -> ScanCursor:
        """Unified batched scan (:class:`repro.core.cursor.ScanCursor`)
        over this store's natural row shape — the stored record values.

        Stores whose MMQL frame shape differs from the raw record value
        (key/value buckets, tree stores, triple stores, spatial stores)
        override this; everything else inherits it."""
        return IteratorScanCursor(
            value for _key, value in self._raw_scan(txn)
        )

    def count(self, txn: Optional[Transaction] = None) -> int:
        if txn is not None:
            return sum(1 for _ in self._raw_scan(txn))
        return self._context.rows.count(self.namespace)

    def contains(self, key: Any, txn: Optional[Transaction] = None) -> bool:
        return self._raw_get(key, txn) is not None

    # -- lifecycle -------------------------------------------------------------------

    def truncate(self) -> None:
        """Drop all records (auto-commit; runs outside any transaction)."""
        # Under the commit mutex, as every other log append is: a snapshot
        # image taken there sees the rows and the log at one LSN.
        with self._context.transactions.exclusive():
            self._context.transactions.drop_namespace(self.namespace)
            self._context.log.append(0, LogOp.DROP_NAMESPACE, self.namespace)

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.namespace} ({self.count()} records)>"
