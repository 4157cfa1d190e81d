"""Unified scan cursors — one iteration contract for all nine model stores.

Before this module every store exposed its own ad-hoc full-scan API
(``DocumentCollection.all``, ``Table.rows``, ``KeyValueBucket.items``,
``TreeStore.uris``, …) and the query executor special-cased each one, one
row at a time.  :class:`ScanCursor` replaces that drift with a single
batched protocol:

* ``next_batch(n)`` returns up to *n* frame values (the store's natural
  MMQL row shape) and ``[]`` once exhausted;
* ``close()`` releases the underlying snapshot iterator (idempotent);
* cursors are **snapshot/txn-aware**: the row view materializes a
  point-in-time copy at open, so concurrent writers never perturb a
  running scan, and inside a transaction the visibility rule turns that
  copy into the transaction's snapshot plus its own writes.

Every model store exposes ``scan_cursor(txn=None)`` (see the per-store
overrides) and no other full-scan method.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, Iterator

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ScanCursor",
    "IteratorScanCursor",
    "open_scan_cursor",
]

#: Engine-wide default batch size: large enough to amortize per-batch
#: bookkeeping (deadline checks, metric increments, probe accounting) to
#: noise, small enough that a batch of ordinary documents stays cache- and
#: frame-friendly.
DEFAULT_BATCH_SIZE = 256


class ScanCursor:
    """Batched iteration over one model store (the unified scan protocol).

    Subclasses implement :meth:`next_batch`; everything else — row
    iteration, batch iteration, context management — derives from it."""

    __slots__ = ()

    def next_batch(self, n: int = DEFAULT_BATCH_SIZE) -> list:
        """Up to *n* frame values in scan order; ``[]`` when exhausted."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the cursor (idempotent; exhausting a cursor also closes
        it)."""

    def batches(self, n: int = DEFAULT_BATCH_SIZE) -> Iterator[list]:
        """Stream non-empty batches of *n* until exhaustion."""
        while True:
            batch = self.next_batch(n)
            if not batch:
                return
            yield batch

    def __iter__(self) -> Iterator[Any]:
        """Row-at-a-time convenience view (batched underneath)."""
        for batch in self.batches():
            yield from batch

    def __enter__(self) -> "ScanCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class IteratorScanCursor(ScanCursor):
    """A :class:`ScanCursor` over a snapshot iterator.

    The iterator is produced by the owning store (typically from
    ``BaseStore._raw_scan``, which snapshots committed state at open or
    reads through the supplied transaction), so batching here never
    changes visibility semantics."""

    __slots__ = ("_iterator", "_closed")

    def __init__(self, iterator: Iterable[Any]):
        self._iterator = iter(iterator)
        self._closed = False

    def next_batch(self, n: int = DEFAULT_BATCH_SIZE) -> list:
        if self._closed:
            return []
        batch = list(islice(self._iterator, max(int(n), 1)))
        if not batch:
            self.close()
        return batch

    def close(self) -> None:
        self._closed = True
        self._iterator = iter(())


def open_scan_cursor(db: Any, name: str, txn: Any = None) -> ScanCursor:
    """Open the unified scan cursor of any catalog object by name.

    This is the **only** way the query layer iterates a store."""
    from repro.errors import UnknownCollectionError

    store = db.resolve(name)
    opener = getattr(store, "scan_cursor", None)
    if opener is None:
        raise UnknownCollectionError(f"cannot iterate a {db.kind_of(name)}")
    return opener(txn=txn)
