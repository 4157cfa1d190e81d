"""The central logical log — the OctopusDB idea (slides 15-16).

"All data is collected in a central log, i.e. all insert and update
operations create logical log-entries in that log.  Based on that log, define
several types of optional storage views."

Every mutation in the engine, whatever the data model, is appended here as a
:class:`LogEntry`.  Storage views (:mod:`repro.storage.views`) subscribe to
the log and maintain materialized representations — a row store, a column
store, indexes.  This is what makes the engine "one size fits all" at the
storage layer: the query optimizer's index-selection problem and the view
maintenance problem collapse into storage-view selection, exactly as the
tutorial describes.
"""

from __future__ import annotations

import enum
import threading
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from repro.errors import StorageError
from repro.fault import registry as fault_registry

__all__ = ["LogOp", "LogEntry", "CentralLog"]

# Fires *before* any entry of the call is created: a crash here leaves the
# log (and therefore every subscribed view and the WAL) untouched.
_FP_APPEND = fault_registry.register(
    "log.append", "central-log append, before entry creation and fan-out"
)

_Callback = Callable[["LogEntry"], None]


def _held(callback: _Callback) -> tuple:
    """``(owner, function)``: a bound method's owner by weak reference, so
    the log keeps no view or store alive; anything else as is, no owner."""
    try:
        return weakref.ref(callback.__self__), callback.__func__
    except (AttributeError, TypeError):
        return None, callback

# The ``meta`` of every entry that carries none: the log retains each entry,
# so an empty dict apiece would be paid for on every record ever written.
_NO_META: Mapping = MappingProxyType({})


class LogOp(enum.Enum):
    """Logical operation kinds recorded in the central log."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    CREATE_NAMESPACE = "create_namespace"
    DROP_NAMESPACE = "drop_namespace"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One immutable logical log record.

    ``namespace`` is the fully qualified store name (``"doc:orders"``,
    ``"rel:customers"``, ``"graph:knows"`` …); ``key`` is the record's
    primary key within it.  ``before`` carries the pre-image for updates and
    deletes so views (and recovery undo) can be maintained incrementally.
    """

    lsn: int
    txn_id: int
    op: LogOp
    namespace: str = ""
    key: Any = None
    value: Any = None
    before: Any = None
    meta: Mapping = field(default_factory=lambda: _NO_META)

    def is_data_op(self) -> bool:
        """True for entries that change records (not txn/checkpoint marks)."""
        return self.op in (LogOp.INSERT, LogOp.UPDATE, LogOp.DELETE)


class CentralLog:
    """Append-only in-memory logical log with subscriber fan-out.

    One call publishes one *unit*: a single entry (:meth:`append`) or a
    transaction's data records followed by its COMMIT (:meth:`append_group`).
    The unit goes to :attr:`write_ahead` first — the WAL, when one is
    attached, makes it durable with one write — and only then into the log
    and to the subscribers (storage views), synchronously, entry by entry.
    An entry goes only to the subscribers of its namespace and to those that
    asked for every namespace (the row view), in registration order among
    them.  A unit the WAL could not take therefore reaches neither the log,
    nor a view, nor a replica fed from the log; every view is consistent
    with the log tail the moment the call returns.

    A bare ``CentralLog()`` retains every entry — the log-only view and the
    recovery helpers replay it from LSN 1.  With *tail* set it keeps between
    *tail* and twice *tail* of the newest entries — more while a live reader
    (:attr:`reader_floor`) is further behind — and forgets the rest: LSNs
    keep counting, :attr:`floor_lsn` says where the retained part begins, and
    a reader from below it is refused (history = a snapshot of the row view
    plus this tail).
    """

    def __init__(self, tail: Optional[int] = None):
        self._tail = tail
        # Guards ``_entries`` together with ``_offset``: the ship loop reads
        # by position on one thread while a commit trims on another.
        self._lock = threading.Lock()
        self._entries: list[LogEntry] = []
        # (owner, function, namespace or None: all) in registration order;
        # per namespace, the (owner, function) its entries go to.
        self._subscribers: list[tuple] = []
        self._routes: dict[str, list[tuple]] = {}
        #: Called with each unit's entries before the log takes them; if it
        #: raises, the unit was never published (its LSNs are used again).
        self.write_ahead: Optional[Callable[[list[LogEntry]], None]] = None
        #: Asked when the tail is trimmed: the LSN up to which the slowest
        #: live reader has read (None: nobody reads).  What follows it stays,
        #: however far behind the tail that is — a replica that lags keeps
        #: its place in the stream (the server's replication hub sets this).
        self.reader_floor: Optional[Callable[[], Optional[int]]] = None
        self._next_lsn = 1
        # Number of entries dropped from the front by truncation; the entry
        # at list position i always has lsn == _offset + i + 1.
        self._offset = 0

    # -- writing -----------------------------------------------------------

    def append(
        self,
        txn_id: int,
        op: LogOp,
        namespace: str = "",
        key: Any = None,
        value: Any = None,
        before: Any = None,
        meta: Optional[dict] = None,
    ) -> LogEntry:
        """Create, store and fan out a new log entry; returns it."""
        return self.append_group(
            txn_id, ((op, namespace, key, value, before, meta),)
        )[0]

    def append_group(self, txn_id: int, records: Iterable[tuple]) -> list[LogEntry]:
        """Publish *records* — ``(op, namespace, key, value, before, meta)``
        tuples of one transaction — as one unit with consecutive LSNs."""
        if _FP_APPEND.armed:
            _FP_APPEND.check()
        entries = [
            LogEntry(lsn, txn_id, op, namespace, key, value, before, meta or _NO_META)
            for lsn, (op, namespace, key, value, before, meta) in enumerate(
                records, self._next_lsn
            )
        ]
        if self.write_ahead is not None:
            self.write_ahead(entries)
        with self._lock:
            self._next_lsn += len(entries)
            self._entries.extend(entries)
            if self._tail is not None and len(self._entries) > 2 * self._tail:
                self._trim()
        routes = self._routes
        for entry in entries:
            route = routes.get(entry.namespace)
            if route is None:
                route = routes[entry.namespace] = [
                    (owner, function) for owner, function, namespace in self._subscribers
                    if namespace is None or namespace == entry.namespace
                ]
            for owner, function in route:
                if owner is None:
                    function(entry)
                else:
                    subscriber = owner()
                    if subscriber is not None:
                        function(subscriber, entry)
        return entries

    # -- subscription ------------------------------------------------------

    def subscribe(self, callback: _Callback, namespace: Optional[str] = None) -> None:
        """Register a view-maintenance callback for future entries of
        *namespace* (every entry when None).  A view or store nothing else
        holds any more is dropped."""
        self._subscribers = [h for h in self._subscribers if h[0] is None or h[0]() is not None]
        self._subscribers.append((*_held(callback), namespace))
        self._routes = {}

    def unsubscribe(self, callback: _Callback, namespace: Optional[str] = None) -> None:
        self._subscribers.remove((*_held(callback), namespace))
        self._routes = {}

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    @property
    def last_lsn(self) -> int:
        """LSN of the most recent entry (0 when the log is empty)."""
        return self._next_lsn - 1

    @property
    def floor_lsn(self) -> int:
        """LSN of the newest entry no longer retained (0: nothing dropped).
        ``entries_since(lsn)`` answers for ``lsn >= floor_lsn``."""
        return self._offset

    def entries_since(self, lsn: int) -> Iterator[LogEntry]:
        """Yield entries with ``entry.lsn > lsn`` in LSN order."""
        # The retained log is dense in LSN, so position math suffices.
        with self._lock:
            start = lsn - self._offset
            if start >= 0:
                return iter(self._entries[start:])
        raise StorageError(
            f"log entries after lsn {lsn} were truncated: "
            f"{self._retained()}"
        )

    def entry_at(self, lsn: int) -> LogEntry:
        """Return the entry with exactly this LSN."""
        with self._lock:
            position = lsn - self._offset - 1
            if 0 <= position < len(self._entries):
                return self._entries[position]
        raise StorageError(f"no log entry with lsn {lsn}: {self._retained()}")

    def _retained(self) -> str:
        return (
            f"the log retains lsn {self._offset + 1}..{self.last_lsn} "
            f"(floor_lsn {self._offset})"
        )

    # -- truncation --------------------------------------------------------

    def truncate_before(self, lsn: int) -> int:
        """Drop entries with ``entry.lsn < lsn`` (after a checkpoint has
        made them redundant).  Returns the number of dropped entries.

        LSNs keep counting from where they were — the log stays dense in
        *position* terms via the recorded offset.
        """
        with self._lock:
            return self._drop_before(lsn)

    def _trim(self) -> None:
        """Forget what lies behind both the tail and the slowest live
        reader — at least a tail's worth at a time, so the front-of-list
        delete pays for itself: one move per *tail* appended entries."""
        before = self._next_lsn - self._tail
        if self.reader_floor is not None:
            read = self.reader_floor()
            if read is not None:
                before = min(before, read + 1)
        if before - self._offset - 1 >= self._tail:
            self._drop_before(before)

    def _drop_before(self, lsn: int) -> int:
        keep_from = min(max(lsn - self._offset - 1, 0), len(self._entries))
        del self._entries[:keep_from]
        self._offset += keep_from
        return keep_from

    def fast_forward(self, lsn: int) -> None:
        """Move the head to *lsn* with nothing retained: the state up to
        there was loaded from a snapshot image taken at that LSN (the load's
        own entries, numbered from 1, are dropped), so the next entry is
        ``lsn + 1`` — what the image's source will publish next."""
        with self._lock:
            if lsn < self.last_lsn:
                raise StorageError(
                    f"cannot fast-forward the log to lsn {lsn}: it is "
                    f"already at {self.last_lsn}"
                )
            self._entries.clear()
            self._offset = lsn
            self._next_lsn = lsn + 1
