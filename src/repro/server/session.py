"""Per-connection session state.

One TCP connection = one :class:`Session`, served by one session thread
that reads, dispatches and answers one frame at a time, so requests on a
session execute strictly in order.  The cursor registry is the exception
to single-threaded use — the idle reaper and the shutdown drain close
cursors from their own threads — so it has a lock; *cross*-session
concurrency is what the engine-side locks (catalog, plan cache,
transaction manager) absorb.

A session owns:

* at most one **active transaction** — opened with ``begin``, consumed by
  ``commit``/``abort``, threaded through every ``query_open`` in between, and
  rolled back automatically when the connection dies mid-transaction (a
  vanished client must never leave locks behind);
* **guardrail overrides** — per-session ``timeout``/``max_rows`` that take
  precedence over the database defaults for this session only (the server
  always enforces whichever is in effect — a remote client cannot opt out
  of the host's ``db.guardrails`` by simply not sending limits);
* **server-side cursors** — open streaming results (``query_open`` /
  ``cursor_next``), capped per session and reaped when idle, and always
  closed with the connection so a vanished client cannot leak engine
  cursors;
* bookkeeping for ``stats`` and the ``.sessions`` listings: request and
  error counts, last op, start time.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Optional

from repro.errors import CursorLimitError, CursorNotFoundError, SessionStateError

__all__ = ["ServerCursor", "Session"]

_session_ids = itertools.count(1)


class ServerCursor:
    """One open streaming result held by a session.

    Wraps an engine :class:`~repro.query.engine.QueryCursor` plus the
    wire-level bookkeeping: chunk size, idle clock, and the query text for
    ``stats`` listings."""

    __slots__ = ("cursor_id", "cursor", "chunk_rows", "created_at",
                 "last_used_at", "text", "fetches", "trace_id")

    def __init__(self, cursor_id: int, cursor: Any, chunk_rows: int,
                 text: str, now: Optional[float] = None,
                 trace_id: Optional[str] = None):
        self.cursor_id = cursor_id
        self.cursor = cursor
        self.chunk_rows = max(int(chunk_rows), 1)
        self.created_at = time.monotonic() if now is None else now
        self.last_used_at = self.created_at
        self.text = text
        #: ``cursor_next`` calls served so far (the opening chunk is 0).
        self.fetches = 0
        #: Trace the stream was opened under, so every later fetch (and
        #: the reaper) correlates back to one distributed trace.
        self.trace_id = trace_id

    def touch(self, now: Optional[float] = None) -> None:
        self.last_used_at = time.monotonic() if now is None else now

    def close(self) -> None:
        try:
            self.cursor.close()
        except Exception:
            pass

    def describe(self) -> dict:
        return {
            "cursor": self.cursor_id,
            "chunk_rows": self.chunk_rows,
            "idle_seconds": round(time.monotonic() - self.last_used_at, 3),
            "fetches": self.fetches,
            "text": self.text,
        }


class Session:
    """State for one connected client."""

    __slots__ = (
        "session_id",
        "peer",
        "txn",
        "timeout",
        "max_rows",
        "started_at",
        "requests",
        "errors",
        "last_op",
        "cursors",
        "_cursor_ids",
        "_cursor_lock",
    )

    def __init__(self, peer: str = "?"):
        self.session_id = next(_session_ids)
        self.peer = peer
        self.txn: Optional[Any] = None
        #: Session-level guardrail overrides; ``None`` defers to the
        #: database defaults.
        self.timeout: Optional[float] = None
        self.max_rows: Optional[int] = None
        self.started_at = time.time()
        self.requests = 0
        self.errors = 0
        self.last_op: Optional[str] = None
        #: Open streaming results, keyed by cursor id (session-scoped).
        self.cursors: dict[int, ServerCursor] = {}
        self._cursor_ids = itertools.count(1)
        self._cursor_lock = threading.Lock()

    # -- transactions --------------------------------------------------------

    @property
    def in_txn(self) -> bool:
        return self.txn is not None

    def attach_txn(self, txn: Any) -> None:
        if self.txn is not None:
            raise SessionStateError(
                f"session {self.session_id} already has an active transaction "
                f"(txn {getattr(self.txn, 'txn_id', '?')}) — commit or abort it first"
            )
        self.txn = txn

    def take_txn(self, op: str) -> Any:
        """Detach and return the active transaction for commit/abort."""
        if self.txn is None:
            raise SessionStateError(
                f"session {self.session_id}: {op} without an active "
                "transaction — begin one first"
            )
        txn, self.txn = self.txn, None
        return txn

    # -- cursors -------------------------------------------------------------

    def add_cursor(self, cursor: Any, chunk_rows: int, text: str,
                   limit: int, trace_id: Optional[str] = None) -> "ServerCursor":
        """Register an engine cursor; raises :class:`CursorLimitError` at
        the per-session cap (the caller must close *cursor* on raise)."""
        with self._cursor_lock:
            if len(self.cursors) >= limit:
                raise CursorLimitError(
                    f"session {self.session_id} already holds "
                    f"{len(self.cursors)} open cursors (limit {limit}) — "
                    "close or drain one first"
                )
            entry = ServerCursor(
                next(self._cursor_ids), cursor, chunk_rows, text,
                trace_id=trace_id,
            )
            self.cursors[entry.cursor_id] = entry
        return entry

    def get_cursor(self, cursor_id: int) -> "ServerCursor":
        entry = self.cursors.get(cursor_id)
        if entry is None:
            raise CursorNotFoundError(
                f"session {self.session_id} has no open cursor {cursor_id} "
                "(never opened, exhausted, closed, or reaped while idle)"
            )
        return entry

    def pop_cursor(self, cursor_id: int) -> Optional["ServerCursor"]:
        with self._cursor_lock:
            return self.cursors.pop(cursor_id, None)

    def close_cursors(self) -> int:
        """Close every open cursor (disconnect/shutdown path); returns how
        many were closed."""
        with self._cursor_lock:
            entries = list(self.cursors.values())
            self.cursors.clear()
        for entry in entries:
            entry.close()
        return len(entries)

    def reap_idle_cursors(
        self, now: float, idle_timeout: float
    ) -> list["ServerCursor"]:
        """Close cursors idle longer than *idle_timeout*; returns the
        reaped entries (so the caller can count and log them)."""
        with self._cursor_lock:
            reaped = [
                self.cursors.pop(cursor_id)
                for cursor_id, entry in list(self.cursors.items())
                if now - entry.last_used_at > idle_timeout
            ]
        for entry in reaped:
            entry.close()
        return reaped

    # -- introspection -------------------------------------------------------

    def describe(self) -> dict:
        return {
            "session": self.session_id,
            "peer": self.peer,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "in_txn": self.in_txn,
            "timeout": self.timeout,
            "max_rows": self.max_rows,
            "requests": self.requests,
            "errors": self.errors,
            "last_op": self.last_op,
            "open_cursors": len(self.cursors),
        }

    def __repr__(self) -> str:
        return (
            f"<Session {self.session_id} peer={self.peer} "
            f"requests={self.requests} in_txn={self.in_txn}>"
        )
