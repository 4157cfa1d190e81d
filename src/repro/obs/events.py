"""Structured event log: notable engine events as JSON-lines records.

Metrics answer "how much"; the event log answers "what happened, to which
request".  Low-frequency but high-signal occurrences — slow queries,
admission rejections, graceful-drain phases, cursor reaping, fault
injections, client reconnects — are emitted here as flat dicts, each
stamped with a wall-clock timestamp and whatever correlation ids the
ambient trace context carries (``trace_id``, ``session_id``,
``request_id`` — see :func:`repro.obs.tracing.current_correlation`), so
one ``grep trace_id=…`` joins the event stream to a stitched trace.

Events land in a bounded in-memory ring (the shell's ``.events``, the
server's ``events`` wire op and the ``/events`` telemetry route read it)
and, when a sink file is attached, are appended to it as one JSON object
per line — the interchange format every log shipper understands.

Emission is cheap but not free (a dict + a clock read), so sites guard on
:data:`ENABLED` exactly like the metrics sites; the log is **on** by
default because every event type is rare by construction.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import IO, Optional

from repro.obs import tracing

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "is_enabled",
    "EventLog",
    "EVENTS",
    "emit",
    "tail",
    "clear",
    "attach_file",
    "detach_file",
]

#: Kill switch, mirroring ``metrics.ENABLED`` / ``tracing.ENABLED``.
ENABLED = True


def enable() -> None:
    global ENABLED
    ENABLED = True


def disable() -> None:
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    return ENABLED


class EventLog:
    """Bounded ring of event dicts plus an optional JSON-lines file sink.

    Thread-safe: events are emitted from the server's event loop, its
    executor workers, and client threads alike."""

    def __init__(self, capacity: int = 512):
        self._ring: deque = deque(maxlen=max(int(capacity), 1))
        self._lock = threading.Lock()
        self._sink: Optional[IO] = None
        self._sink_path: Optional[str] = None
        self.emitted = 0
        self.dropped_writes = 0

    # -- sink ---------------------------------------------------------------

    def attach_file(self, path: str) -> None:
        """Append events to *path* as JSON lines (in addition to the ring)."""
        with self._lock:
            self._close_sink()
            self._sink = open(path, "a", encoding="utf-8")
            self._sink_path = path

    def detach_file(self) -> Optional[str]:
        """Stop writing to the sink file; returns its path (or None)."""
        with self._lock:
            path = self._sink_path
            self._close_sink()
            return path

    def _close_sink(self) -> None:
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
        self._sink = None
        self._sink_path = None

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, **fields) -> dict:
        """Record one event; correlation ids are filled from the ambient
        trace context unless the caller passed them explicitly."""
        event: dict = {"ts": round(time.time(), 6), "kind": kind}
        for key, value in tracing.current_correlation().items():
            event.setdefault(key, value)
        event.update(fields)
        with self._lock:
            self._ring.append(event)
            self.emitted += 1
            if self._sink is not None:
                try:
                    self._sink.write(
                        json.dumps(event, default=str, separators=(",", ":"))
                        + "\n"
                    )
                    self._sink.flush()
                except (OSError, ValueError):
                    # A full/broken/closed sink must never take the engine
                    # down; the ring still has the event.
                    self.dropped_writes += 1
        return event

    # -- reading ------------------------------------------------------------

    def tail(self, n: Optional[int] = None, kind: Optional[str] = None) -> list[dict]:
        """The most recent *n* events (all, when None), oldest first;
        optionally filtered by ``kind``."""
        with self._lock:
            events = list(self._ring)
        if kind is not None:
            events = [event for event in events if event.get("kind") == kind]
        if n is not None:
            events = events[-max(int(n), 0):]
        return events

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


#: The process-wide event log (mirrors ``metrics.REGISTRY``).
EVENTS = EventLog()


def emit(kind: str, **fields) -> Optional[dict]:
    """Emit into the global log (no-op returning None when disabled)."""
    if not ENABLED:
        return None
    return EVENTS.emit(kind, **fields)


def tail(n: Optional[int] = None, kind: Optional[str] = None) -> list[dict]:
    return EVENTS.tail(n, kind)


def clear() -> None:
    EVENTS.clear()


def attach_file(path: str) -> None:
    EVENTS.attach_file(path)


def detach_file() -> Optional[str]:
    return EVENTS.detach_file()
