"""Slow-query log: queries slower than a configurable threshold are kept
in a bounded ring for post-hoc inspection (shell command ``.slowlog``,
wire op ``slowlog``; both read :func:`payload`).

Disabled by default (``threshold = None``); recording is guarded by the
caller (:mod:`repro.query.engine`) so the fast path pays one attribute
check when the log is off.

Entries carry the **correlation ids** of the request that produced them
(``trace_id``, ``session_id``, ``request_id`` — filled from the ambient
trace context when not passed explicitly), so a slow remote query links
straight back to its stitched client/server trace, and each recorded
entry is mirrored into the structured event log as a ``slow_query``
event.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from repro.obs import events as obs_events
from repro.obs import tracing

__all__ = [
    "THRESHOLD",
    "set_threshold",
    "get_threshold",
    "record",
    "entries",
    "clear",
    "payload",
]

#: Seconds; ``None`` disables the log entirely.
THRESHOLD: Optional[float] = None

_ENTRIES: deque = deque(maxlen=128)


def set_threshold(seconds: Optional[float]) -> None:
    """Set the slow-query threshold in seconds (``None`` turns the log off)."""
    global THRESHOLD
    if seconds is not None and seconds < 0:
        raise ValueError("slow-query threshold must be >= 0")
    THRESHOLD = seconds


def get_threshold() -> Optional[float]:
    return THRESHOLD


def record(
    text: str,
    seconds: float,
    rows: int = 0,
    phases: Optional[dict] = None,
    **correlation,
) -> bool:
    """Record *text* if it crossed the threshold; returns True when kept.

    ``phases`` maps phase name → seconds (queue/execute/serialize on the
    server, parse/optimize/execute in the engine); ``correlation`` may
    pass ``trace_id``/``session_id``/``request_id`` explicitly — anything
    not passed is filled from the ambient trace context.
    """
    if THRESHOLD is None or seconds < THRESHOLD:
        return False
    for key, value in tracing.current_correlation().items():
        correlation.setdefault(key, value)
    entry = {
        "query": " ".join(text.split())[:500],
        "seconds": seconds,
        "rows": rows,
        "wall_time": time.time(),
    }
    if phases:
        entry["phases"] = dict(phases)
    entry.update(correlation)
    _ENTRIES.append(entry)
    obs_events.emit(
        "slow_query",
        query=entry["query"],
        seconds=round(seconds, 6),
        rows=rows,
        **correlation,
    )
    return True


def entries() -> list[dict]:
    """Slow queries recorded so far, oldest first."""
    return list(_ENTRIES)


def clear() -> None:
    _ENTRIES.clear()


def payload(params: dict) -> dict:
    """The ``slowlog`` answer the wire op and the embedded shell share.

    ``params["threshold_ms"]``, when present, is applied first: a number
    of milliseconds sets the threshold, ``None`` turns the log off and
    drops what it kept."""
    if "threshold_ms" in params:
        value = params["threshold_ms"]
        if value is None:
            set_threshold(None)
            clear()
        else:
            set_threshold(float(value) / 1000.0)
    return {
        "threshold_ms": None if THRESHOLD is None else THRESHOLD * 1000.0,
        "entries": entries(),
    }
