"""In-memory spans for the traced pass.

The driver records a span around every call it makes into a layer:
``{op_id, span_id, parent_id, name, start_ns, end_ns}``.  Spans stay in a
list until the pass ends and are then dumped as JSON lines.  A layer's
*self time* is its span's duration minus the part of that interval its
child spans cover (children of a scatter overlap, so the union is taken).

Span names are the layer's module path plus the function
(``query.parser.parse``); the driver's own per-operation span is
``driver.op.<class>``.
"""

from __future__ import annotations

import json
import threading
import time


class SpanLog:
    """Append-only span store; ``add`` and ``open`` are safe from scatter
    threads."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._next_id = 0

    def add(self, op_id: int, parent_id, name: str,
            start_ns: int, end_ns: int) -> dict:
        """Record a finished span; returns it."""
        with self._lock:
            self._next_id += 1
            span = {
                "op_id": op_id, "span_id": self._next_id,
                "parent_id": parent_id, "name": name,
                "start_ns": start_ns, "end_ns": end_ns,
            }
            self.spans.append(span)
        return span

    def timed(self, op_id: int, parent_id, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        self.add(op_id, parent_id, name, start, time.perf_counter_ns())
        return result

    def open(self, op_id: int, parent_id, name: str) -> dict:
        """Start a span whose children need its id before it ends; finish
        it with :meth:`close`."""
        with self._lock:
            self._next_id += 1
            span = {
                "op_id": op_id, "span_id": self._next_id,
                "parent_id": parent_id, "name": name,
                "start_ns": time.perf_counter_ns(), "end_ns": None,
            }
            self.spans.append(span)
        return span

    @staticmethod
    def close(span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()

    def place_children(self, parent: dict, children: list,
                       start_ns=None) -> list:
        """Record separately measured calls as children of *parent*;
        returns them.

        *children* is ``[(name, duration_ns), …]``: durations the system
        reported for parts of the parent call, or replays timed right
        after it.  They are laid end to end from the parent's start (or
        *start_ns*) and clipped to its end, so self times stay
        non-negative."""
        placed = []
        cursor = parent["start_ns"] if start_ns is None else start_ns
        for name, duration in children:
            start = min(cursor, parent["end_ns"])
            end = min(start + duration, parent["end_ns"])
            placed.append(
                self.add(parent["op_id"], parent["span_id"], name, start, end))
            cursor = end
        return placed

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps(span, separators=(",", ":")) + "\n")


def load(path: str) -> list:
    with open(path, "r", encoding="utf-8") as source:
        return [json.loads(line) for line in source if line.strip()]


def _covered(intervals: list) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> dict:
    """``{span_id: self_ns}`` for every span."""
    children: dict = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(span)
    out = {}
    for span in spans:
        inside = [
            (max(child["start_ns"], span["start_ns"]),
             min(child["end_ns"], span["end_ns"]))
            for child in children.get(span["span_id"], ())
        ]
        inside = [(start, end) for start, end in inside if end > start]
        out[span["span_id"]] = (
            span["end_ns"] - span["start_ns"] - _covered(inside)
        )
    return out


def critical_path_by_name(spans: list) -> dict:
    """``{name: ns}`` along the blocking path of every root span.

    Walking back from a span's end, the child that ended last is the one
    the span was waiting for; the walk descends into it and resumes at its
    start.  Siblings that ran alongside it (the faster shards of a
    scatter) are off the path.  Gaps between children are the span's own
    time.  The values add up to the total duration of the roots."""
    children: dict = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(span)
    totals: dict = {}

    def walk(span: dict) -> None:
        own = 0
        cursor = span["end_ns"]
        for child in sorted(children.get(span["span_id"], ()),
                            key=lambda c: c["end_ns"], reverse=True):
            if child["end_ns"] > cursor or child["end_ns"] <= child["start_ns"]:
                continue
            own += cursor - child["end_ns"]
            walk(child)
            cursor = child["start_ns"]
        own += cursor - span["start_ns"]
        totals[span["name"]] = totals.get(span["name"], 0) + own

    for span in spans:
        if span["parent_id"] is None:
            walk(span)
    return totals
