"""Context-var span tracer: nested wall-time spans with parent/child
attribution and **distributed trace identity**.

``with span("query.parse"):`` opens a span under whatever span is current
in this execution context (:mod:`contextvars`, so concurrent queries on
different threads/tasks never cross-attribute). Finished root spans land
in the global :data:`TRACER` ring; the shell's ``.trace on`` prints the
tree after every query.

Every active span carries a W3C-traceparent-style identity: a 32-hex
``trace_id`` shared by the whole request tree and a 16-hex ``span_id`` of
its own. Identity crosses the process boundary the plain context-var
mechanism cannot: a remote peer's ``(trace_id, parent_span_id)`` is
adopted with :func:`adopt`; spans opened inside continue the remote trace
instead of starting a fresh one. An adopted remote parent also *forces* span creation
even when tracing is globally disabled, so a server records spans exactly
for the requests that asked for them.

Tracing is **off** by default and the disabled path allocates nothing:
:func:`span` returns a shared no-op context manager without creating a
``Span`` (unless a remote parent forces the request to be traced).
"""

from __future__ import annotations

import contextvars
import random
import re
import time
from collections import deque
from typing import Optional

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "is_enabled",
    "Span",
    "SpanContext",
    "span",
    "forced_span",
    "current_span",
    "current_context",
    "current_correlation",
    "adopt",
    "new_trace_id",
    "new_span_id",
    "format_traceparent",
    "parse_traceparent",
    "Tracer",
    "TRACER",
    "last_trace",
    "format_span",
    "span_summary",
    "format_summary",
]

ENABLED = False

_current: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_span", default=None
)

#: Trace identity adopted from a remote peer (set via :func:`adopt`); the
#: next root span continues this trace instead of starting its own.
_remote_parent: contextvars.ContextVar[Optional["SpanContext"]] = (
    contextvars.ContextVar("repro_obs_remote_parent", default=None)
)

#: ID source — speed over cryptographic strength: ids only need to be
#: unique enough to correlate, and uuid4's per-call urandom syscall would
#: be the most expensive part of opening a span.
_ids = random.Random()

_TRACEPARENT = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)


def enable() -> None:
    global ENABLED
    ENABLED = True


def disable() -> None:
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    return ENABLED


def new_trace_id() -> str:
    """A fresh 32-hex (128-bit) trace id."""
    return f"{_ids.getrandbits(128):032x}"


def new_span_id() -> str:
    """A fresh 16-hex (64-bit) span id."""
    return f"{_ids.getrandbits(64):016x}"


class SpanContext:
    """The portable identity of a span: what crosses the wire (and the
    thread pool) so a child opened elsewhere lands in the same trace."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpanContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
        )

    def __repr__(self) -> str:
        return f"<SpanContext {self.trace_id}/{self.span_id}>"


def format_traceparent(context: SpanContext) -> str:
    """W3C ``traceparent`` header for *context* (version 00, sampled)."""
    return f"00-{context.trace_id}-{context.span_id}-01"


def parse_traceparent(text: str) -> Optional[SpanContext]:
    """Parse a W3C ``traceparent`` header; None when malformed."""
    match = _TRACEPARENT.match(text.strip().lower()) if isinstance(text, str) else None
    if match is None:
        return None
    return SpanContext(match.group(1), match.group(2))


class Span:
    """One timed region. ``children`` are spans opened while this one was
    current; ``duration`` is wall seconds (0.0 while still open)."""

    __slots__ = ("name", "attrs", "start", "end", "children", "parent",
                 "trace_id", "span_id", "parent_span_id")

    def __init__(self, name: str, attrs: Optional[dict] = None,
                 parent: Optional["Span"] = None,
                 remote_parent: Optional[SpanContext] = None):
        self.name = name
        self.attrs = attrs or {}
        self.parent = parent
        self.span_id = new_span_id()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        elif remote_parent is not None:
            self.trace_id = remote_parent.trace_id
            self.parent_span_id = remote_parent.span_id
        else:
            self.trace_id = new_trace_id()
            self.parent_span_id = None
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attrs) -> None:
        """Attach attributes after the span opened (row counts etc.)."""
        self.attrs.update(attrs)

    def __repr__(self) -> str:
        return f"<Span {self.name} {self.duration * 1000:.3f}ms>"


class Tracer:
    """Ring of recently finished *root* spans."""

    def __init__(self, keep: int = 32):
        self.roots: deque[Span] = deque(maxlen=keep)

    def record(self, root: Span) -> None:
        self.roots.append(root)

    def clear(self) -> None:
        self.roots.clear()


TRACER = Tracer()


class _ActiveSpan:
    """Context manager that opens/closes one span."""

    __slots__ = ("_span", "_token")

    def __init__(self, name: str, attrs: dict):
        self._span = Span(
            name,
            attrs,
            parent=_current.get(),
            remote_parent=_remote_parent.get(),
        )
        self._token = None

    def __enter__(self) -> Span:
        self._token = _current.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        here = self._span
        here.end = time.perf_counter()
        _current.reset(self._token)
        if here.parent is None:
            TRACER.record(here)
        else:
            here.parent.children.append(here)


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return None

    def set(self, **attrs) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **attrs):
    """Open a nested span (or a shared no-op when tracing is disabled).

    A remote parent adopted via :func:`adopt` forces the span on even
    with tracing globally disabled — a request that arrived carrying
    trace context is, by definition, one somebody wants traced."""
    if not ENABLED and _remote_parent.get() is None:
        return _NOOP
    return _ActiveSpan(name, attrs)


def forced_span(name: str, **attrs):
    """Open a real span regardless of the global flag (client-side trace
    stitching uses this to trace one request on demand)."""
    return _ActiveSpan(name, attrs)


def current_span() -> Optional[Span]:
    return _current.get()


def current_context() -> Optional[SpanContext]:
    """The identity a child opened *now* would join: the current span's
    context, else the adopted remote parent, else None."""
    here = _current.get()
    if here is not None:
        return here.context
    return _remote_parent.get()


def current_correlation() -> dict:
    """Correlation ids for log/event records: ``trace_id`` plus any
    ``session_id``/``request_id`` attributes found walking up the current
    span chain. Empty when nothing is active."""
    here = _current.get()
    out: dict = {}
    if here is None:
        remote = _remote_parent.get()
        if remote is not None:
            out["trace_id"] = remote.trace_id
        return out
    out["trace_id"] = here.trace_id
    node: Optional[Span] = here
    while node is not None:
        for key in ("session_id", "request_id"):
            if key not in out and key in node.attrs:
                out[key] = node.attrs[key]
        node = node.parent
    return out


class adopt:
    """``with adopt(context):`` — continue a remote peer's trace.  Spans
    opened inside (with no local parent) join ``context.trace_id`` as
    children of ``context.span_id``, and are created even when tracing is
    globally disabled.  ``adopt(None)`` is a no-op wrapper."""

    __slots__ = ("_context", "_token")

    def __init__(self, context: Optional[SpanContext]):
        self._context = context
        self._token = None

    def __enter__(self) -> Optional[SpanContext]:
        if self._context is not None:
            self._token = _remote_parent.set(self._context)
        return self._context

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _remote_parent.reset(self._token)
            self._token = None


def last_trace() -> Optional[Span]:
    """The most recently completed root span, if any."""
    return TRACER.roots[-1] if TRACER.roots else None


def format_span(root: Span, indent: int = 0) -> str:
    """Indented tree: name, wall-time, and attributes per span."""
    pad = "  " * indent
    attrs = ""
    if root.attrs:
        attrs = " " + " ".join(f"{key}={value!r}" for key, value in root.attrs.items())
    lines = [f"{pad}{root.name}  {root.duration * 1000:.3f} ms{attrs}"]
    for child in root.children:
        lines.append(format_span(child, indent + 1))
    return "\n".join(lines)


def span_summary(root: Span) -> dict:
    """JSON-safe tree of one finished span: what the server returns over
    the wire so the client can stitch a cross-process trace."""
    return {
        "name": root.name,
        "trace_id": root.trace_id,
        "span_id": root.span_id,
        "parent_span_id": root.parent_span_id,
        "duration_ms": round(root.duration * 1000, 4),
        "attrs": dict(root.attrs),
        "children": [span_summary(child) for child in root.children],
    }


def format_summary(node: dict, indent: int = 0) -> str:
    """Indented tree over :func:`span_summary` dicts (local or remote)."""
    pad = "  " * indent
    attrs = node.get("attrs") or {}
    attr_text = (
        " " + " ".join(f"{key}={value!r}" for key, value in attrs.items())
        if attrs
        else ""
    )
    lines = [f"{pad}{node.get('name')}  {node.get('duration_ms', 0.0):.3f} ms{attr_text}"]
    for child in node.get("children") or []:
        lines.append(format_summary(child, indent + 1))
    return "\n".join(lines)
