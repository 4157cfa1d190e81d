"""Length-prefixed JSON wire protocol shared by server and client.

A **frame** is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object.  Both directions use the same
framing; what differs is the payload shape:

* **Request** — ``{"id": N, "op": "query_open", "params": {...}}``.  ``id`` is a
  client-chosen correlation number echoed back verbatim; ``params`` carries
  op-specific arguments (bind variables ride inside ``params.bind_vars`` as
  plain JSON values).  An optional top-level ``"trace"`` object —
  ``{"trace_id": <32 hex>, "parent_span_id": <16 hex>}``, W3C-traceparent
  style — propagates the client's trace context: the server continues that
  trace for the request and returns its span tree.  Peers that predate
  tracing simply ignore the extra key, so propagation needs no protocol
  version bump (the server advertises ``features: ["trace", ...]`` in the
  handshake so clients can tell).
* **Success response** — ``{"id": N, "ok": true, "result": {...}}``; when
  the request carried trace context, also ``"trace": {<span summary
  tree>}`` (see :func:`repro.obs.tracing.span_summary`).
* **Error response** — ``{"id": N, "ok": false, "error": {"code": C,
  "message": M, "details": {...}}}`` where ``C`` is a stable code from
  :mod:`repro.errors`; the client re-raises the matching class via
  :func:`repro.errors.error_for_code`.  Error responses to traced
  requests carry the ``"trace"`` key too.
* **Handshake** — immediately after accepting a connection the server sends
  one unsolicited frame ``{"hello": {"server": "repro", "version": ...,
  "protocol": 2, "session": S}}`` (or an error frame with
  ``SERVER_OVERLOADED`` when the session limit is hit, then closes).

Values that are not JSON-native (dates, bytes reprs, …) are serialized with
``default=str`` — the same lossy-but-total rule the shell uses to print
rows.

Failpoints ``server.frame_read`` / ``server.frame_write`` sit on the
server-side frame boundary, and ``client.frame_read`` /
``client.frame_write`` on the client side, so the torture and chaos
suites can sever, stall, truncate or duplicate the stream
mid-conversation.  All four route through :mod:`repro.fault.net`, which
interprets the network effects (``drop_conn``, ``delay``,
``truncate_frame``, ``duplicate_frame``, ``partition``); the plain
``error`` effect still behaves as before — the connection is dropped,
which is exactly what a torn TCP stream looks like to the peer.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional

from repro.errors import (
    ProtocolError,
    code_of,
    error_details,
    error_for_code,
)
from repro.fault import net as fault_net
from repro.fault import registry as fault_registry
from repro.obs import metrics as obs_metrics

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "read_request",
    "send_payload",
    "request",
    "parse_trace_context",
    "ok_response",
    "error_response",
    "raise_wire_error",
]

#: Bumped on any incompatible change to the frame or payload shapes or to
#: the set of ops; the client refuses a handshake with a different major
#: protocol.  2: the eager ``query`` op is gone, every query is a
#: ``query_open``.
PROTOCOL_VERSION = 2

#: Default per-frame size cap.  Large enough for any sane result page,
#: small enough that a corrupt length prefix cannot make a peer try to
#: buffer gigabytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: One encoder for every frame, both directions: ``json.dumps`` with
#: keyword arguments builds a new ``JSONEncoder`` per call.  Encoding keeps
#: no state on the encoder, so the threads may share it.
_encode = json.JSONEncoder(default=str, separators=(",", ":")).encode

#: The scanner ``json.loads`` runs, called on the frame's text directly:
#: a frame this module encoded has no whitespace around its object.
_scan = json.JSONDecoder().scan_once

_BYTES_WRITTEN = obs_metrics.counter("server_bytes_written_total")
_BYTES_READ = obs_metrics.counter("server_bytes_read_total")

FP_FRAME_READ = fault_registry.register(
    "server.frame_read",
    "server-side wire frame read (net effects; error => connection drop)",
)
FP_FRAME_WRITE = fault_registry.register(
    "server.frame_write",
    "server-side wire frame write (net effects; error => connection drop)",
)
FP_CLIENT_READ = fault_registry.register(
    "client.frame_read",
    "client-side wire frame read (net effects; error => connection drop)",
)
FP_CLIENT_WRITE = fault_registry.register(
    "client.frame_write",
    "client-side wire frame write (net effects; error => connection drop)",
)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """Header + JSON body for one payload object."""
    body = _encode(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """Parse a frame body; the payload must be a JSON object."""
    try:
        text = body.decode("utf-8")
        try:
            payload, end = _scan(text, 0)
        except StopIteration:
            end = -1
        if end != len(text):
            # Whitespace around the object, or not JSON: ``json.loads``
            # accepts the first and names the second.
            payload = json.loads(text)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"undecodable frame payload: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_length(length: int, max_frame: int) -> None:
    if length > max_frame:
        raise ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(limit {max_frame}) — corrupt length prefix?"
        )


# ---------------------------------------------------------------------------
# Blocking socket I/O (client, server sessions, replication)
# ---------------------------------------------------------------------------


def write_frame(sock: socket.socket, payload: dict) -> int:
    """Client side: send one frame; returns the bytes written."""
    data = encode_frame(payload)
    fault_net.send_bytes(sock, data, FP_CLIENT_WRITE)
    return len(data)


def send_payload(sock: socket.socket, data: bytes) -> int:
    """Server side: send an already-encoded frame (callers that time
    serialization separately encode first, then send here); returns the
    bytes written."""
    fault_net.send_bytes(sock, data, FP_FRAME_WRITE)
    if obs_metrics.ENABLED:
        _BYTES_WRITTEN.inc(len(data))
    return len(data)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; None on clean EOF at a frame boundary,
    :class:`ProtocolError` on EOF mid-frame."""
    chunk = sock.recv(count)
    if len(chunk) == count:
        return chunk  # the common case: one recv, nothing to join
    if not chunk:
        return None
    chunks = [chunk]
    remaining = count - len(chunk)
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read(sock: socket.socket, max_frame: int, fp) -> tuple[Optional[dict], int]:
    """One frame and its size on the wire; ``(None, 0)`` on clean EOF
    before any header byte."""
    if fp.armed:
        fault_net.recv_gate(sock, fp)
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None, 0
    (length,) = _HEADER.unpack(header)
    _check_length(length, max_frame)
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise ProtocolError("connection closed between header and payload")
    return decode_payload(body), _HEADER.size + length


def read_frame(
    sock: socket.socket, max_frame: int = MAX_FRAME_BYTES
) -> Optional[dict]:
    """Client side: read one frame; None on clean EOF before any header
    byte."""
    return _read(sock, max_frame, FP_CLIENT_READ)[0]


def read_request(
    sock: socket.socket, max_frame: int = MAX_FRAME_BYTES
) -> Optional[dict]:
    """Server side: read one frame from a session's socket; None on clean
    EOF before any header byte."""
    payload, size = _read(sock, max_frame, FP_FRAME_READ)
    if size and obs_metrics.ENABLED:
        _BYTES_READ.inc(size)
    return payload


# ---------------------------------------------------------------------------
# Payload shapes
# ---------------------------------------------------------------------------


def request(
    request_id: int, op: str, trace: Optional[dict] = None, **params: Any
) -> dict:
    payload = {"id": request_id, "op": op, "params": params}
    if trace is not None:
        payload["trace"] = trace
    return payload


def parse_trace_context(frame: dict):
    """The :class:`repro.obs.tracing.SpanContext` a request frame carries,
    or None (absent or malformed — a bad trace never fails the request)."""
    trace = frame.get("trace")
    if not isinstance(trace, dict):
        return None
    trace_id = trace.get("trace_id")
    parent = trace.get("parent_span_id")
    if not isinstance(trace_id, str) or not isinstance(parent, str):
        return None
    from repro.obs.tracing import SpanContext

    return SpanContext(trace_id.lower(), parent.lower())


def ok_response(request_id: Optional[int], result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Optional[int], error: BaseException) -> dict:
    """Serialize any exception into an error frame payload.

    Engine errors travel as their stable code plus JSON-safe instance
    attributes; anything else (a genuine server bug) becomes ``INTERNAL``
    with the exception type prefixed so the client log is actionable.
    """
    code = code_of(error)
    message = str(error)
    if code == "INTERNAL":
        message = f"{type(error).__name__}: {message}"
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "code": code,
            "message": message,
            "details": error_details(error),
        },
    }


def raise_wire_error(error_obj: dict) -> None:
    """Client side: re-raise the typed engine error an error frame carries."""
    if not isinstance(error_obj, dict):
        raise ProtocolError(f"malformed error frame: {error_obj!r}")
    raise error_for_code(
        str(error_obj.get("code", "INTERNAL")),
        str(error_obj.get("message", "unknown server error")),
        error_obj.get("details") or {},
    )
