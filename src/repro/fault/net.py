"""Network fault shim: wire-frame send/receive with injectable failures.

The wire protocol (:mod:`repro.server.protocol`) routes every frame
boundary — client and server socket writes and reads alike — through these
helpers, so an armed failpoint can make a *specific* frame suffer a
realistic network failure:

===============  ===========================================================
effect           behaviour at a frame boundary
===============  ===========================================================
drop_conn        sever the connection (RST-style) — the peer sees a reset
delay            stall the frame for ``DELAY_SECONDS`` before delivering it
truncate_frame   deliver a prefix of the frame, then sever the connection
                 (the peer sees EOF mid-frame → ``ProtocolError``)
duplicate_frame  deliver the frame twice (a retransmission bug / replayed
                 packet — receivers must be idempotent)
partition        refuse to touch the wire at all (host unreachable); keeps
                 refusing for as long as the trigger keeps firing
error            sever the connection, like ``drop_conn``
crash            raise :class:`SimulatedCrash` (torture-harness territory)
===============  ===========================================================

Read-side sites cannot truncate or duplicate what the peer sent, so
``truncate_frame``/``duplicate_frame`` degrade to ``drop_conn`` there.
Every helper falls through to the plain operation when the failpoint is
disarmed; sites additionally guard on ``fp.armed`` so the common path
costs one attribute load.
"""

from __future__ import annotations

import errno
import socket
import time
from typing import Optional

from repro.errors import SimulatedCrash
from repro.fault.registry import Failpoint

__all__ = ["DELAY_SECONDS", "send_bytes", "recv_gate"]

#: How long the ``delay`` effect stalls a frame.  Short enough that armed
#: test suites stay fast, long enough to reorder against concurrent
#: traffic and to trip tight heartbeat timeouts when armed ``every:1``.
DELAY_SECONDS = 0.05


def _reset_error(site: str) -> ConnectionResetError:
    return ConnectionResetError(
        errno.ECONNRESET, f"Connection reset by peer (injected at {site})"
    )


def _partition_error(site: str) -> OSError:
    return OSError(
        errno.EHOSTUNREACH, f"No route to host (injected partition at {site})"
    )


def _sever(sock: socket.socket) -> None:
    """Tear the connection down.  ``shutdown`` first: a server connection
    is shared by its session thread and (after ``wal_subscribe``) a ship
    thread, and only ``shutdown`` wakes the one still blocked on it."""
    for teardown in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
        try:
            teardown()
        except OSError:
            pass


def send_bytes(sock: socket.socket, data: bytes,
               fp: Optional[Failpoint] = None) -> None:
    """``sock.sendall(data)`` with the armed effect of *fp* applied."""
    if fp is not None and fp.armed:
        effect = fp.fires()
        if effect == "crash":
            raise SimulatedCrash(fp.name)
        if effect == "partition":
            raise _partition_error(fp.name)
        if effect == "truncate_frame":
            try:
                sock.sendall(data[: max(1, len(data) // 2)])
            except OSError:
                pass
            _sever(sock)
            raise _reset_error(fp.name)
        if effect == "delay":
            time.sleep(DELAY_SECONDS)
        elif effect == "duplicate_frame":
            sock.sendall(data)  # once here, once below
        # drop_conn, error, and any other effect (torn/bitflip/enospc):
        elif effect is not None:
            _sever(sock)
            raise _reset_error(fp.name)
    sock.sendall(data)


def recv_gate(sock: socket.socket, fp: Optional[Failpoint] = None) -> None:
    """Gate before a blocking frame read; read-side effects sever or stall
    the connection (one cannot truncate what the peer already sent)."""
    if fp is None or not fp.armed:
        return
    effect = fp.fires()
    if effect is None:
        return
    if effect == "crash":
        raise SimulatedCrash(fp.name)
    if effect == "partition":
        raise _partition_error(fp.name)
    if effect == "delay":
        time.sleep(DELAY_SECONDS)
        return
    _sever(sock)
    raise _reset_error(fp.name)
