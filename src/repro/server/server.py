"""Threaded TCP server hosting one :class:`~repro.core.database.MultiModelDB`.

Architecture (one process, one thread per connection):

* an **accept thread** takes connections off the listening socket, applies
  the session cap, and hands each admitted connection to its own
  **session thread**;
* the **session thread** reads a request frame
  (:mod:`repro.server.protocol`), runs the op — engine call included —
  encodes the response and writes it, then reads the next frame.  Nothing
  on the request path changes threads, so a request costs no cross-thread
  wake-up; a lock wait, an fsync or a long scan blocks its own session
  only, and the GIL hands the other threads a turn every switch interval;
* the **engine** underneath is shared: the catalog lock, plan-cache lock
  and transaction-manager mutex make that safe.  Server-side shared state
  (the session table, the in-flight count, the replication hub, each
  session's cursor registry) has a lock of its own.

Admission control is three gates with typed rejections
(:class:`repro.errors.ServerOverloadedError` — the request is *refused*,
never silently queued forever):

* ``max_sessions`` — checked by the accept thread; connections beyond it
  are greeted with an error frame and closed;
* ``max_inflight`` — engine calls (``query``/``query_open``/
  ``cursor_next``/``explain``/``commit``/``abort``) run at most that many at
  once, the others wait for a slot (the ``queue`` phase);
* ``max_inflight + queue_depth`` — an engine call that would push running
  plus waiting calls past it is rejected immediately.

The last two are one structure: a condition over the count of running and
waiting calls, which one lock acquisition admits a call to and one releases
it from (see :meth:`ReproServer._run_engine`).

**Streaming cursors** (``query_open`` / ``cursor_next`` / ``cursor_close``)
let a client pull a large result in chunks instead of one frame: the server
holds a lazy engine cursor (:class:`repro.query.engine.QueryCursor`) per
open stream, scoped to the session, capped at ``max_cursors_per_session``
(:class:`repro.errors.CursorLimitError`) and reaped by a background thread
after ``cursor_idle_timeout`` seconds without a fetch
(:class:`repro.errors.CursorNotFoundError` on later touches).  Peak server
memory per stream is one chunk, not one result set.

Graceful shutdown (:meth:`ReproServer.shutdown`) stops accepting, lets
in-flight engine calls drain (bounded by ``drain_timeout``), closes every
open cursor (mid-stream clients see :class:`repro.errors.ServerShutdownError`
on their next fetch — cursor ops are not in the always-allowed set while
draining), aborts transactions orphaned by surviving sessions, optionally
checkpoints the database, and only then shuts the session sockets down and
joins their threads — so every positively-acknowledged commit is durable
in the WAL.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Any, Optional

from repro import __version__
from repro.errors import (
    ClusterError,
    CursorLimitError,
    InjectedFaultError,
    NotPrimaryError,
    ProtocolError,
    ReplicaBelowFloorError,
    ReplicationError,
    ReproError,
    ServerOverloadedError,
    ServerShutdownError,
    SessionStateError,
    ShardMapStaleError,
    SimulatedCrash,
    StorageError,
    code_of,
)
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import slowlog, tracing
from repro.obs.telemetry import TelemetryEndpoint
from repro.query.engine import open_query_cursor, run_query
from repro.replication.apply import ReplicationApplier
from repro.replication.hub import ReplicationHub, heartbeat_timeout
from repro.server import protocol
from repro.server.session import Session
from repro.storage.checkpoint import snapshot_image
from repro.storage.wal import entry_to_record

__all__ = ["ReproServer"]

#: Ops answered even while draining, and without taking an engine slot, so
#: a client can still observe a busy or shutting-down server (the
#: observability ops are here precisely because that is when you want them
#: most).
_ALWAYS_ALLOWED = frozenset(
    {"ping", "stats", "info", "trace_dump", "slowlog", "events", "repl_status"}
)

#: Records per ship frame — bounds frame size while a far-behind replica
#: catches up (the rest goes out on the next loop iteration).
_SHIP_BATCH = 512

obs_metrics.describe(
    "server_request_phase_seconds",
    "Per-request wall seconds by phase: queue (engine-slot wait), "
    "execute (engine work), serialize (response encoding)",
)
obs_metrics.describe(
    "server_request_seconds", "End-to-end wall seconds per wire request"
)
obs_metrics.describe(
    "server_requests_total", "Wire requests dispatched, by op"
)
obs_metrics.describe(
    "wal_records_shipped_total", "WAL records shipped to replica subscribers"
)
obs_metrics.describe(
    "wal_records_applied_total", "Shipped WAL records applied, by replica"
)
obs_metrics.describe(
    "replication_lag_seconds",
    "Age of the newest ship frame a replica has applied, by replica",
)
obs_metrics.describe(
    "replication_applied_lsn", "Replica applied-LSN watermark, by replica"
)
obs_metrics.describe(
    "failover_total", "Primary failovers performed by ReplicaSet routers"
)

# What every request observes, resolved once (``MetricsRegistry.reset``
# keeps the handles valid); a label that varies per call is a Family.
_REQUEST_SECONDS = obs_metrics.histogram("server_request_seconds")
_PHASE_SECONDS = {
    phase: obs_metrics.histogram("server_request_phase_seconds", phase=phase)
    for phase in ("queue", "execute", "serialize")
}
_INFLIGHT = obs_metrics.gauge("server_inflight_queries")
_REQUESTS = obs_metrics.Family(obs_metrics.counter, "server_requests_total", "op")
_ERRORS = obs_metrics.Family(obs_metrics.counter, "server_errors_total", "code")
_CURSORS_OPENED = obs_metrics.counter("server_cursors_opened_total")


def _phases_ms(phases: dict) -> dict:
    """Phase seconds → milliseconds, rounded for wire stats."""
    return {name: round(seconds * 1000, 3) for name, seconds in phases.items()}


def _merge_limit(requested, session_value, host_default):
    """Effective guardrail: the client's request (or its session override)
    picks the value, but a configured host default is a hard cap — a remote
    client can tighten ``db.guardrails``, never escape it."""
    value = requested if requested is not None else session_value
    if host_default is not None:
        value = host_default if value is None else min(value, host_default)
    return value


class _Connection:
    """A session's socket, the lock that serialises writes to it — replies
    from the session thread and, after ``wal_subscribe``, ship frames from
    the ship thread — and the session thread itself."""

    __slots__ = ("sock", "write_lock", "thread", "reset")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.write_lock = threading.Lock()
        self.thread: Optional[threading.Thread] = None
        #: Set by :meth:`sever` with ``reset=True``: nothing more is sent.
        self.reset = False

    def send(self, data: bytes) -> None:
        with self.write_lock:
            if self.reset:
                raise ConnectionResetError("server killed")
            protocol.send_payload(self.sock, data)

    def sever(self, reset: bool = False, hang_up: bool = True) -> None:
        """Wake the session thread out of its read.  ``hang_up`` shuts the
        write side too, so the peer sees the hang-up at once; without it a
        reply the thread is about to send for a call that already finished
        still goes out, and the thread's close sends the FIN.  ``reset`` is
        the power cut: ``SO_LINGER`` 0 makes the thread's close send an
        RST, and only the read side is shut, so no FIN goes out before it."""
        try:
            if reset:
                self.reset = True
                self.sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            self.sock.shutdown(
                socket.SHUT_RDWR if hang_up and not reset else socket.SHUT_RD
            )
        except OSError:
            pass

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ReproServer:
    """Serve one database over the length-prefixed JSON wire protocol."""

    def __init__(
        self,
        db: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 64,
        max_inflight: int = 8,
        queue_depth: int = 32,
        drain_timeout: float = 10.0,
        checkpoint_path: Optional[str] = None,
        max_frame: int = protocol.MAX_FRAME_BYTES,
        max_cursors_per_session: int = 16,
        cursor_idle_timeout: float = 300.0,
        cursor_chunk_rows: int = 1024,
        telemetry_port: Optional[int] = None,
        telemetry_host: Optional[str] = None,
        replica_of: Optional[Any] = None,
        ack_replication: int = 0,
        ack_timeout: float = 5.0,
        ship_interval: float = 0.02,
        heartbeat_interval: float = 0.5,
        shard_id: Optional[int] = None,
        shard_map: Optional[Any] = None,
    ):
        self.db = db
        self.host = host
        self.port = port
        self.max_sessions = int(max_sessions)
        self.max_inflight = max(int(max_inflight), 1)
        self.queue_depth = max(int(queue_depth), 0)
        self.drain_timeout = drain_timeout
        self.checkpoint_path = checkpoint_path
        self.max_frame = max_frame
        self.max_cursors_per_session = max(int(max_cursors_per_session), 1)
        self.cursor_idle_timeout = float(cursor_idle_timeout)
        self.cursor_chunk_rows = max(int(cursor_chunk_rows), 1)
        #: HTTP telemetry sidecar (``/metrics``, ``/healthz``, ``/stats``,
        #: ``/events``); ``None`` disables it, ``0`` binds an OS-picked port.
        self.telemetry_port = telemetry_port
        self.telemetry_host = telemetry_host if telemetry_host is not None else host
        #: ``"host:port"`` of the primary this server replicates, or None
        #: (= this server is a primary).  Cleared by the ``promote`` op.
        self.replica_of = self._normalize_upstream(replica_of)
        #: Semi-sync: block write responses until this many subscribers
        #: acked the write's LSN (0 = fully asynchronous replication).
        self.ack_replication = max(int(ack_replication), 0)
        self.ack_timeout = float(ack_timeout)
        self.ship_interval = float(ship_interval)
        self.heartbeat_interval = float(heartbeat_interval)
        #: Cluster membership: this server's shard id and the topology it
        #: was provisioned with.  A coordinator ships the map version it
        #: planned against; a mismatch answers SHARD_MAP_STALE so the
        #: client refetches instead of routing rows with a dead topology.
        self.shard_id = None if shard_id is None else int(shard_id)
        if shard_map is not None and not hasattr(shard_map, "to_json"):
            from repro.cluster.shardmap import ShardMap

            shard_map = ShardMap.from_json(shard_map)
        self.shard_map = shard_map

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._reaper: Optional[threading.Thread] = None
        #: Guards ``_sessions``.
        self._lock = threading.Lock()
        self._sessions: dict[int, tuple[Session, _Connection]] = {}
        #: Engine-call admission: guards the two counts below, and wakes a
        #: waiting call when a slot frees and the drain when both reach 0.
        self._admission = threading.Condition(threading.Lock())
        #: Engine calls holding a slot, and calls admitted to wait for one.
        self._running = 0
        self._waiting = 0
        self._stop_requested = threading.Event()
        self._closing = threading.Event()
        self._draining = False
        self._started_at = time.time()
        self._thread: Optional[threading.Thread] = None
        self._telemetry: Optional[TelemetryEndpoint] = None
        self._hub = ReplicationHub()
        # The bounded engine log trims behind its subscribers, not past them.
        self.db.context.log.reader_floor = self._hub.slowest_shipped_lsn
        self._applier: Optional[ReplicationApplier] = None
        self._puller: Optional[WalPuller] = None
        self._kill = False

    @staticmethod
    def _normalize_upstream(replica_of: Optional[Any]) -> Optional[str]:
        if replica_of is None:
            return None
        if isinstance(replica_of, (tuple, list)) and len(replica_of) == 2:
            return f"{replica_of[0]}:{int(replica_of[1])}"
        text = str(replica_of)
        host, _, port = text.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"replica_of must be 'host:port' or (host, port), got {text!r}"
            )
        return text

    @property
    def role(self) -> str:
        return "replica" if self.replica_of is not None else "primary"

    # ------------------------------------------------------------ lifecycle --

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    @property
    def inflight(self) -> int:
        """Engine calls admitted: running plus waiting for a slot."""
        return self._running + self._waiting

    def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port) —
        pass ``port=0`` to let the OS pick a free one."""
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server(
            (self.host, self.port), family=family, backlog=128
        )
        self.port = self._listener.getsockname()[1]
        self._stop_requested.clear()
        self._closing.clear()
        self._draining = False
        self._started_at = time.time()
        self._accept_thread = self._spawn("repro-accept", self._accept_loop)
        self._reaper = self._spawn("repro-reaper", self._reap_idle_cursors)
        if self.replica_of is not None:
            # Imported here, not at module scope: replica.py speaks the wire
            # protocol, so a top-level import would be circular.
            from repro.replication.replica import WalPuller

            upstream_host, _, upstream_port = self.replica_of.rpartition(":")
            self._applier = ReplicationApplier(
                self.db, name=f"{self.host}:{self.port}"
            )
            self._puller = WalPuller(
                self._applier,
                upstream_host,
                int(upstream_port),
                heartbeat_timeout=heartbeat_timeout(self.heartbeat_interval),
            )
            self._puller.start()
        if self.telemetry_port is not None:
            self._telemetry = TelemetryEndpoint(
                host=self.telemetry_host,
                port=self.telemetry_port,
                stats_provider=self._stats_payload,
                health_provider=self._health_payload,
            )
            self._telemetry.start()
        return self.address

    @staticmethod
    def _spawn(name: str, target, *args) -> threading.Thread:
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        thread.start()
        return thread

    @property
    def telemetry_address(self) -> Optional[tuple[str, int]]:
        """(host, port) of the HTTP telemetry endpoint, or None."""
        if self._telemetry is None:
            return None
        return (self._telemetry.host, self._telemetry.port)

    def _session_entries(self) -> list:
        with self._lock:
            return list(self._sessions.values())

    def _reap_idle_cursors(self) -> None:
        """Background sweep closing cursors idle past
        ``cursor_idle_timeout`` — an abandoned client must not pin engine
        cursors (and their snapshots) forever."""
        interval = max(min(self.cursor_idle_timeout / 2.0, 5.0), 0.05)
        while not self._closing.wait(interval):
            now = time.monotonic()
            reaped = 0
            for session, _conn in self._session_entries():
                entries = session.reap_idle_cursors(now, self.cursor_idle_timeout)
                reaped += len(entries)
                for entry in entries:
                    obs_events.emit(
                        "cursor_reaped",
                        session_id=session.session_id,
                        cursor=entry.cursor_id,
                        fetches=entry.fetches,
                        idle_seconds=round(now - entry.last_used_at, 3),
                        trace_id=entry.trace_id,
                        query=entry.text,
                    )
            if reaped and obs_metrics.ENABLED:
                obs_metrics.counter("server_cursors_reaped_total").inc(reaped)

    def serve_until_stopped(self) -> None:
        """Run until :meth:`request_stop` / :meth:`stop`, then shut down
        gracefully."""
        if self._listener is None:
            self.start()
        try:
            self._stop_requested.wait()
        finally:
            self.shutdown(drain=not self._kill)

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight engine calls, close cursors,
        abort stranded transactions, checkpoint, then shut every session
        socket down and join the session threads."""
        self._draining = True
        obs_events.emit(
            "drain_begin",
            sessions=len(self._sessions),
            inflight=self.inflight,
            drain=drain,
        )
        self._closing.set()
        if self._puller is not None:
            # Sets the stop flag and severs the socket; the daemon thread
            # exits on its own.
            puller, self._puller = self._puller, None
            puller.stop(join_timeout=None)
        self._hub.shutdown()
        if self._listener is not None:
            try:
                # What wakes the accept thread out of accept().
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
            self._accept_thread.join(timeout=1.0)
            self._listener = None
        if drain and self.inflight:
            with self._admission:
                drained = self._admission.wait_for(
                    lambda: self.inflight == 0, self.drain_timeout
                )
                inflight = self.inflight
            if drained:
                obs_events.emit("drain_inflight_complete", inflight=0)
            else:
                # bounded patience: surviving calls finish unobserved
                obs_events.emit(
                    "drain_timeout",
                    inflight=inflight,
                    drain_timeout=self.drain_timeout,
                )
        entries = self._session_entries()
        # Open streaming cursors cannot outlive the server: close them so
        # their pipelines release store cursors; mid-stream clients get
        # ServerShutdownError on their next cursor_next (the drain gate).
        closed_cursors = sum(session.close_cursors() for session, _ in entries)
        if closed_cursors:
            obs_events.emit("drain_cursors_closed", closed=closed_cursors)
        # Transactions stranded by sessions that never said commit: roll
        # them back so their locks and intents don't outlive the server.
        aborted_txns = 0
        for session, _conn in entries:
            if session.txn is not None:
                try:
                    self.db.abort(session.take_txn("shutdown"))
                    aborted_txns += 1
                except Exception:
                    pass
        if aborted_txns:
            obs_events.emit("drain_txns_aborted", aborted=aborted_txns)
        if self.checkpoint_path is not None and not self._kill:
            try:
                self.db.checkpoint(self.checkpoint_path)
            except Exception:
                pass  # checkpointing is an optimization; the WAL is truth
        # Wake every session thread out of its read and give them a grace
        # window to clean up and leave; a thread still inside an engine
        # call past it is a daemon and ends with the process.  The write
        # side stays open: a call that finished during the drain still
        # gets its reply.
        for _session, conn in entries:
            conn.sever(reset=self._kill, hang_up=False)
        grace_ends = time.monotonic() + 1.0
        for _session, conn in entries:
            conn.thread.join(max(grace_ends - time.monotonic(), 0.0))
        with self._lock:
            self._sessions.clear()
        if obs_metrics.ENABLED:
            obs_metrics.gauge("server_sessions_active").set(0)
        if self._telemetry is not None:
            # Last out: the health endpoint stays scrapeable through the
            # whole drain (it reports ``draining: true``).
            self._telemetry.stop()
            self._telemetry = None
        self._reaper.join(timeout=1.0)
        obs_events.emit("drain_complete")

    def request_stop(self) -> None:
        """Thread-safe: ask :meth:`serve_until_stopped` to shut down."""
        self._stop_requested.set()

    # -- background-thread conveniences (tests, benchmarks, `serve`) --------

    def start_in_thread(self) -> tuple[str, int]:
        """Start accepting and run :meth:`serve_until_stopped` in a daemon
        thread; returns the bound address."""
        self.start()
        self._thread = self._spawn("repro-server", self.serve_until_stopped)
        return self.address

    def stop(self, timeout: float = 15.0) -> None:
        """Thread-safe: gracefully stop a :meth:`start_in_thread` server."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def kill(self, timeout: float = 5.0) -> None:
        """Thread-safe **unclean** stop, for the chaos harness: reset every
        live connection (clients and subscribers see a connection reset, as
        with a power cut), then tear down with no drain and no checkpoint.
        Whatever the WAL holds is what recovery — and the replicas — get."""
        self._kill = True
        self._draining = True
        obs_events.emit("server_killed", host=self.host, port=self.port)
        if self._puller is not None:
            self._puller.stop(join_timeout=0.5)
        for _session, conn in self._session_entries():
            conn.sever(reset=True)
        self.stop(timeout=timeout)

    def __enter__(self) -> "ReproServer":
        self.start_in_thread()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---------------------------------------------------------- connections --

    def _server_info(self, session: Optional[Session] = None) -> dict:
        info = {
            "server": "repro",
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            #: Compatible capabilities layered on protocol v1; clients use
            #: this (not the version) to decide what extras to send.
            "features": [
                "trace", "events", "telemetry", "replication", "cluster",
            ],
            "role": self.role,
            "limits": {
                "max_sessions": self.max_sessions,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "max_frame": self.max_frame,
                "max_cursors_per_session": self.max_cursors_per_session,
                "cursor_idle_timeout": self.cursor_idle_timeout,
                "cursor_chunk_rows": self.cursor_chunk_rows,
            },
        }
        if self.replica_of is not None:
            info["replica_of"] = self.replica_of
        if self.shard_id is not None:
            info["shard"] = {
                "shard_id": self.shard_id,
                "map_version": (
                    self.shard_map.version
                    if self.shard_map is not None
                    else None
                ),
            }
        if session is not None:
            info["session"] = session.session_id
        if self._telemetry is not None:
            info["telemetry"] = {
                "host": self._telemetry.host,
                "port": self._telemetry.port,
            }
        return info

    def _stats_payload(self) -> dict:
        return {
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "draining": self._draining,
            "inflight": self.inflight,
            "sessions": [
                session.describe() for session, _conn in self._session_entries()
            ],
            "limits": self._server_info()["limits"],
            "replication": self._repl_status(),
        }

    def _repl_status(self) -> dict:
        log = self.db.context.log
        if self.replica_of is not None and self._puller is not None:
            status = self._puller.describe()
            status.update({"role": "replica", "last_lsn": log.last_lsn})
            return status
        return {
            "role": "primary",
            "last_lsn": log.last_lsn,
            "applied_lsn": log.last_lsn,
            "ack_replication": self.ack_replication,
            "subscribers": self._hub.describe(),
        }

    def _health_payload(self) -> dict:
        return {
            "ok": True,
            "draining": self._draining,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "sessions": len(self._sessions),
            "inflight": self.inflight,
        }

    def _accept_loop(self) -> None:
        listener = self._listener
        while True:
            try:
                sock, address = listener.accept()
            except OSError:
                return  # the listener was shut down
            try:
                self._admit(sock, f"{address[0]}:{address[1]}")
            except Exception:
                sock.close()

    def _admit(self, sock: socket.socket, peer: str) -> None:
        """Session cap and drain gate, then a session thread for *sock*."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if obs_metrics.ENABLED:
            obs_metrics.counter("server_connections_total").inc()
        conn = _Connection(sock)
        error: Optional[Exception] = None
        with self._lock:
            active = len(self._sessions)
            if self._draining:
                error = ServerShutdownError("server is shutting down")
            elif active >= self.max_sessions:
                error = ServerOverloadedError(
                    f"session limit reached ({self.max_sessions} active)"
                )
            else:
                session = Session(peer=peer)
                conn.thread = threading.Thread(
                    target=self._serve_session,
                    args=(session, conn),
                    name=f"repro-session-{session.session_id}",
                    daemon=True,
                )
                self._sessions[session.session_id] = (session, conn)
                active += 1
        if error is None:
            if obs_metrics.ENABLED:
                obs_metrics.gauge("server_sessions_active").set(active)
            conn.thread.start()
            return
        if isinstance(error, ServerOverloadedError):
            if obs_metrics.ENABLED:
                obs_metrics.counter("server_overload_rejections_total").inc()
            obs_events.emit(
                "admission_rejected",
                reason="session_limit",
                peer=peer,
                sessions=active,
                max_sessions=self.max_sessions,
            )
        try:
            conn.send(protocol.encode_frame(protocol.error_response(None, error)))
        except Exception:
            pass
        conn.close()

    def _serve_session(self, session: Session, conn: _Connection) -> None:
        """The session thread: hello, then read → run → answer until the
        connection ends."""
        try:
            conn.send(protocol.encode_frame({"hello": self._server_info(session)}))
            while True:
                frame = protocol.read_request(conn.sock, self.max_frame)
                if frame is None:
                    break  # clean EOF
                if "op" not in frame and isinstance(frame.get("ack"), dict):
                    # Fire-and-forget replication acknowledgement from a
                    # subscribed replica — no response frame.
                    self._hub.record_ack(session.session_id, frame["ack"].get("lsn"))
                    continue
                self._dispatch(session, conn, frame)
        except (ProtocolError, InjectedFaultError, OSError):
            pass  # torn or reset stream, or an undeliverable response
        finally:
            # The connection owns its cursors: a vanished client must not
            # leave lazy pipelines (and their store cursors) behind.  These
            # count as reaped — an abrupt socket close is the involuntary
            # twin of the idle-timeout sweep.
            reaped_cursors = session.close_cursors()
            if reaped_cursors:
                if obs_metrics.ENABLED:
                    obs_metrics.counter("server_cursors_reaped_total").inc(
                        reaped_cursors
                    )
                obs_events.emit(
                    "cursors_reaped_on_disconnect",
                    session_id=session.session_id,
                    peer=session.peer,
                    closed=reaped_cursors,
                )
            self._hub.unsubscribe(session.session_id)
            if session.txn is not None:
                # The client vanished mid-transaction: roll it back.
                try:
                    self.db.abort(session.take_txn("disconnect"))
                except Exception:
                    pass
            with self._lock:
                self._sessions.pop(session.session_id, None)
                active = len(self._sessions)
            if obs_metrics.ENABLED:
                obs_metrics.gauge("server_sessions_active").set(active)
            conn.close()

    # ------------------------------------------------------------- dispatch --

    def _dispatch(self, session: Session, conn: _Connection, frame: dict) -> None:
        request_id = frame.get("id")
        op = frame.get("op")
        params = frame.get("params") or {}
        session.requests += 1
        request_seq = session.requests
        session.last_op = op if isinstance(op, str) else None
        # A request carrying trace context is *continued* here: the server
        # span adopts the client's trace/parent ids, so client and server
        # trees stitch into one distributed trace keyed by trace_id.
        trace_ctx = protocol.parse_trace_context(frame)
        perf_counter = time.perf_counter
        started = perf_counter()
        server_span = None
        # The engine call's queue and execute seconds (see _run_engine).
        phases: dict = {}
        try:
            if not isinstance(op, str) or not op:
                raise ProtocolError(f"request frame without a valid op: {frame!r}")
            if not isinstance(params, dict):
                raise ProtocolError("request params must be a JSON object")
            if obs_metrics.ENABLED:
                _REQUESTS[op].inc()
            if trace_ctx is None and not tracing.ENABLED:
                result = self._execute_op(session, op, params, phases)
            else:
                with tracing.adopt(trace_ctx), tracing.span(
                    "server.request",
                    op=op,
                    session_id=session.session_id,
                    request_id=request_seq,
                ) as server_span:
                    result = self._execute_op(session, op, params, phases)
            payload = protocol.ok_response(request_id, result)
        except SimulatedCrash:
            raise
        except Exception as error:
            session.errors += 1
            if obs_metrics.ENABLED:
                _ERRORS[code_of(error)].inc()
            payload = protocol.error_response(request_id, error)
        if server_span is not None:
            if phases:
                server_span.set(
                    queue_ms=round(phases["queue"] * 1000, 3),
                    execute_ms=round(phases["execute"] * 1000, 3),
                )
            if trace_ctx is not None:
                # Error responses carry the span tree too — a failed
                # request is the one you most want to see attributed.
                payload["trace"] = tracing.span_summary(server_span)
        serialize_started = perf_counter()
        data = protocol.encode_frame(payload)
        serialize_seconds = perf_counter() - serialize_started
        if server_span is not None:
            server_span.set(serialize_ms=round(serialize_seconds * 1000, 3))
        conn.send(data)
        if obs_metrics.ENABLED:
            _REQUEST_SECONDS.observe(perf_counter() - started)
            _PHASE_SECONDS["serialize"].observe(serialize_seconds)

    def _execute_op(
        self, session: Session, op: str, params: dict, phases: dict
    ) -> Any:
        if self._draining and op not in _ALWAYS_ALLOWED:
            raise ServerShutdownError(
                f"server is draining; {op!r} rejected (reconnect elsewhere)"
            )
        if self.replica_of is not None:
            self._reject_writes_on_replica(op, params)
        if op == "ping":
            return {"pong": True}
        if op == "info":
            return self._server_info(session)
        if op == "stats":
            return self._stats_payload()
        if op == "trace_dump":
            roots = list(tracing.TRACER.roots)
            limit = params.get("n")
            if isinstance(limit, int) and limit > 0:
                roots = roots[-limit:]
            return {"traces": [tracing.span_summary(root) for root in roots]}
        if op == "slowlog":
            return slowlog.payload(params)
        if op == "events":
            limit = params.get("n")
            kind = params.get("kind")
            return {
                "events": obs_events.tail(
                    limit if isinstance(limit, int) else None,
                    kind=kind if isinstance(kind, str) else None,
                )
            }
        if op == "shard_map":
            if self.shard_map is None:
                raise ClusterError(
                    "this server is not part of a cluster (no shard map)"
                )
            return {
                "shard_id": self.shard_id,
                "shard_map": self.shard_map.to_json(),
            }
        if op == "query":
            self._check_shard_map(params)
            result = self._op_query(session, params, phases)
            self._semi_sync_gate(session, params)
            return result
        if op == "query_open":
            self._check_shard_map(params)
            result = self._op_query_open(session, params, phases)
            self._semi_sync_gate(session, params)
            return result
        if op == "cursor_next":
            return self._op_cursor_next(session, params, phases)
        if op == "cursor_close":
            return self._op_cursor_close(session, params)
        if op == "explain":
            text = self._required_text(params)
            return {"plan": self._run_engine(lambda: self.db.explain(text), phases)}
        if op == "begin":
            isolation = params.get("isolation", "snapshot")
            if session.in_txn:
                raise SessionStateError(
                    f"session {session.session_id} already has an active "
                    "transaction — commit or abort it first"
                )
            txn = self.db.begin(isolation)
            session.attach_txn(txn)
            return {"txn": txn.txn_id, "isolation": str(isolation)}
        if op == "commit":
            txn = session.take_txn("commit")
            try:
                self._run_engine(lambda: self.db.commit(txn), phases)
            except Exception:
                # A failed commit (conflict, lock timeout, injected fault)
                # aborts server-side; the session must not keep a dead txn.
                if getattr(txn, "is_active", False):
                    try:
                        self.db.abort(txn)
                    except Exception:
                        pass
                raise
            committed_lsn = self.db.context.log.last_lsn
            if self.ack_replication > 0:
                self._hub.wait_for_acks(
                    committed_lsn, self.ack_replication, self.ack_timeout
                )
            return {"txn": txn.txn_id, "committed": True,
                    "last_lsn": committed_lsn}
        if op == "abort":
            txn = session.take_txn("abort")
            self._run_engine(lambda: self.db.abort(txn), phases)
            return {"txn": txn.txn_id, "aborted": True}
        if op == "set":
            if "timeout" in params:
                timeout = params["timeout"]
                session.timeout = None if timeout is None else float(timeout)
            if "max_rows" in params:
                max_rows = params["max_rows"]
                session.max_rows = None if max_rows is None else int(max_rows)
            return {"timeout": session.timeout, "max_rows": session.max_rows}
        if op == "wal_subscribe":
            return self._op_wal_subscribe(session, params, phases)
        if op == "repl_status":
            return self._repl_status()
        if op == "repl_wait":
            return self._op_repl_wait(params)
        if op == "promote":
            return self._op_promote()
        if op == "repoint":
            return self._op_repoint(params)
        raise ProtocolError(f"unknown op {op!r}")

    # ------------------------------------------------------- replication ----

    def _reject_writes_on_replica(self, op: str, params: dict) -> None:
        """Replicas serve reads only; anything that would mutate state (or
        open a transaction that could) is the primary's job."""
        if op in ("begin", "commit", "abort"):
            raise NotPrimaryError(
                f"{op!r} refused: this server is a read replica of "
                f"{self.replica_of} — transactions belong on the primary",
                primary=self.replica_of,
            )
        if op in ("query", "query_open"):
            text = params.get("text")
            if isinstance(text, str) and self.db.plan_cache.classify(text).writes:
                raise NotPrimaryError(
                    "write statement refused: this server is a read replica "
                    f"of {self.replica_of} — send writes to the primary",
                    primary=self.replica_of,
                )

    def _semi_sync_gate(self, session: Session, params: dict) -> None:
        """Semi-sync replication: hold a *write's* response until
        ``ack_replication`` subscribers acked its LSN.  Reads pass through;
        statements inside an open transaction publish nothing until commit,
        so the gate for those sits on the ``commit`` op instead."""
        if self.ack_replication <= 0 or session.in_txn:
            return
        text = params.get("text")
        if not isinstance(text, str) or not self.db.plan_cache.classify(text).writes:
            return
        self._hub.wait_for_acks(
            self.db.context.log.last_lsn, self.ack_replication, self.ack_timeout
        )

    def _op_wal_subscribe(
        self, session: Session, params: dict, phases: dict
    ) -> dict:
        from_lsn = params.get("from_lsn", 0)
        if not isinstance(from_lsn, int) or from_lsn < 0:
            raise ProtocolError("wal_subscribe needs a non-negative 'from_lsn'")
        entry = self._sessions.get(session.session_id)
        if entry is None:
            raise SessionStateError("session is gone")
        conn = entry[1]
        # The engine log keeps a bounded tail.  A subscriber from below its
        # floor cannot be streamed to: an empty one (lsn 0) is sent the row
        # image first and streams from the image's LSN, one that holds state
        # is refused — and comes back asking for the image ('snapshot').
        image = None
        floor_lsn = self.db.context.log.floor_lsn
        if params.get("snapshot") is True or from_lsn == 0 < floor_lsn:
            image = self._run_engine(self._snapshot_image, phases)
            from_lsn = image["lsn"]
        elif from_lsn < floor_lsn:
            if obs_metrics.ENABLED:
                obs_metrics.counter("wal_subscribe_refusals_total").inc()
            obs_events.emit(
                "wal_subscribe_refused",
                peer=session.peer, from_lsn=from_lsn, floor_lsn=floor_lsn,
            )
            raise ReplicaBelowFloorError(
                f"wal_subscribe from lsn {from_lsn} refused: the primary's "
                f"log retains nothing at or below lsn {floor_lsn} — "
                "subscribe with 'snapshot' to be sent the row image",
                from_lsn=from_lsn, floor_lsn=floor_lsn,
            )
        # A subscriber that stops reading must not pin the log's floor: a
        # ship frame that cannot be sent within the replica's own heartbeat
        # timeout drops it (the replica comes back through the refusal).
        timeout = heartbeat_timeout(self.heartbeat_interval)
        conn.sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_SNDTIMEO,
            struct.pack("ll", int(timeout), int(timeout % 1 * 1_000_000)),
        )
        subscriber = self._hub.subscribe(session.session_id, session.peer, from_lsn)
        self._spawn(
            f"repro-ship-{session.session_id}",
            self._ship_loop, subscriber, conn, image,
        )
        return {
            "subscribed": True,
            "from_lsn": from_lsn,
            "snapshot": image is not None,
            "last_lsn": self.db.context.log.last_lsn,
            "heartbeat_interval": self.heartbeat_interval,
            "catalog": self._describe_catalog(),
        }

    def _snapshot_image(self) -> dict:
        """The row image and its LSN as one cut: nothing commits while the
        transaction manager's mutex is held."""
        context = self.db.context
        with context.transactions.exclusive():
            return snapshot_image(context.rows, context.log)

    @staticmethod
    def _ship(conn: _Connection, ship: dict) -> None:
        conn.send(protocol.encode_frame({"ship": ship}))

    def _ship_snapshot(self, conn: _Connection, image: dict) -> None:
        """Send *image* as ``{"ship": {"snapshot": ...}}`` frames, each a
        slice of at most ``_SHIP_BATCH`` rows of one namespace, then an empty
        one that says ``done``: the replica loads the whole image only then."""

        def send(namespaces: dict, done: bool) -> None:
            snapshot = {"lsn": image["lsn"], "namespaces": namespaces, "done": done}
            self._ship(conn, {"snapshot": snapshot, "ts": time.time()})

        rows = 0
        for namespace, pairs in image["namespaces"].items():
            for start in range(0, len(pairs), _SHIP_BATCH):
                send({namespace: pairs[start:start + _SHIP_BATCH]}, False)
            rows += len(pairs)
        send({}, True)
        if obs_metrics.ENABLED:
            obs_metrics.counter("wal_snapshots_shipped_total").inc()
        obs_events.emit(
            "wal_snapshot_shipped", lsn=image["lsn"], rows=rows
        )

    def _describe_catalog(self) -> list:
        """JSON-safe catalog snapshot shipped with every ``wal_subscribe``
        response.  DDL is not logged (the central log carries data ops
        only), so this snapshot is the replica's "base backup": the
        puller materializes any object it is missing before applying
        records.  Schema-carrying kinds (relational and wide-column
        tables) include enough of their definition to recreate them;
        objects whose schema does not round-trip JSON (e.g. wide-column
        UDTs) are shipped kind-only and skipped by the replica."""
        entries = []
        for name, kind in self.db.catalog().items():
            entry: dict = {"name": name, "kind": kind}
            try:
                if kind == "table":
                    schema = self.db.table(name).schema
                    entry["schema"] = {
                        "primary_key": schema.primary_key,
                        "columns": [
                            {
                                "name": column.name,
                                "type": column.type,
                                "nullable": column.nullable,
                                "default": column.default,
                            }
                            for column in schema.columns
                        ],
                    }
                elif kind == "wide":
                    table = self.db.wide_table(name)
                    entry["schema"] = {
                        "primary_key": table.primary_key,
                        "columns": [
                            {"name": column.name, "spec": column.spec}
                            for column in table.columns.values()
                        ],
                    }
                if "schema" in entry:
                    json.dumps(entry["schema"])  # must survive the wire
            except (TypeError, ValueError, ReproError):
                entry.pop("schema", None)
            entries.append(entry)
        return entries

    def _ship_loop(self, subscriber, conn: _Connection, image=None) -> None:
        """The ship thread: stream log entries past the subscriber's
        watermark as ``{"ship": ...}`` frames (after *image*, for a snapshot
        bootstrap); empty frames are heartbeats.  Any wire failure ends the
        subscription: the replica's puller reconnects and re-subscribes from
        its own watermark.  The log trims behind ``shipped_lsn``, not past
        it, so a subscriber that lags keeps its place — as long as it
        reads."""
        log = self.db.context.log
        last_sent = 0.0
        try:
            if image is not None:
                self._ship_snapshot(conn, image)
            while not (self._draining or subscriber.stopped.is_set()):
                now = time.monotonic()
                records: list = []
                if log.last_lsn > subscriber.shipped_lsn:
                    for entry in log.entries_since(subscriber.shipped_lsn):
                        records.append(entry_to_record(entry))
                        if len(records) >= _SHIP_BATCH:
                            break
                if records:
                    subscriber.shipped_lsn = records[-1]["lsn"]
                    self._ship(conn, {
                        "records": records,
                        "last_lsn": subscriber.shipped_lsn,
                        "ts": time.time(),
                    })
                    if obs_metrics.ENABLED:
                        obs_metrics.counter("wal_records_shipped_total").inc(
                            len(records)
                        )
                    last_sent = now
                    continue  # drain the backlog before sleeping
                if now - last_sent >= self.heartbeat_interval:
                    self._ship(conn, {
                        "records": [], "last_lsn": log.last_lsn, "ts": time.time(),
                    })
                    last_sent = now
                subscriber.stopped.wait(self.ship_interval)
        except BlockingIOError:
            # The send timeout expired: the subscriber stopped reading.  Drop
            # it so the log can trim past it; the frame may be torn, so hang
            # up too.
            if obs_metrics.ENABLED:
                obs_metrics.counter("wal_subscribers_stalled_total").inc()
            obs_events.emit(
                "wal_subscriber_stalled",
                session_id=subscriber.session_id,
                peer=subscriber.peer,
                shipped_lsn=subscriber.shipped_lsn,
                send_timeout=heartbeat_timeout(self.heartbeat_interval),
            )
            conn.sever()
        except StorageError:
            # ``entries_since`` no longer reaches back to this subscriber: a
            # trim won the race with its subscription.  Hang up, so that it
            # re-subscribes now (and is told to take a snapshot) rather than
            # after a heartbeat timeout.
            if obs_metrics.ENABLED:
                obs_metrics.counter("wal_subscribers_below_floor_total").inc()
            obs_events.emit(
                "wal_subscriber_below_floor",
                session_id=subscriber.session_id,
                peer=subscriber.peer,
                shipped_lsn=subscriber.shipped_lsn,
                floor_lsn=log.floor_lsn,
            )
            conn.sever()
        except Exception:
            pass  # wire is gone (or injected fault): subscription over
        finally:
            self._hub.unsubscribe(subscriber.session_id, subscriber)

    def _op_repl_wait(self, params: dict) -> dict:
        lsn = params.get("lsn", 0)
        if not isinstance(lsn, int) or lsn < 0:
            raise ProtocolError("repl_wait needs a non-negative integer 'lsn'")
        timeout = params.get("timeout", 5.0)
        try:
            timeout = max(float(timeout), 0.0)
        except (TypeError, ValueError):
            raise ProtocolError("repl_wait 'timeout' must be a number")
        deadline = time.monotonic() + timeout
        while True:
            applied = (
                self._applier.applied_lsn
                if self._applier is not None and self.replica_of is not None
                else self.db.context.log.last_lsn
            )
            if applied >= lsn:
                return {"applied_lsn": applied, "reached": True}
            if time.monotonic() >= deadline or self._draining:
                return {"applied_lsn": applied, "reached": False}
            time.sleep(0.01)

    def _op_promote(self) -> dict:
        log = self.db.context.log
        if self.replica_of is None:
            return {"promoted": False, "role": "primary",
                    "last_lsn": log.last_lsn}
        upstream = self.replica_of
        # Accept writes first, then tear the subscription down — the
        # severed socket stops any in-flight batch racing the promotion.
        self.replica_of = None
        puller, self._puller = self._puller, None
        if puller is not None:
            puller.stop(join_timeout=2.0)
        dropped = 0
        if self._applier is not None:
            # An open block's COMMIT never arrived: the dead primary never
            # committed it, so dropping it mirrors crash recovery.
            dropped = self._applier.reset_pending()
        obs_events.emit(
            "replica_promoted",
            server=f"{self.host}:{self.port}",
            was_replica_of=upstream,
            last_lsn=log.last_lsn,
            dropped_uncommitted=dropped,
        )
        return {
            "promoted": True,
            "was_replica_of": upstream,
            "last_lsn": log.last_lsn,
            "dropped_uncommitted": dropped,
        }

    def _op_repoint(self, params: dict) -> dict:
        host = params.get("host")
        port = params.get("port")
        if not isinstance(host, str) or not isinstance(port, int):
            raise ProtocolError("repoint needs string 'host' and integer 'port'")
        if self.replica_of is None or self._puller is None:
            raise ReplicationError(
                "repoint refused: this server is a primary (did you mean to "
                "promote it, or repoint one of its replicas?)"
            )
        self.replica_of = f"{host}:{port}"
        self._puller.retarget(host, port)
        return {"repointed": True, "primary": self.replica_of}

    @staticmethod
    def _required_text(params: dict) -> str:
        text = params.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("missing query text")
        return text

    def _query_limits(self, session: Session, params: dict) -> tuple:
        guardrails = getattr(self.db, "guardrails", None)
        timeout = _merge_limit(
            params.get("timeout"),
            session.timeout,
            getattr(guardrails, "timeout", None),
        )
        max_rows = _merge_limit(
            params.get("max_rows"),
            session.max_rows,
            getattr(guardrails, "max_rows", None),
        )
        return timeout, max_rows

    @staticmethod
    def _query_inputs(params: dict) -> tuple:
        text = ReproServer._required_text(params)
        bind_vars = params.get("bind_vars") or {}
        if not isinstance(bind_vars, dict):
            raise ProtocolError("bind_vars must be a JSON object")
        return text, bind_vars

    def _check_shard_map(self, params: dict) -> None:
        """Reject statements planned against a different topology."""
        planned = params.get("shard_map_version")
        if planned is None or self.shard_map is None:
            return
        if int(planned) != self.shard_map.version:
            raise ShardMapStaleError(
                f"statement planned against shard map v{planned}, this "
                f"shard runs v{self.shard_map.version} — refetch the map",
                version=self.shard_map.version,
            )

    def _op_query(self, session: Session, params: dict, phases: dict) -> dict:
        text, bind_vars = self._query_inputs(params)
        analyze = bool(params.get("analyze", False))
        timeout, max_rows = self._query_limits(session, params)
        txn = session.txn

        def work():
            return run_query(
                self.db,
                text,
                bind_vars,
                txn,
                analyze=analyze,
                timeout=timeout,
                max_rows=max_rows,
                batch_size=params.get("batch_size"),
            )

        result = self._run_engine(work, phases)
        stats = dict(result.stats)
        stats["server_phases"] = _phases_ms(phases)
        stats["last_lsn"] = self.db.context.log.last_lsn
        response = {"rows": result.rows, "stats": stats}
        if result.analyzed is not None:
            response["analyzed"] = result.analyzed + (
                f"\nServer: queue-wait {phases.get('queue', 0.0) * 1000:.3f} ms"
                f" · execute {phases.get('execute', 0.0) * 1000:.3f} ms"
                f" (session {session.session_id}, request {session.requests})"
            )
        return response

    # ------------------------------------------------- streaming cursors ----

    def _chunk_rows_for(self, params: dict) -> int:
        requested = params.get("chunk_rows")
        if requested is None:
            return self.cursor_chunk_rows
        # The server default is also the ceiling: a client may stream in
        # smaller chunks (bounding frame size), never larger ones.
        return min(max(int(requested), 1), self.cursor_chunk_rows)

    def _op_query_open(
        self, session: Session, params: dict, phases: dict
    ) -> dict:
        text, bind_vars = self._query_inputs(params)
        timeout, max_rows = self._query_limits(session, params)
        chunk_rows = self._chunk_rows_for(params)
        txn = session.txn
        # Refuse before executing anything — like every admission
        # rejection, a CURSOR_LIMIT means the query did not run.
        if len(session.cursors) >= self.max_cursors_per_session:
            raise CursorLimitError(
                f"session {session.session_id} already holds "
                f"{len(session.cursors)} open cursors "
                f"(limit {self.max_cursors_per_session}) — close or drain "
                "one first"
            )

        def work():
            cursor = open_query_cursor(
                self.db, text, bind_vars, txn,
                timeout=timeout, max_rows=max_rows,
                batch_size=params.get("batch_size"),
            )
            # First chunk rides in the same engine call: one admission
            # pass, and DML (executed eagerly on first pull) holds its
            # engine slot for the whole statement.
            try:
                if txn is not None:
                    # The stream must not outlive the transaction's
                    # snapshot (commit/abort can land between fetches):
                    # run it to its end now, later fetches read the buffer.
                    cursor.materialize()
                return cursor, cursor.next_batch(chunk_rows)
            except BaseException:
                cursor.close()
                raise

        cursor, rows = self._run_engine(work, phases)
        if cursor.exhausted:
            cursor.close()
            stats = dict(cursor.stats)
            stats["server_phases"] = _phases_ms(phases)
            stats["last_lsn"] = self.db.context.log.last_lsn
            return {
                "cursor": None,
                "rows": rows,
                "has_more": False,
                "stats": stats,
            }
        context = tracing.current_context()
        try:
            entry = session.add_cursor(
                cursor, chunk_rows, text, self.max_cursors_per_session,
                trace_id=context.trace_id if context is not None else None,
            )
        except Exception:
            cursor.close()
            raise
        if obs_metrics.ENABLED:
            _CURSORS_OPENED.inc()
        stats = dict(cursor.stats)
        stats["server_phases"] = _phases_ms(phases)
        stats["last_lsn"] = self.db.context.log.last_lsn
        return {
            "cursor": entry.cursor_id,
            "rows": rows,
            "has_more": True,
            "stats": stats,
        }

    def _op_cursor_next(
        self, session: Session, params: dict, phases: dict
    ) -> dict:
        cursor_id = params.get("cursor")
        if not isinstance(cursor_id, int):
            raise ProtocolError("cursor_next needs an integer 'cursor'")
        entry = session.get_cursor(cursor_id)
        entry.touch()
        entry.fetches += 1
        here = tracing.current_span()
        if here is not None:
            here.set(cursor=entry.cursor_id, fetch=entry.fetches)
        try:
            rows = self._run_engine(
                lambda: entry.cursor.next_batch(entry.chunk_rows), phases
            )
        except Exception:
            # A failed stream has no resumable state to keep.
            session.pop_cursor(entry.cursor_id)
            entry.close()
            raise
        stats = dict(entry.cursor.stats)
        stats["cursor_fetches"] = entry.fetches
        stats["server_phases"] = _phases_ms(phases)
        stats["last_lsn"] = self.db.context.log.last_lsn
        if entry.cursor.exhausted:
            session.pop_cursor(entry.cursor_id)
            entry.close()
            return {
                "cursor": None,
                "rows": rows,
                "has_more": False,
                "stats": stats,
            }
        return {
            "cursor": entry.cursor_id,
            "rows": rows,
            "has_more": True,
            "stats": stats,
        }

    def _op_cursor_close(self, session: Session, params: dict) -> dict:
        cursor_id = params.get("cursor")
        if not isinstance(cursor_id, int):
            raise ProtocolError("cursor_close needs an integer 'cursor'")
        entry = session.get_cursor(cursor_id)
        session.pop_cursor(cursor_id)
        entry.close()
        return {"cursor": cursor_id, "closed": True}

    # --------------------------------------------------------- engine slots --

    def _run_engine(self, work, phases: dict) -> Any:
        """Run *work* on this session's thread once an engine slot is free.

        At most ``max_inflight`` calls run at once; a call that would push
        running plus waiting past ``max_inflight + queue_depth`` is refused
        at once.  One condition guards both counts: a call is admitted,
        and given a slot or queued, under one acquisition of its lock, and
        released under one more.  A waiting call is woken when a slot
        frees, and the drain when the last call leaves; a call arriving
        while others wait queues behind them.  The slot wait (``queue``)
        and the call (``execute``) are measured separately: *phases*
        receives both in seconds, and each lands in
        ``server_request_phase_seconds{phase=}``.
        """
        admission = self._admission
        perf_counter = time.perf_counter
        queued = perf_counter()
        with admission:
            inflight = self._running + self._waiting
            budget = self.max_inflight + self.queue_depth
            admitted = inflight < budget
            if admitted:
                inflight += 1
                if obs_metrics.ENABLED:
                    _INFLIGHT.set(inflight)
                if self._waiting or self._running >= self.max_inflight:
                    self._waiting += 1
                    try:
                        admission.wait_for(
                            lambda: self._running < self.max_inflight
                        )
                    finally:
                        self._waiting -= 1
                self._running += 1
        if not admitted:
            if obs_metrics.ENABLED:
                obs_metrics.counter("server_overload_rejections_total").inc()
            obs_events.emit(
                "admission_rejected",
                reason="queue_full",
                inflight=inflight,
                budget=budget,
            )
            raise ServerOverloadedError(
                f"{inflight} requests in flight or queued "
                f"(budget {budget}: {self.max_inflight} engine slots + "
                f"{self.queue_depth} queue slots) — back off and retry"
            )
        started = perf_counter()
        try:
            return work()
        finally:
            finished = perf_counter()
            with admission:
                self._running -= 1
                inflight = self._running + self._waiting
                if obs_metrics.ENABLED:
                    _INFLIGHT.set(inflight)
                if self._waiting or (self._draining and not inflight):
                    admission.notify_all()
            phases["queue"] = queue = started - queued
            phases["execute"] = execute = finished - started
            if obs_metrics.ENABLED:
                _PHASE_SECONDS["queue"].observe(queue)
                _PHASE_SECONDS["execute"].observe(execute)
