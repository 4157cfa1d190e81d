"""Replica-side WAL puller: subscribe to a primary, apply, acknowledge.

A :class:`WalPuller` is a daemon thread each replica server owns.  It
speaks the ordinary wire protocol as a client: dial the primary, consume
the handshake, send one ``wal_subscribe`` request, then sit in a read
loop consuming unsolicited ``{"ship": ...}`` frames — applying each batch
through the :class:`~repro.replication.apply.ReplicationApplier` and
answering with a fire-and-forget ``{"ack": {"lsn": N}}`` frame so the
primary's semi-sync gate can release writers.

Resilience is the point, so the loop assumes the wire is hostile:

* every read has a timeout of ``heartbeat_timeout`` — the primary ships
  empty heartbeat frames when idle, so a silent socket means the primary
  (or the path to it) is gone, not that there is nothing to say;
* any transport failure tears the connection down and re-dials with the
  engine's canonical :func:`~repro.fault.retry.retry_with_backoff`
  (full jitter, seeded), re-subscribing **from the applier's received
  watermark** — the primary re-ships anything in flight when the
  connection died, and the applier's duplicate filter drops whatever was
  already processed (at-least-once delivery, exactly-once apply);
* :meth:`retarget` atomically swaps the upstream address (failover:
  surviving replicas re-point at the promoted primary) by severing the
  current connection and letting the reconnect loop do the rest.

The puller's socket I/O goes through :func:`repro.server.protocol` and
therefore through the ``client.frame_read``/``client.frame_write``
failpoints — the chaos harness injects `drop_conn`/`truncate_frame`/
`delay` exactly here to prove the loop recovers.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Optional

from repro.errors import ProtocolError, ReplicaBelowFloorError
from repro.fault.retry import RetryExhaustedError, retry_with_backoff
from repro.obs import events as obs_events
from repro.replication.apply import ReplicationApplier
from repro.server import protocol

__all__ = ["WalPuller"]


class WalPuller:
    """Background subscription thread feeding one replica's applier."""

    def __init__(
        self,
        applier: ReplicationApplier,
        primary_host: str,
        primary_port: int,
        connect_timeout: float = 5.0,
        heartbeat_timeout: float = 2.0,
        backoff_base: float = 0.05,
        seed: int = 0,
    ):
        self.applier = applier
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.connect_timeout = connect_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.backoff_base = backoff_base
        self.seed = seed
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._connected = False
        self._last_ship_ts: Optional[float] = None
        #: Snapshot frames of the current connection, held until the frame
        #: that says ``done`` (a half-received image is never loaded).
        self._snapshot_rows: dict = {}
        #: Set by the primary's refusal (this replica fell below its floor)
        #: until the snapshot asked for in its place has been loaded.
        self._resync = False
        self._resyncs = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def primary_address(self) -> str:
        return f"{self.primary_host}:{self.primary_port}"

    @property
    def connected(self) -> bool:
        return self._connected

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        self.applier.bootstrap(self.applier.db.context.log.last_lsn)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-wal-puller-{self.applier.name}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, join_timeout: Optional[float] = 2.0) -> None:
        self._stop.set()
        self._sever()
        thread = self._thread
        if thread is not None and join_timeout is not None:
            thread.join(timeout=join_timeout)

    def retarget(self, host: str, port: int) -> None:
        """Follow a different primary (post-promotion re-pointing).  The
        applier's watermarks carry over — the promoted replica's log is
        LSN-aligned with the old primary's, so the subscription simply
        continues from the same position upstream."""
        with self._lock:
            self.primary_host = host
            self.primary_port = int(port)
        obs_events.emit(
            "replica_retarget",
            replica=self.applier.name,
            primary=self.primary_address,
        )
        self._sever()

    def _sever(self) -> None:
        sock, self._sock = self._sock, None
        self._connected = False
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- the loop ------------------------------------------------------------

    def _run(self) -> None:
        attempt_seed = self.seed
        while not self._stop.is_set():
            try:
                retry_with_backoff(
                    lambda _attempt: self._connect_and_stream(),
                    attempts=6,
                    retry_on=(ConnectionError, OSError, ProtocolError),
                    base_delay=self.backoff_base,
                    jitter=True,
                    seed=attempt_seed,
                    sleep=self._interruptible_sleep,
                )
            except ConnectionAbortedError:
                return  # stop() interrupted a backoff sleep
            except ReplicaBelowFloorError as error:
                # The records between this replica's watermark and the
                # primary's floor are gone (it was away for longer than
                # the log's tail): ask for the row image instead.
                self._resync = True
                self._resyncs += 1
                obs_events.emit(
                    "replica_below_floor",
                    replica=self.applier.name,
                    primary=self.primary_address,
                    from_lsn=error.from_lsn,
                    floor_lsn=error.floor_lsn,
                )
            except RetryExhaustedError:
                if self._stop.is_set():
                    return
                obs_events.emit(
                    "replica_upstream_unreachable",
                    replica=self.applier.name,
                    primary=self.primary_address,
                )
                # Keep trying forever (a replica's job is to catch up when
                # the primary returns), but with a fresh jitter sequence.
                attempt_seed += 1
                try:
                    self._interruptible_sleep(self.backoff_base * 8)
                except ConnectionAbortedError:
                    return

    def _interruptible_sleep(self, seconds: float) -> None:
        self._stop.wait(timeout=seconds)
        if self._stop.is_set():
            raise ConnectionAbortedError("puller stopped")

    def _connect_and_stream(self) -> None:
        if self._stop.is_set():
            raise ConnectionAbortedError("puller stopped")
        with self._lock:
            host, port = self.primary_host, self.primary_port
        sock = socket.create_connection(
            (host, port), timeout=self.connect_timeout
        )
        self._sock = sock
        self._snapshot_rows = {}
        try:
            sock.settimeout(self.connect_timeout)
            hello = protocol.read_frame(sock)
            if hello is None:
                raise ProtocolError("primary closed before hello")
            if hello.get("ok") is False:
                protocol.raise_wire_error(hello.get("error"))
            from_lsn = self.applier.received_lsn
            protocol.write_frame(
                sock,
                protocol.request(
                    1, "wal_subscribe", from_lsn=from_lsn, snapshot=self._resync
                ),
            )
            # The ship task starts inside the wal_subscribe handler, so its
            # first frame can beat the response onto the wire.  Early ships
            # are processed in place (apply is idempotent either way).
            early_ships: list[dict] = []
            while True:
                response = protocol.read_frame(sock)
                if response is None:
                    raise ProtocolError("primary closed during wal_subscribe")
                ship = response.get("ship")
                if isinstance(ship, dict):
                    early_ships.append(ship)
                    continue
                break
            if response.get("ok") is not True:
                protocol.raise_wire_error(response.get("error"))
            # The response carries the primary's catalog snapshot — DDL is
            # not logged, so missing stores must exist before the first
            # record lands (a store only sees appends made after it).
            result = response.get("result") or {}
            self.applier.sync_catalog(result.get("catalog") or [])
            self._connected = True
            for ship in early_ships:
                self._handle_ship(sock, ship)
            obs_events.emit(
                "replica_subscribed",
                replica=self.applier.name,
                primary=f"{host}:{port}",
                from_lsn=from_lsn,
            )
            sock.settimeout(self.heartbeat_timeout)
            while not self._stop.is_set():
                try:
                    frame = protocol.read_frame(sock)
                except socket.timeout:
                    raise ConnectionError(
                        f"no ship/heartbeat frame from {host}:{port} within "
                        f"{self.heartbeat_timeout}s — presuming primary loss"
                    ) from None
                if frame is None:
                    raise ConnectionError("primary closed the WAL stream")
                ship = frame.get("ship")
                if not isinstance(ship, dict):
                    continue  # stray frame (e.g. late response); ignore
                self._handle_ship(sock, ship)
        finally:
            self._connected = False
            if self._sock is sock:
                self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    def _handle_ship(self, sock: socket.socket, ship: dict) -> None:
        snapshot = ship.get("snapshot")
        if isinstance(snapshot, dict):
            for namespace, pairs in (snapshot.get("namespaces") or {}).items():
                self._snapshot_rows.setdefault(namespace, []).extend(pairs)
            if snapshot.get("done"):
                rows, self._snapshot_rows = self._snapshot_rows, {}
                self.applier.load_snapshot(snapshot["lsn"], rows)
                self._resync = False
        records = ship.get("records") or []
        if records:
            self.applier.apply_records(records)
        ts = ship.get("ts")
        if isinstance(ts, (int, float)):
            self._last_ship_ts = float(ts)
            self.applier.set_lag(float(ts))
        # Fire-and-forget acknowledgement of the applied prefix — the
        # primary's semi-sync gate waits on these.
        protocol.write_frame(sock, {"ack": {"lsn": self.applier.applied_lsn}})

    # -- introspection -------------------------------------------------------

    def describe(self) -> dict:
        state = self.applier.watermarks()
        state.update(
            {
                "primary": self.primary_address,
                "connected": self._connected,
                "running": self.running,
                "resyncs": self._resyncs,
                "last_ship_age_seconds": (
                    None
                    if self._last_ship_ts is None
                    else round(time.time() - self._last_ship_ts, 3)
                ),
            }
        )
        return state
