"""``ReplicaSet`` — client-side router over a primary and N read replicas.

The application-facing half of replication: one object that owns a
:class:`~repro.client.client.ReproClient` per node and decides, per
statement, where it runs:

* **writes** (:meth:`~repro.query.shapes.StatementMemo.classify`) and
  **strong** reads → the primary, always;
* **eventual** reads → round-robin across replicas (primary as fallback
  when none is reachable) — lowest latency, no freshness promise;
* **bounded** reads → a replica, but only after ``repl_wait`` confirms
  its applied watermark has reached the session's last-seen primary LSN
  (tracked automatically from every write response); when the replica
  cannot catch up within ``bounded_timeout``, the read falls back to the
  primary rather than returning stale rows.

**Failover.**  Any transport-level failure against the primary (reset,
refused, retry exhaustion) triggers :meth:`failover`: poll every replica
for its ``applied_lsn``, promote the most-caught-up one (ties break in
favour of configuration order), re-point the survivors at it, and retry
the failed statement there.  In-flight **transactions** are the explicit
exception — the server-side transaction died with the primary, so the
router raises :class:`~repro.errors.FailoverInProgressError` instead of
silently re-targeting, and the application decides whether to re-run the
transaction.  Non-transactional statements retry transparently (they are
at-least-once: use idempotent statements — UPSERT, keyed INSERT — when
that matters).

**Written now, read later.**  :meth:`ReplicaSet.submit` picks the node and
writes the statement there, returning a :class:`PendingStatement` whose
``result()`` reads the reply and, should the node be gone or no longer
primary, recovers as above and runs the statement again;
:meth:`ReplicaSet.query` is ``submit(...).result()``.  The cluster
coordinator writes to every shard's router before it reads any reply.

**Per-store levels** (challenge 6, slide 97: relational data strong, graph
data eventual).  :meth:`set_consistency` gives a store its own level.  A
read runs at the per-call ``consistency=``, else at the strictest level of
the stores it names (a store without a level of its own has the router's
default).  A store named through a bind or an expression could be any
store, so that read runs at the strictest level the router has.  The
stores come with the write verdict: the router's statement memo parses
each statement shape once.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.errors import FailoverInProgressError, NotPrimaryError
from repro.fault.retry import RetryExhaustedError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.query.shapes import CLASSIFIED, StatementMemo

__all__ = ["ReplicaSet", "PendingStatement", "check_level"]

#: Errors that mean "this node is gone", triggering failover.
_TRANSPORT_ERRORS = (ConnectionError, OSError, RetryExhaustedError)

#: The consistency levels, strictest first.
LEVELS = ("strong", "bounded", "eventual")


def check_level(level: str) -> str:
    """*level*, when it is one of :data:`LEVELS`; else ValueError."""
    if level not in LEVELS:
        raise ValueError(
            f"unknown consistency {level!r} (use one of {LEVELS})"
        )
    return level


class ReplicaSet:
    """Route statements across one primary and its read replicas."""

    def __init__(
        self,
        primary: tuple,
        replicas: Optional[list] = None,
        consistency: str = "strong",
        bounded_timeout: float = 5.0,
        client_factory=None,
        sleep=None,
        **client_options: Any,
    ):
        check_level(consistency)
        if client_factory is None:
            from repro.client.client import ReproClient

            client_factory = ReproClient
        self._factory = client_factory
        self._options = dict(client_options)
        if sleep is not None or "sleep" not in self._options:
            self._options["sleep"] = sleep
        self.consistency = consistency
        #: Store name -> its own level (:meth:`set_consistency`).
        self._levels: dict[str, str] = {}
        #: Every statement the application sends passes here: the memo
        #: keeps as many texts as it keeps shapes classified.
        self._statements = StatementMemo(CLASSIFIED)
        self.bounded_timeout = bounded_timeout
        self._lock = threading.RLock()
        self._primary_addr = (primary[0], int(primary[1]))
        self._replica_addrs: list[tuple] = [
            (host, int(port)) for host, port in (replicas or [])
        ]
        self._clients: dict[tuple, Any] = {}
        self._rr = 0
        self._in_txn = False
        self._failing_over = False
        #: Highest primary LSN observed in any response — the freshness
        #: token ``bounded`` reads wait for.
        self.last_seen_lsn = 0
        self.failovers = 0
        #: Statements answered by the primary / by a replica.
        self.primary_statements = 0
        self.replica_statements = 0

    # ------------------------------------------------------------- topology --

    @property
    def primary_address(self) -> tuple:
        return self._primary_addr

    @property
    def replica_addresses(self) -> list[tuple]:
        return list(self._replica_addrs)

    def _client(self, addr: tuple) -> Any:
        client = self._clients.get(addr)
        if client is None:
            client = self._factory(host=addr[0], port=addr[1], **self._options)
            self._clients[addr] = client
        return client

    def _drop_client(self, addr: tuple) -> None:
        client = self._clients.pop(addr, None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def close(self) -> None:
        with self._lock:
            for addr in list(self._clients):
                self._drop_client(addr)

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- routing --

    def submit(
        self,
        text: str,
        bind_vars: Optional[dict] = None,
        consistency: Optional[str] = None,
        **query_options: Any,
    ) -> "PendingStatement":
        """Write one MMQL statement to the right node and return without
        reading the reply; :meth:`PendingStatement.result` reads it.  The
        router stays locked in between."""
        statement = self._statements.classify(text)
        if consistency is not None:
            level = check_level(consistency)
        elif self._levels:
            level = self._statement_level(statement)
        else:
            level = self.consistency
        self._lock.acquire()
        try:
            if statement.writes or level == "strong" or self._in_txn:
                return self._send_primary(text, bind_vars, query_options, 0)
            return self._send_replica(
                text, bind_vars, query_options, level == "bounded",
                self._replica_order(),
            )
        except BaseException:
            self._lock.release()
            raise

    def query(
        self,
        text: str,
        bind_vars: Optional[dict] = None,
        consistency: Optional[str] = None,
        **query_options: Any,
    ) -> Any:
        """Run one MMQL statement at the right node; returns the client's
        :class:`~repro.client.client.ResultCursor`."""
        return self.submit(text, bind_vars, consistency, **query_options).result()

    def set_consistency(self, name: str, level: str) -> None:
        """Read the store *name* at *level* when a statement names it."""
        check_level(level)
        with self._lock:
            self._levels[name] = level

    def _statement_level(self, statement) -> str:
        """The strictest level of the stores *statement* names."""
        default = self.consistency
        if statement.unnamed:
            levels = (default, *self._levels.values())
        else:
            levels = [self._levels.get(store, default)
                      for store in statement.stores] or (default,)
        return min(levels, key=LEVELS.index)

    def _note_lsn(self, cursor: Any) -> Any:
        stats = getattr(cursor, "stats", None) or {}
        lsn = stats.get("last_lsn")
        if isinstance(lsn, int) and lsn > self.last_seen_lsn:
            self.last_seen_lsn = lsn
        return cursor

    def _send_primary(self, text, bind_vars, query_options, hops: int):
        if hops > max(len(self._replica_addrs) + 1, 3):
            raise FailoverInProgressError(
                "no stable primary found after repeated redirects/failovers"
            )
        reply = self._client(self._primary_addr).submit(
            text, bind_vars, **query_options
        )
        return PendingStatement(self, reply, None, None, text, bind_vars,
                                query_options, hops, False)

    def _send_replica(self, text, bind_vars, query_options, bounded: bool,
                      order: list):
        """Write to the first replica of *order* — when *bounded*, only one
        that ``repl_wait`` confirms has reached the session's last-seen
        primary LSN — else to the primary.  The replicas left in *order*
        are the ones to try should this one not answer."""
        token = self.last_seen_lsn
        while order:
            addr = order.pop(0)
            client = self._client(addr)
            if bounded:
                try:
                    if not client._call(
                        "repl_wait", lsn=token, timeout=self.bounded_timeout
                    ).get("reached"):
                        continue  # too far behind; try the next replica
                except _TRANSPORT_ERRORS:
                    self._drop_client(addr)
                    continue
            reply = client.submit(text, bind_vars, **query_options)
            return PendingStatement(self, reply, addr, order, text,
                                    bind_vars, query_options, 0, bounded)
        # Nobody answered (or is caught up): the primary is by definition
        # at the watermark.
        return self._send_primary(text, bind_vars, query_options, 0)

    def _resolve(self, pending: "PendingStatement") -> Any:
        """Read *pending*'s reply; a node that is gone or no longer primary
        is recovered from as the statement's retry: the next replica, the
        hinted primary, or a failover, then the statement again."""
        while True:
            try:
                cursor = pending._reply.result()
                # Drain eagerly: a cursor is session state on the node
                # that served it, and the router may fail that node over
                # between fetches — a complete result has no such hazard.
                cursor.fetch_all()
            except NotPrimaryError as error:
                if pending._addr is not None:
                    raise  # a replica's refusal is its answer
                # Stale topology: the node we believed primary was
                # re-pointed (or we raced its demotion).  Its error names
                # the real one.
                self._adopt_primary_hint(error)
            except _TRANSPORT_ERRORS as error:
                if pending._addr is not None:
                    self._drop_client(pending._addr)
                    pending = self._send_replica(
                        pending._text, pending._binds, pending._options,
                        pending._bounded, pending._replicas,
                    )
                    continue
                self._primary_lost(error)
            else:
                if pending._addr is None:
                    self.primary_statements += 1
                else:
                    self.replica_statements += 1
                return self._note_lsn(cursor)
            pending = self._send_primary(
                pending._text, pending._binds, pending._options,
                pending._hops + 1,
            )

    def _replica_order(self) -> list[tuple]:
        if not self._replica_addrs:
            return []
        start = self._rr % len(self._replica_addrs)
        self._rr += 1
        return self._replica_addrs[start:] + self._replica_addrs[:start]

    # --------------------------------------------------------- transactions --

    def begin(self, isolation: str = "snapshot") -> int:
        with self._lock:
            txn = self._client(self._primary_addr).begin(isolation)
            self._in_txn = True
            return txn

    def commit(self) -> None:
        with self._lock:
            try:
                self._client(self._primary_addr).commit()
            except _TRANSPORT_ERRORS as error:
                self._in_txn = False
                raise FailoverInProgressError(
                    "primary lost mid-transaction; the transaction was "
                    "rolled back server-side and must be re-run"
                ) from error
            self._in_txn = False

    def abort(self) -> None:
        with self._lock:
            try:
                self._client(self._primary_addr).abort()
            except _TRANSPORT_ERRORS:
                pass  # the server aborted it when the connection died
            self._in_txn = False

    # -------------------------------------------------------------- failover --

    def _adopt_primary_hint(self, error: NotPrimaryError) -> None:
        hint = getattr(error, "primary", None)
        if not isinstance(hint, str) or ":" not in hint:
            raise error
        host, _, port = hint.rpartition(":")
        addr = (host, int(port))
        if addr == self._primary_addr:
            raise error  # no progress possible; surface the truth
        if self._primary_addr not in self._replica_addrs:
            self._replica_addrs.append(self._primary_addr)
        if addr in self._replica_addrs:
            self._replica_addrs.remove(addr)
        self._primary_addr = addr

    def _primary_lost(self, cause: BaseException) -> None:
        """The primary stopped answering: fail over or fail loudly."""
        if self._in_txn:
            self._in_txn = False
            raise FailoverInProgressError(
                "primary lost mid-transaction; the transaction died with "
                "it — re-run it after failover"
            ) from cause
        if self._failing_over:
            raise FailoverInProgressError(
                "primary lost while a failover is already in progress"
            ) from cause
        self._failing_over = True
        try:
            self.failover(cause=cause)
        finally:
            self._failing_over = False

    def failover(self, cause: Optional[BaseException] = None) -> tuple:
        """Promote the most-caught-up replica and re-point the rest.
        Returns the new primary address; raises
        :class:`FailoverInProgressError` when no replica is reachable."""
        old_primary = self._primary_addr
        self._drop_client(old_primary)
        candidates: list[tuple[int, int, tuple]] = []
        for index, addr in enumerate(self._replica_addrs):
            try:
                status = self._client(addr)._call("repl_status")
            except Exception:
                self._drop_client(addr)
                continue
            applied = status.get("applied_lsn", status.get("last_lsn", 0))
            candidates.append((applied if isinstance(applied, int) else 0,
                               -index, addr))
        if not candidates:
            raise FailoverInProgressError(
                f"primary {old_primary[0]}:{old_primary[1]} is gone and no "
                "replica is reachable to promote"
            ) from cause
        candidates.sort(reverse=True)
        applied_lsn, _, new_primary = candidates[0]
        self._client(new_primary)._call("promote")
        self._replica_addrs.remove(new_primary)
        self._primary_addr = new_primary
        for addr in self._replica_addrs:
            try:
                self._client(addr)._call(
                    "repoint", host=new_primary[0], port=new_primary[1]
                )
            except Exception:
                self._drop_client(addr)  # it can be re-pointed later
        self.failovers += 1
        if obs_metrics.ENABLED:
            obs_metrics.counter("failover_total").inc()
        obs_events.emit(
            "failover",
            old_primary=f"{old_primary[0]}:{old_primary[1]}",
            new_primary=f"{new_primary[0]}:{new_primary[1]}",
            applied_lsn=applied_lsn,
            replicas=len(self._replica_addrs),
            cause=type(cause).__name__ if cause is not None else None,
        )
        return new_primary

    # --------------------------------------------------------------- health --

    def heartbeat(self) -> bool:
        """Ping the primary; on transport failure run failover.  Returns
        True when (possibly after promoting) a primary answers."""
        with self._lock:
            try:
                return self._client(self._primary_addr).ping()
            except _TRANSPORT_ERRORS as error:
                self._primary_lost(error)
                return self._client(self._primary_addr).ping()

    def status(self) -> dict:
        with self._lock:
            return {
                "primary": f"{self._primary_addr[0]}:{self._primary_addr[1]}",
                "replicas": [f"{h}:{p}" for h, p in self._replica_addrs],
                "consistency": self.consistency,
                "primary_statements": self.primary_statements,
                "replica_statements": self.replica_statements,
                "last_seen_lsn": self.last_seen_lsn,
                "failovers": self.failovers,
                "in_txn": self._in_txn,
            }

    def __repr__(self) -> str:
        return (
            f"<ReplicaSet primary={self._primary_addr} "
            f"replicas={len(self._replica_addrs)} "
            f"consistency={self.consistency}>"
        )


class PendingStatement:
    """A statement :meth:`ReplicaSet.submit` wrote to one node, its reply
    not read yet.  The router's lock and the node client's lock are held
    until :meth:`result` returns: call it once, on the submitting thread.
    ``_addr`` is the replica written to, None for the primary;
    ``_replicas`` the replicas still to try after it."""

    __slots__ = ("_router", "_reply", "_addr", "_replicas", "_text",
                 "_binds", "_options", "_hops", "_bounded")

    def __init__(self, router, reply, addr, replicas, text, binds, options,
                 hops, bounded):
        self._router = router
        self._reply = reply
        self._addr = addr
        self._replicas = replicas
        self._text = text
        self._binds = binds
        self._options = options
        self._hops = hops
        self._bounded = bounded

    def result(self) -> Any:
        """The drained :class:`~repro.client.client.ResultCursor`."""
        router = self._router
        try:
            return router._resolve(self)
        finally:
            router._lock.release()
