"""``ReproClient`` — synchronous wire client for a :class:`ReproServer`.

A deliberately small, dependency-free client: one TCP socket, one
outstanding request at a time (calls are serialized under an internal
lock, so a client instance may be shared across threads — though one
client *per* thread is the idiomatic pattern, giving each thread its own
session and transaction state).

Reconnection uses the engine's canonical retry helper
(:func:`repro.fault.retry.retry_with_backoff`): transport failures on an
idle session are retried transparently with exponential backoff, each
attempt re-dialing the server.  Inside a transaction nothing is retried —
the server aborted the transaction the moment the connection died, so the
only honest outcome is an error the application can see.  Retried queries
are at-least-once: a response lost in flight re-executes the statement.

Every query is a cursor: :meth:`ReproClient.query` sends ``query_open``
and returns a :class:`ResultCursor` holding the first chunk, which
fetches further chunks (``cursor_next``) as it is iterated — the server
never materializes more than one chunk per stream, so a result larger
than the 32 MiB frame cap flows through in many small frames.  A result
that fits one chunk arrives whole in the one reply.  ``.rows`` /
``fetch_all()`` drain the cursor for eager callers:

    with ReproClient(port=port) as client:
        rows = client.query(
            "FOR c IN customers FILTER c.credit_limit > @m RETURN c.name",
            {"m": 5000},
        ).rows

:meth:`ReproClient.submit` writes a query and returns a
:class:`PendingReply` whose ``result()`` reads the reply later, so one
thread can have a request outstanding on many servers at once (the
cluster coordinator's scatter); ``query`` is ``submit(...).result()``.

Cursor fetches are **never retried**: a cursor is session state, and a
reconnect lands in a fresh session without it — a transport failure
mid-stream surfaces as the error it is instead of silently re-running
the query from the top.

**Distributed tracing**: when tracing is on (``tracing.enable()``, the
client's ``trace=True``, or ``query(..., trace=True)`` for one statement)
and the server advertises the ``trace`` feature in its handshake, every
request frame carries ``trace_id``/``parent_span_id``; the server
continues that trace and returns its span tree in the response, which the
client stitches — across *all* fetches of a streamed cursor — into one
:class:`StitchedTrace` available as :attr:`ReproClient.last_trace`.
Against an older server the extra key is simply never sent, so tracing
needs no protocol bump.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Optional

from repro.errors import CursorNotFoundError, ProtocolError
from repro.fault.retry import retry_with_backoff
from repro.obs import events as obs_events
from repro.obs import tracing
from repro.server import protocol

__all__ = [
    "ReproClient", "ResultCursor", "PendingReply", "StitchedTrace", "DEFAULT_PORT"
]

#: Default TCP port for ``repro-shell serve`` / ``connect``.
DEFAULT_PORT = 8845

_UNSET = object()


def _answer(frame: dict) -> Any:
    """The result a response frame carries, or the typed error it reports.
    Read after the transport retry: a well-formed error answer leaves the
    stream in step, so it is the server's verdict, not a cue to re-dial."""
    if frame.get("ok") is not True:
        protocol.raise_wire_error(frame.get("error"))
    return frame.get("result")


class StitchedTrace:
    """One distributed trace as the client observed it: every RPC issued
    under the trace, each carrying the server's span-summary tree for that
    request.  A streamed query accumulates its ``query_open`` and every
    ``cursor_next``/``cursor_close`` here, all sharing one ``trace_id``."""

    __slots__ = ("trace_id", "rpcs")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        #: Chronological client-side RPC records:
        #: ``{"op", "span_id", "duration_ms", "server": <span summary>|None}``.
        self.rpcs: list[dict] = []

    def record(
        self,
        op: str,
        span_id: str,
        duration_ms: float,
        server: Optional[dict] = None,
    ) -> None:
        self.rpcs.append(
            {
                "op": op,
                "span_id": span_id,
                "duration_ms": duration_ms,
                "server": server,
            }
        )

    @property
    def server_spans(self) -> list[dict]:
        """The server-side span summaries, one per answered RPC."""
        return [rpc["server"] for rpc in self.rpcs if rpc.get("server")]

    def format(self) -> str:
        """Indented client→server→engine tree for terminal display."""
        lines = [f"trace {self.trace_id}"]
        for rpc in self.rpcs:
            lines.append(
                f"  client.{rpc['op']}  {rpc['duration_ms']:.3f} ms "
                f"span={rpc['span_id']}"
            )
            server = rpc.get("server")
            if server:
                lines.append(tracing.format_summary(server, indent=2))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<StitchedTrace {self.trace_id} rpcs={len(self.rpcs)}>"


class ResultCursor:
    """Lazy handle over a server-side streaming result.

    Rows arrive in chunks: iterating fetches the next chunk on demand
    (``cursor_next``), so a huge result never occupies more than one
    chunk of server memory at a time.  :meth:`fetch_all` / ``.rows``
    drain the stream for eager callers (``client.query(...).rows``).
    Fetched rows are retained, so the cursor is re-iterable and indexable
    after a full drain.

    ``stats`` tracks the server's live execution statistics (updated on
    every fetched chunk); ``analyzed`` carries the EXPLAIN ANALYZE text of
    an analyze run, from the reply that carries it (the server runs such
    a statement to its end before it answers), and is ``None`` otherwise.
    """

    __slots__ = ("_client", "_cursor_id", "_fetched", "stats", "analyzed",
                 "trace")

    def __init__(
        self,
        client: "ReproClient",
        cursor_id: Optional[int],
        rows: list,
        stats: dict,
        analyzed: Optional[str] = None,
        trace: Optional[StitchedTrace] = None,
    ):
        self._client = client
        self._cursor_id = cursor_id  # None once the stream is complete
        self._fetched = list(rows)
        self.stats = stats
        self.analyzed = analyzed
        #: The distributed trace this stream runs under (None untraced);
        #: every further fetch continues it, so a drained stream shows the
        #: whole multi-fetch conversation under one trace_id.
        self.trace = trace

    @property
    def exhausted(self) -> bool:
        """True when every row is client-side (no server cursor open)."""
        return self._cursor_id is None

    def _fetch_more(self) -> None:
        payload = self._client._cursor_call(
            "cursor_next", trace=self.trace, cursor=self._cursor_id
        )
        self._fetched.extend(payload.get("rows", []))
        self.stats = payload.get("stats", self.stats)
        self.analyzed = payload.get("analyzed", self.analyzed)
        if not payload.get("has_more"):
            self._cursor_id = None

    def fetch_all(self) -> list:
        """Drain the stream; returns the complete row list."""
        while self._cursor_id is not None:
            self._fetch_more()
        return self._fetched

    @property
    def rows(self) -> list:
        """The complete row list (drains the stream on first access)."""
        return self.fetch_all()

    def __iter__(self):
        index = 0
        while True:
            while index < len(self._fetched):
                yield self._fetched[index]
                index += 1
            if self._cursor_id is None:
                return
            self._fetch_more()

    def __len__(self) -> int:
        return len(self.fetch_all())

    def __getitem__(self, item):
        return self.fetch_all()[item]

    def first(self):
        """The first row, or ``None`` on an empty result."""
        for row in self:
            return row
        return None

    def close(self) -> None:
        """Release the server-side cursor without draining it.  A cursor
        the server already dropped (exhausted, reaped, restarted) closes
        cleanly."""
        if self._cursor_id is None:
            return
        cursor_id, self._cursor_id = self._cursor_id, None
        try:
            self._client._cursor_call(
                "cursor_close", trace=self.trace, cursor=cursor_id
            )
        except (CursorNotFoundError, ConnectionError, OSError):
            pass

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "complete" if self._cursor_id is None else (
            f"open cursor {self._cursor_id}"
        )
        return f"<ResultCursor {len(self._fetched)} rows fetched, {state}>"


class PendingReply:
    """A request written to the server whose reply is not read yet.

    :meth:`ReproClient.submit` returns one, so a caller can write to many
    servers before it waits on any of them.  The client's lock is held
    from the write until :meth:`result` returns: call ``result()`` once,
    on the thread that submitted.  It reads the reply; on a transport
    failure, of the write or of the read, it tears the socket down and
    retries with backoff (reconnect, re-send) as a blocking call does,
    the lost reply counting as the first attempt."""

    __slots__ = ("_client", "_op", "_params", "_trace", "_retry", "_sent",
                 "_error")

    def __init__(self, client, op, params, trace, retry):
        self._client = client
        self._op = op
        self._params = params
        self._trace = trace
        self._retry = retry
        self._sent: Optional[tuple] = None
        self._error: Optional[BaseException] = None

    def _attempt(self, index: int) -> dict:
        client = self._client
        try:
            if index == 0:
                if self._error is not None:
                    raise self._error
                return client._receive(self._sent)
            obs_events.emit(
                "client_reconnect",
                host=client.host,
                port=client.port,
                attempt=index + 1,
                op=self._op,
            )
            client.connect()
            return client._roundtrip(self._op, self._params, self._trace)
        except (ConnectionError, OSError):
            client._teardown()  # in a transaction, the server-side txn is dead too
            raise
        except ProtocolError:
            # A torn hello, a truncated frame or a duplicated response
            # leaves the stream desynchronized: only a fresh dial
            # recovers it.
            if self._retry:
                client._teardown()
            raise

    def result(self) -> Any:
        """The answer's result — a :class:`ResultCursor` for a query — or
        the typed error the server reported."""
        client = self._client
        try:
            if not self._retry:
                frame = self._attempt(0)
            else:
                frame = retry_with_backoff(
                    self._attempt,
                    attempts=client.retries,
                    retry_on=(ConnectionError, OSError, ProtocolError),
                    base_delay=client.backoff_base,
                    sleep=client._sleep,
                    jitter=client.retry_jitter,
                    max_elapsed=client.retry_max_elapsed,
                    seed=client.retry_seed,
                )
        finally:
            client._lock.release()
        payload = _answer(frame)
        if self._op != "query_open":
            return payload
        return ResultCursor(
            client,
            payload.get("cursor"),
            payload.get("rows", []),
            payload.get("stats", {}),
            analyzed=payload.get("analyzed"),
            trace=self._trace,
        )


class ReproClient:
    """Synchronous, context-managed client for the repro wire protocol."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = 60.0,
        retries: int = 3,
        auto_reconnect: bool = True,
        backoff_base: float = 0.05,
        retry_jitter: bool = True,
        retry_max_elapsed: Optional[float] = None,
        retry_seed: Optional[int] = None,
        sleep=time.sleep,
        trace: Optional[bool] = None,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retries = max(int(retries), 1)
        self.auto_reconnect = auto_reconnect
        self.backoff_base = backoff_base
        #: Full-jitter reconnect backoff (decorrelates a thundering herd of
        #: clients re-dialing a restarted server); ``retry_max_elapsed``
        #: bounds total wall-clock spent retrying one call.
        self.retry_jitter = retry_jitter
        self.retry_max_elapsed = retry_max_elapsed
        self.retry_seed = retry_seed
        self._sleep = sleep  # None disables backoff delays (tests)
        self._sock: Optional[socket.socket] = None
        self._lock = threading.RLock()
        self._next_id = 0
        self._in_txn = False
        self.server_info: Optional[dict] = None
        #: Tracing policy: True/False force it on/off for this client;
        #: None (default) follows the global ``tracing`` flag at call time.
        self.trace = trace
        #: The most recently completed :class:`StitchedTrace`, if any.
        self.last_trace: Optional[StitchedTrace] = None
        #: When set (by a cluster coordinator), every query ships this
        #: shard-map version so a re-provisioned shard can answer
        #: SHARD_MAP_STALE instead of serving a stale topology.
        self.shard_map_version: Optional[int] = None

    # ------------------------------------------------------------ lifecycle --

    def connect(self) -> dict:
        """Dial the server and consume the handshake; returns server info.

        Raises the typed error the server greeted us with when admission
        control refuses the session (e.g.
        :class:`repro.errors.ServerOverloadedError`)."""
        with self._lock:
            self._teardown()
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            sock.settimeout(self.request_timeout)
            try:
                frame = protocol.read_frame(sock)
                if frame is None:
                    raise ProtocolError("server closed the connection before hello")
                if frame.get("ok") is False:
                    protocol.raise_wire_error(frame.get("error"))
                hello = frame.get("hello")
                if not isinstance(hello, dict):
                    raise ProtocolError(f"expected hello frame, got {frame!r}")
                if hello.get("protocol") != protocol.PROTOCOL_VERSION:
                    raise ProtocolError(
                        f"protocol mismatch: server speaks "
                        f"{hello.get('protocol')!r}, client "
                        f"{protocol.PROTOCOL_VERSION!r}"
                    )
            except BaseException:
                sock.close()
                raise
            self._sock = sock
            self._in_txn = False
            self.server_info = hello
            return hello

    def close(self) -> None:
        with self._lock:
            self._teardown()

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._in_txn = False

    def __enter__(self) -> "ReproClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connected(self) -> bool:
        return self._sock is not None

    @property
    def in_txn(self) -> bool:
        return self._in_txn

    @property
    def session_id(self) -> Optional[int]:
        return (self.server_info or {}).get("session")

    @property
    def server_version(self) -> Optional[str]:
        return (self.server_info or {}).get("version")

    # ------------------------------------------------------------- plumbing --

    def _tracing_wanted(self) -> bool:
        return self.trace if self.trace is not None else tracing.is_enabled()

    def _server_traces(self) -> bool:
        """Did the handshake advertise the ``trace`` feature?  Older
        servers never see the extra frame key."""
        features = (self.server_info or {}).get("features")
        return isinstance(features, (list, tuple)) and "trace" in features

    def _new_trace(self, force: Optional[bool] = None) -> Optional[StitchedTrace]:
        wanted = force if force is not None else self._tracing_wanted()
        if not wanted:
            return None
        return StitchedTrace(tracing.new_trace_id())

    def _send(self, op: str, params: dict, trace: Optional[StitchedTrace]) -> tuple:
        """Write one request frame on the current socket; returns what
        :meth:`_receive` needs to read its reply."""
        if self._sock is None:
            raise ConnectionError("client is not connected")
        self._next_id += 1
        request_id = self._next_id
        trace_frame = None
        span_id = None
        if trace is not None and self._server_traces():
            # This RPC's own span id becomes the server span's parent, so
            # the two trees stitch at exactly this request.
            span_id = tracing.new_span_id()
            trace_frame = {
                "trace_id": trace.trace_id,
                "parent_span_id": span_id,
            }
        started = time.perf_counter()
        protocol.write_frame(
            self._sock, protocol.request(request_id, op, trace=trace_frame, **params)
        )
        return request_id, op, trace, span_id, started

    def _receive(self, sent: tuple) -> dict:
        """Read the response frame to the request :meth:`_send` wrote
        (:func:`_answer` reads it)."""
        request_id, op, trace, span_id, started = sent
        frame = protocol.read_frame(self._sock)
        if frame is None:
            raise ConnectionError("server closed the connection mid-request")
        if frame.get("id") != request_id:
            raise ProtocolError(
                f"response id {frame.get('id')!r} does not match "
                f"request id {request_id}"
            )
        if span_id is not None:
            server_summary = frame.get("trace")
            trace.record(
                op,
                span_id,
                round((time.perf_counter() - started) * 1000, 3),
                server_summary if isinstance(server_summary, dict) else None,
            )
            self.last_trace = trace
        return frame

    def _roundtrip(
        self, op: str, params: dict, trace: Optional[StitchedTrace] = None
    ) -> dict:
        """One request/response exchange on the current socket; returns
        the response frame."""
        return self._receive(self._send(op, params, trace))

    def _submit(self, op: str, trace: Any, params: dict) -> PendingReply:
        """Write *op* and return its :class:`PendingReply`, holding the
        client's lock until the reply is read.  A transport failure here
        is kept for ``result()``, which retries as :meth:`_call` does."""
        self._lock.acquire()
        try:
            if trace is _UNSET:
                # Bare API calls (ping/begin/commit/…) still trace when
                # the policy says so; query() decides for itself.
                trace = self._new_trace()
            # Only reconnect when *not* inside a transaction — a reconnect
            # is a brand-new session and silently continuing would lie
            # about the transaction the server already rolled back.
            retry = self.auto_reconnect and not self._in_txn
            pending = PendingReply(self, op, params, trace, retry)
            try:
                if retry and self._sock is None:
                    self.connect()
                pending._sent = self._send(op, params, trace)
            except Exception as error:
                pending._error = error
            return pending
        except BaseException:
            self._lock.release()
            raise

    def _call(self, op: str, trace: Any = _UNSET, **params: Any) -> Any:
        """Roundtrip with transparent reconnect on transport failure
        (outside a transaction); returns the answer's result."""
        return self._submit(op, trace, params).result()

    def _cursor_call(
        self, op: str, trace: Optional[StitchedTrace] = None, **params: Any
    ) -> Any:
        """Roundtrip that never reconnects: cursors are session state, so
        a transport failure mid-stream must surface — a retry on a fresh
        session could only answer ``CURSOR_NOT_FOUND`` or silently
        re-run the query from the top."""
        with self._lock:
            try:
                frame = self._roundtrip(op, params, trace=trace)
            except (ConnectionError, OSError, socket.timeout):
                self._teardown()
                raise
            return _answer(frame)

    # ------------------------------------------------------------------ API --

    def query(
        self,
        text: str,
        bind_vars: Optional[dict] = None,
        analyze: bool = False,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        batch_size: Optional[int] = None,
        chunk_rows: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> ResultCursor:
        """Run MMQL on the server; returns a :class:`ResultCursor`.

        The result **streams**: the server opens a cursor and ships rows
        in chunks of ``chunk_rows`` (capped by the server's
        ``cursor_chunk_rows``) as the cursor is iterated; ``.rows`` /
        ``fetch_all()`` drain it.  ``analyze=True`` (or a leading
        ``EXPLAIN ANALYZE``) adds the annotated plan as ``analyzed``.
        Values are limited to what JSON round-trips.

        ``trace=True`` traces this one statement (client RPCs + server
        span trees, stitched across every fetch of a streamed result into
        :attr:`last_trace` / ``cursor.trace``) regardless of the client's
        default policy.  Passing an existing :class:`StitchedTrace`
        instance joins this statement onto it — the cluster coordinator
        uses that to stitch a whole scatter into one trace."""
        return self.submit(
            text, bind_vars, analyze=analyze, timeout=timeout,
            max_rows=max_rows, batch_size=batch_size, chunk_rows=chunk_rows,
            trace=trace,
        ).result()

    def submit(
        self,
        text: str,
        bind_vars: Optional[dict] = None,
        analyze: bool = False,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        batch_size: Optional[int] = None,
        chunk_rows: Optional[int] = None,
        trace: Optional[bool] = None,
    ) -> PendingReply:
        """Write :meth:`query`'s request and return without reading the
        reply: :meth:`PendingReply.result` reads it (a
        :class:`ResultCursor`).  The client stays locked in between, so a
        caller can write to several servers, then read each reply while
        the others execute."""
        if isinstance(trace, StitchedTrace):
            stitched: Optional[StitchedTrace] = trace
        else:
            stitched = self._new_trace(force=trace)
        params: dict[str, Any] = {"text": text, "bind_vars": bind_vars or {}}
        if self.shard_map_version is not None:
            params["shard_map_version"] = self.shard_map_version
        if timeout is not None:
            params["timeout"] = timeout
        if max_rows is not None:
            params["max_rows"] = max_rows
        if batch_size is not None:
            params["batch_size"] = batch_size
        if analyze:
            params["analyze"] = True
        if chunk_rows is not None:
            params["chunk_rows"] = chunk_rows
        return self._submit("query_open", stitched, params)

    def explain(self, text: str) -> str:
        return self._call("explain", text=text)["plan"]

    def shard_map(self) -> dict:
        """Fetch the shard's cluster topology (``shard_id`` +
        ``shard_map`` JSON); raises ``CLUSTER`` on non-cluster servers."""
        return self._call("shard_map")

    def begin(self, isolation: str = "snapshot") -> int:
        result = self._call("begin", isolation=isolation)
        self._in_txn = True
        return result["txn"]

    def commit(self) -> None:
        try:
            self._call("commit")
        finally:
            self._in_txn = False

    def abort(self) -> None:
        try:
            self._call("abort")
        finally:
            self._in_txn = False

    def set_limits(self, timeout: Any = _UNSET, max_rows: Any = _UNSET) -> dict:
        """Session-level guardrail overrides (``None`` clears one; the
        server still caps both at the host's ``db.guardrails``)."""
        params: dict[str, Any] = {}
        if timeout is not _UNSET:
            params["timeout"] = timeout
        if max_rows is not _UNSET:
            params["max_rows"] = max_rows
        return self._call("set", **params)

    def ping(self) -> bool:
        return bool(self._call("ping").get("pong"))

    def stats(self) -> dict:
        return self._call("stats")

    def info(self) -> dict:
        return self._call("info")

    # -- observability ------------------------------------------------------

    def trace_dump(self, n: Optional[int] = None) -> list[dict]:
        """Recent server-side trace trees (span-summary dicts)."""
        params = {"n": n} if n is not None else {}
        return self._call("trace_dump", **params)["traces"]

    def slowlog(self, threshold_ms: Any = _UNSET) -> dict:
        """The server's slow-query log; pass ``threshold_ms`` (or None to
        turn it off) to change the threshold first."""
        params = {} if threshold_ms is _UNSET else {"threshold_ms": threshold_ms}
        return self._call("slowlog", **params)

    def events(self, n: Optional[int] = None, kind: Optional[str] = None) -> list[dict]:
        """Recent structured events from the server's event log."""
        params: dict[str, Any] = {}
        if n is not None:
            params["n"] = n
        if kind is not None:
            params["kind"] = kind
        return self._call("events", **params)["events"]

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"<ReproClient {self.host}:{self.port} {state}>"
