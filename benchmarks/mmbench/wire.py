"""``a_wire_mixed``: UniBench Workload A over the wire.

One ``python -m repro.cli serve --demo 4`` subprocess (no WAL) and two
``ReproClient`` connections on two threads, closed loop: 80 % bind-parameter
point reads (relational, document, key/value; plan cache warm), 10 %
~300-row range reads streamed through ``query_open``/``cursor_next`` in
100-row frames, 10 % autocommit ``INSERT``/``UPDATE`` statements.

``server.protocol``, ``server.server`` (queue, thread-pool bridge,
serialize), ``server.session`` and ``client.client`` do most of a round
trip whose executor share is a few hundredths of a millisecond; writes and
cursor streams ride the same path as reads, so a framing or bridge gain
that costs one of them shows.
"""

from __future__ import annotations

import os
import socket
import statistics
import time

from repro.client.client import ReproClient
from repro.server import protocol

import layers
import procs
import workloads

#: Round trips of the client-overhead probe (each made both ways).
PROBE_ROUND_TRIPS = 300

_SUM_INSERTED = (
    "FOR o IN orders FILTER o.customer_id >= @base "
    "COLLECT AGGREGATE n = COUNT(o), total = SUM(o.total) "
    "RETURN {n: n, total: total}"
)
_PRICES = "FOR p IN products RETURN {key: p._key, price: p.price}"


class _Connection:
    """One client connection and the driver's model of what it wrote."""

    def __init__(self, index: int, client: ReproClient):
        self.index = index
        self.client = client
        self.inserts = 0
        self.inserted_total = 0
        self.prices: dict = {}
        self.next_price = 1000 * (index + 1)


class WireMixed:
    name = "a_wire_mixed"

    def __init__(self, paths):
        self._paths = paths
        self.server = None
        self.connections: list = []

    # -- sequence ---------------------------------------------------------

    def sequences(self, data, seed: int, smoke: bool) -> list:
        rounds = 2 if smoke else workloads.WIRE_CYCLE_ROUNDS
        return [
            workloads.wire_sequence(data, seed, connection, rounds)
            for connection in range(workloads.WIRE_CONNECTIONS)
        ]

    def warmup_rounds(self, sequences: list) -> list:
        # Every statement text planned once, the customers segment built.
        return [rounds[:1] for rounds in sequences]

    def trace_rounds(self, sequences: list, smoke: bool) -> list:
        return [workloads.cycled(rounds, 2 if smoke else 64)
                for rounds in sequences]

    # -- system under test ------------------------------------------------

    def setup(self) -> None:
        out = self._paths.ensure_out()
        self.server = procs.ServerProc(
            self._paths.src, ["--demo", str(workloads.SCALE_FACTOR)],
            os.path.join(out, "server-a_wire_mixed.log"),
        )
        self.server.wait_ready()
        self.connections = []
        for index in range(workloads.WIRE_CONNECTIONS):
            client = ReproClient(port=self.server.port)
            client.connect()
            self.connections.append(_Connection(index, client))

    def teardown(self) -> None:
        for connection in self.connections:
            connection.client.close()
        self.connections = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def children(self) -> list:
        return [self.server] if self.server is not None else []

    def _binds(self, op, connection: _Connection) -> dict:
        """Write templates get their fresh key or price here."""
        if op.cls == "insert":
            connection.inserts += 1
            return {
                "key": f"mw{connection.index}-{connection.inserts:07d}",
                "cid": workloads.WIRE_INSERT_CID_BASE + connection.inserts,
                "total": op.binds["total"],
            }
        if op.cls == "update":
            connection.next_price += 1
            return {"key": op.binds["key"], "price": connection.next_price}
        return op.binds

    def execute(self, op, thread: int):
        connection = self.connections[thread]
        binds = self._binds(op, connection)
        if op.cls == "range_cursor":
            cursor = connection.client.query(
                op.text, binds, chunk_rows=workloads.WIRE_CHUNK_ROWS)
        else:
            cursor = connection.client.query(op.text, binds)
        return cursor.fetch_all(), cursor.stats, binds

    def verify(self, op, result, thread: int):
        rows, stats, binds = result
        if op.cls not in workloads.MODEL_CHECKED:
            return op.expect.check(rows)
        if rows != [binds["key"]] or stats.get("writes") != 1:
            return f"write returned {rows!r} with stats {stats!r}"
        connection = self.connections[thread]
        if op.cls == "insert":
            connection.inserted_total += binds["total"]
        else:
            connection.prices[binds["key"]] = binds["price"]
        return None

    def finish(self) -> list:
        """Every acknowledged write must be readable afterwards."""
        problems = []
        client = self.connections[0].client
        found = client.query(
            _SUM_INSERTED, {"base": workloads.WIRE_INSERT_CID_BASE}).rows
        inserts = sum(c.inserts for c in self.connections)
        total = sum(c.inserted_total for c in self.connections)
        # SUM over no rows is NULL.
        expected = [{"n": inserts, "total": total if inserts else None}]
        if found != expected:
            problems.append(f"inserted orders: server has {found}, "
                            f"acknowledged {expected}")
        prices = {row["key"]: row["price"] for row in client.query(_PRICES).rows}
        for connection in self.connections:
            for key, price in connection.prices.items():
                if prices.get(key) != price:
                    problems.append(
                        f"product {key}: price {prices.get(key)} on the "
                        f"server, last acknowledged update wrote {price}")
        return problems

    # -- traced pass ------------------------------------------------------

    def begin_trace(self) -> None:
        self._stats = [layers.StatCounts() for _ in self.connections]
        self._rpcs = [[] for _ in self.connections]  # (op, rtt, queue, exec)
        self.counters = layers.server_counters([self.server])

    def execute_traced(self, op, thread: int, tracer, op_id: int):
        connection = self.connections[thread]
        binds = self._binds(op, connection)
        # Only the streamed range read needs the client's stitched trace
        # (it makes three round trips); everything else is one round trip
        # whose phases the response's stats already carry.
        streamed = op.cls == "range_cursor"
        root = tracer.open(op_id, None, f"driver.op.{op.cls}")
        call = tracer.open(op_id, root["span_id"], "client.client.query")
        if streamed:
            cursor = connection.client.query(
                op.text, binds, chunk_rows=workloads.WIRE_CHUNK_ROWS,
                trace=True)
        else:
            cursor = connection.client.query(op.text, binds)
        rows = cursor.fetch_all()
        tracer.close(call)
        tracer.close(root)
        self._rpcs[thread].extend(layers.place_round_trips(
            tracer, call,
            cursor.trace.rpcs if streamed
            else layers.one_round_trip(call, cursor.stats)))
        self._stats[thread].add(cursor.stats)
        seconds = (root["end_ns"] - root["start_ns"]) / 1e9
        return (rows, cursor.stats, binds), seconds

    def layer_counts(self) -> dict:
        stats = layers.StatCounts()
        for part in self._stats:
            stats.merge(part)
        rpcs = [rpc for part in self._rpcs for rpc in part]
        scraped = layers.server_metrics(self.counters.total, stats.ops)
        out = stats.metrics()
        out["query.engine.plan_cache_hit_ratio"] = layers.ratio(
            stats.plan_cached, stats.ops)
        out.update(scraped)
        out.update(layers.round_trip_metrics(
            rpcs, scraped["server.server.serialize_ms"], stats.ops))
        out.update(self._probe_client_overhead())
        return out

    def _probe_client_overhead(self) -> dict:
        """``ReproClient.query`` against the same request sent with bare
        ``write_frame``/``read_frame`` on a raw socket, alternating, on the
        now idle server; and ``encode_frame``/``decode_payload`` timed on
        those very frames."""
        text = workloads.WIRE_TEXTS["point_rel"]
        client = self.connections[0].client
        raw = socket.create_connection(("127.0.0.1", self.server.port), 5)
        via_client, via_socket, encode_ns, decode_ns = [], [], [], []
        now = time.perf_counter_ns
        try:
            protocol.read_frame(raw)  # the hello
            for turn in range(PROBE_ROUND_TRIPS):
                binds = {"id": 1 + turn % 400}
                begin = now()
                client.query(text, binds).fetch_all()
                via_client.append(now() - begin)
                request = protocol.request(
                    turn + 1, "query_open", text=text, bind_vars=binds)
                begin = now()
                protocol.write_frame(raw, request)
                response = protocol.read_frame(raw)
                via_socket.append(now() - begin)
                if not response.get("ok"):
                    raise RuntimeError(f"raw probe refused: {response}")
                for payload in (request, response):
                    begin = now()
                    frame = protocol.encode_frame(payload)
                    encode_ns.append(now() - begin)
                    begin = now()
                    protocol.decode_payload(frame[4:])
                    decode_ns.append(now() - begin)
        finally:
            raw.close()
        return {
            "client.client.overhead_us": (
                statistics.median(via_client) - statistics.median(via_socket)
            ) / 1e3,
            "server.protocol.encode_us_per_frame":
                statistics.fmean(encode_ns) / 1e3,
            "server.protocol.decode_us_per_frame":
                statistics.fmean(decode_ns) / 1e3,
        }
