"""The per-layer metric catalogue and the span-derived half of it.

A layer is a module path under ``repro``.  Time metrics come from the
traced pass's spans (``spans.py``): ``*_us`` of a function is the mean
duration of its spans, except where the catalogue says *self* time.
Count metrics come from counters the system already publishes
(``result.stats``, ``db.plan_cache.stats()``, ``obs.metrics.REGISTRY``,
the server's ``/metrics`` page) and are filled in by each workload.

Every traced run reports every metric; one that does not apply to the
workload (no such span, no such counter) reads 0.
"""

from __future__ import annotations

import time

import procs
import spans as span_log
import workloads

#: (name, unit, better).  ``BENCHMARK.json`` lists the same, in this order.
PER_LAYER = [
    ("query.parser.tokenize_us", "us", "lower"),
    ("query.parser.parse_us", "us", "lower"),
    ("query.optimizer.optimize_us", "us", "lower"),
    ("query.optimizer.rules_fired_per_stmt", "count", "lower"),
    ("query.engine.plan_cache_hit_ratio", "ratio", "higher"),
    ("query.engine.plan_cache_evictions", "count", "lower"),
    ("query.engine.glue_us", "us", "lower"),
    ("query.executor.execute_us", "us", "lower"),
    ("query.executor.rows_scanned_per_row_returned", "ratio", "lower"),
    ("query.executor.index_lookups_per_op", "count", "lower"),
    ("query.executor.batches_per_op", "count", "lower"),
    ("query.compile.fallbacks_per_stmt", "count", "lower"),
    ("storage.segments.scanned_per_op", "count", "lower"),
    ("storage.segments.pruned_ratio", "ratio", "higher"),
    ("storage.segments.kernel_rows_per_op", "count", "lower"),
    ("storage.segments.rebuilds", "count", "lower"),
    ("relational.table.get_us", "us", "lower"),
    ("document.store.get_us", "us", "lower"),
    ("keyvalue.store.get_us", "us", "lower"),
    ("graph.store.neighbors_us", "us", "lower"),
    ("rdf.store.match_us", "us", "lower"),
    ("indexes.manager.lookups_per_op", "count", "lower"),
    ("txn.manager.begin_us", "us", "lower"),
    ("txn.manager.commit_us", "us", "lower"),
    ("txn.manager.abort_ratio", "ratio", "lower"),
    ("txn.manager.conflicts", "count", "lower"),
    ("txn.manager.retries_per_commit", "ratio", "lower"),
    ("storage.wal.append_us", "us", "lower"),
    ("storage.wal.bytes_per_commit", "B", "lower"),
    ("storage.wal.appends_per_commit", "count", "lower"),
    ("storage.wal.fsyncs_per_commit", "count", "lower"),
    ("storage.wal.write_amplification", "ratio", "lower"),
    ("storage.wal.recover_s", "s", "lower"),
    ("server.protocol.encode_us_per_frame", "us", "lower"),
    ("server.protocol.decode_us_per_frame", "us", "lower"),
    ("server.protocol.bytes_per_op", "B", "lower"),
    ("server.server.queue_ms", "ms", "lower"),
    ("server.server.execute_ms", "ms", "lower"),
    ("server.server.serialize_ms", "ms", "lower"),
    ("server.server.rtt_minus_phases_us", "us", "lower"),
    ("server.server.cursor_fetches_per_op", "count", "lower"),
    ("server.server.rejected", "count", "lower"),
    ("client.client.overhead_us", "us", "lower"),
    ("cluster.coordinator.plan_us", "us", "lower"),
    ("cluster.coordinator.merge_us", "us", "lower"),
    ("cluster.coordinator.fan_out_per_op", "count", "lower"),
    ("cluster.coordinator.shard_skew", "ratio", "lower"),
    ("cluster.coordinator.rows_shipped_per_row_returned", "ratio", "lower"),
    ("cluster.coordinator.stale_map_replans", "count", "lower"),
    ("unibench.generator.generate_s", "s", "lower"),
    ("unibench.generator.load_s", "s", "lower"),
    ("indexes.manager.build_s", "s", "lower"),
    ("obs.tracing.overhead_ratio", "ratio", "lower"),
] + [
    (f"driver.op.{cls}.p50_ms", "ms", "lower") for cls in workloads.OP_CLASSES
] + [
    ("driver.latency_p99_ms", "ms", "lower"),
]

UNITS = {name: unit for name, unit, _better in PER_LAYER}

#: metric -> (span name, "duration" | "self").  ``parse_us`` is parse's
#: self time: the tokenize span inside it is reported on its own.
_SPAN_METRICS = {
    "query.parser.tokenize_us": ("query.lexer.tokenize", "duration"),
    "query.parser.parse_us": ("query.parser.parse", "self"),
    "query.optimizer.optimize_us": ("query.optimizer.optimize", "duration"),
    "query.engine.glue_us": ("query.engine.run_query", "self"),
    "query.executor.execute_us": ("query.executor.execute", "duration"),
    "relational.table.get_us": ("relational.table.get", "duration"),
    "document.store.get_us": ("document.store.get", "duration"),
    "keyvalue.store.get_us": ("keyvalue.store.get", "duration"),
    "graph.store.neighbors_us": ("graph.store.neighbors", "duration"),
    "rdf.store.match_us": ("rdf.store.match", "duration"),
    "txn.manager.begin_us": ("txn.manager.begin", "duration"),
    "txn.manager.commit_us": ("txn.manager.commit", "duration"),
    "cluster.coordinator.plan_us": ("cluster.coordinator.plan", "duration"),
    "cluster.coordinator.merge_us": ("cluster.coordinator.execute", "self"),
}


def span_metrics(tracer: span_log.SpanLog) -> dict:
    """Mean microseconds per span for every span-derived metric.  Probe
    spans (``probe.<name>``) count under the name they probe."""
    own = span_log.self_times(tracer.spans)
    sums: dict = {}
    for span in tracer.spans:
        name = span["name"]
        if name.startswith("probe."):
            name = name[len("probe."):]
        entry = sums.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += span["end_ns"] - span["start_ns"]
        entry[2] += own[span["span_id"]]
    out = {}
    for metric, (span_name, kind) in _SPAN_METRICS.items():
        count, duration, self_ns = sums.get(span_name, (0, 0, 0))
        total = duration if kind == "duration" else self_ns
        out[metric] = total / count / 1e3 if count else 0.0
    return out


def complete(values: dict) -> dict:
    """*values* as ``{name: (value, unit)}`` over the whole catalogue,
    zero where the workload has nothing to report."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"metrics not in the catalogue: {sorted(unknown)}")
    out = {}
    for name, unit, _better in PER_LAYER:
        out[name] = (float(values.get(name, 0.0)), unit)
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def place_round_trips(tracer, call: dict, rpcs: list) -> list:
    """Lay the round trips of one client call out inside its span.

    *rpcs* is the client's stitched trace for the call: one entry per
    round trip, with the client-side duration and the server's own span
    and phase timings.  Returns ``(op, rtt_ms, queue_ms, execute_ms)`` per
    round trip."""
    out = []
    at = call["start_ns"]
    for rpc in rpcs:
        server = rpc["server"] or {}
        attrs = server.get("attrs", {})
        queue_ms = attrs.get("queue_ms", 0.0)
        execute_ms = attrs.get("execute_ms", 0.0)
        out.append((rpc["op"], rpc["duration_ms"], queue_ms, execute_ms))
        trip = tracer.place_children(
            call, [("server.protocol.roundtrip", int(rpc["duration_ms"] * 1e6))],
            start_ns=at,
        )[0]
        request = tracer.place_children(trip, [
            ("server.server.request", int(server.get("duration_ms", 0.0) * 1e6)),
        ])[0]
        tracer.place_children(request, [
            ("server.server.queue", int(queue_ms * 1e6)),
            ("server.server.execute", int(execute_ms * 1e6)),
        ])
        at = trip["end_ns"]
    return out


def one_round_trip(call: dict, stats: dict) -> list:
    """The stitched-trace shape of :func:`place_round_trips` for a call
    that made a single round trip, from the phase timings every response
    carries in ``stats["server_phases"]`` — no tracing involved, which
    matters: asking the server for its span tree costs 0.3 ms a request,
    a third of a point read."""
    phases = stats.get("server_phases", {})
    queue_ms = phases.get("queue", 0.0)
    execute_ms = phases.get("execute", 0.0)
    return [{
        "op": "query_open",
        "duration_ms": (call["end_ns"] - call["start_ns"]) / 1e6,
        "server": {
            "duration_ms": queue_ms + execute_ms,
            "attrs": {"queue_ms": queue_ms, "execute_ms": execute_ms},
        },
    }]


def round_trip_metrics(rpcs: list, serialize_ms: float, ops: int) -> dict:
    """The ``server.server`` timings of a pass from its round trips."""
    count = max(len(rpcs), 1)
    return {
        "server.server.queue_ms": sum(r[2] for r in rpcs) / count,
        "server.server.execute_ms": sum(r[3] for r in rpcs) / count,
        "server.server.rtt_minus_phases_us": 1e3 * sum(
            r[1] - r[2] - r[3] - serialize_ms for r in rpcs) / count,
        "server.server.cursor_fetches_per_op":
            ratio(sum(1 for r in rpcs if r[0] == "cursor_next"), ops),
    }


_SCRAPED = {
    "serialize_sum": 'server_request_phase_seconds_sum{phase="serialize"}',
    "serialize_count": 'server_request_phase_seconds_count{phase="serialize"}',
    "rejected": "server_overload_rejections_total",
    "bytes_read": "server_bytes_read_total",
    "bytes_written": "server_bytes_written_total",
}


def server_counters(servers: list) -> "Accumulator":
    """Server-side counters summed over *servers*, read from their
    ``/metrics`` pages."""
    def snapshot() -> dict:
        pages = [server.scrape() for server in servers]
        return {
            key: sum(procs.scrape_sum(page, name) for page in pages)
            for key, name in _SCRAPED.items()
        }

    return Accumulator(snapshot)


def server_metrics(moved: dict, ops: int) -> dict:
    """The metrics :func:`server_counters` feeds, over *ops* operations."""
    return {
        "server.server.serialize_ms":
            1e3 * ratio(moved["serialize_sum"], moved["serialize_count"]),
        "server.server.rejected": moved["rejected"],
        "server.protocol.bytes_per_op":
            ratio(moved["bytes_read"] + moved["bytes_written"], ops),
    }


class Accumulator:
    """The change of some of the system's own counters over the traced
    rounds only (untraced rounds run in between, see ``traced_pass``).
    ``snapshot`` returns ``{name: number}``."""

    def __init__(self, snapshot):
        self._snapshot = snapshot
        self._at = None
        self.total = dict.fromkeys(snapshot(), 0)

    def resume(self) -> None:
        self._at = self._snapshot()

    def pause(self) -> None:
        for key, value in self._snapshot().items():
            self.total[key] += value - self._at[key]


class StatCounts:
    """Sums of the per-statement ``result.stats`` the engine publishes —
    embedded, over the wire and (folded over shards) through the
    coordinator — turned into the executor and segment count metrics."""

    _KEYS = ("scanned", "rows_returned", "index_lookups", "batches",
             "segments_scanned", "segments_pruned", "columnar_kernel_rows")

    def __init__(self):
        self.ops = 0
        self.plan_cached = 0
        self.totals = dict.fromkeys(self._KEYS, 0)

    def merge(self, other: "StatCounts") -> None:
        self.ops += other.ops
        self.plan_cached += other.plan_cached
        for key, value in other.totals.items():
            self.totals[key] += value

    def add(self, stats: dict) -> None:
        self.ops += 1
        self.plan_cached += bool(stats.get("plan_cached"))
        totals = self.totals
        for key in self._KEYS:
            totals[key] += stats.get(key, 0)

    def metrics(self) -> dict:
        totals, ops = self.totals, self.ops
        return {
            "query.executor.rows_scanned_per_row_returned":
                ratio(totals["scanned"], totals["rows_returned"]),
            "query.executor.index_lookups_per_op":
                ratio(totals["index_lookups"], ops),
            "query.executor.batches_per_op": ratio(totals["batches"], ops),
            "storage.segments.scanned_per_op":
                ratio(totals["segments_scanned"], ops),
            "storage.segments.pruned_ratio": ratio(
                totals["segments_pruned"],
                totals["segments_scanned"] + totals["segments_pruned"]),
            "storage.segments.kernel_rows_per_op":
                ratio(totals["columnar_kernel_rows"], ops),
        }


class StoreProbes:
    """Timed calls into the model stores' public read functions, made by
    the driver between traced operations of the embedded workloads (which
    reach the stores only through the executor, where the driver cannot
    put a span)."""

    def __init__(self, db, data):
        self._customers = db.table("customers")
        self._orders = db.collection("orders")
        self._cart = db.bucket("cart")
        self._social = db.graph("social")
        self._vendors = db.triple_store("vendors")
        self._ids = [row["id"] for row in data.customers]
        self._order_keys = [row["_key"] for row in data.orders]
        self._products = [row["product_no"] for row in data.products]
        self._turn = 0

    def run(self, tracer: span_log.SpanLog, op_id: int) -> None:
        turn = self._turn
        self._turn += 1
        customer = self._ids[turn % len(self._ids)]
        calls = (
            ("probe.relational.table.get", self._customers.get, (customer,), {}),
            ("probe.document.store.get", self._orders.get,
             (self._order_keys[turn % len(self._order_keys)],), {}),
            ("probe.keyvalue.store.get", self._cart.get, (str(customer),), {}),
            ("probe.graph.store.neighbors", self._social.neighbors,
             (str(customer),), {"label": "knows"}),
            ("probe.rdf.store.match", self._vendors.match,
             (self._products[turn % len(self._products)], "soldBy", "?v"), {}),
        )
        for name, fn, args, kwargs in calls:
            start = time.perf_counter_ns()
            fn(*args, **kwargs)  # all five return materialised values
            tracer.add(op_id, None, name, start, time.perf_counter_ns())
