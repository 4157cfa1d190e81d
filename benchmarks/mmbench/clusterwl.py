"""``b_cluster2``: the statement sequence and bind pools of
``b_embedded_warm``, through one ``ClusterClient`` against two shard
subprocesses (``serve --demo 4 --cluster MAP --shard-id i``, demo
placements), statements issued one at a time so a scatter uses at most
two connections.

``cluster.coordinator`` (plan, unparse, k-way merge, partial-aggregate
finalize) plus two wire hops per statement.  Paired with
``b_embedded_warm`` by construction: ``latency_p50_ms`` here minus there is
the distribution tax.  An executor gain should move both; a coordinator
gain only this one.

The traced pass drives ``Coordinator.plan`` and ``Coordinator.execute``
itself, handing ``execute`` a runner of its own over one public
``ReproClient`` per shard, so every shard call is a span with its row
count and the phase timings the shard reports in ``stats``.  (``ClusterClient`` puts a
``ReplicaSet`` router in between; with no replicas it only forwards.)
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import threading

from repro.client.client import ReproClient
from repro.cluster.bootstrap import make_demo_shard_map
from repro.cluster.client import ClusterClient

import layers
import procs
import workloads

SHARDS = 2


class Cluster2:
    name = "b_cluster2"

    def __init__(self, paths):
        self._paths = paths
        self.shards: list = []
        self.client = None
        self._dir = None
        self._map = None
        self._replans = 0

    # -- sequence ---------------------------------------------------------

    def sequences(self, data, seed: int, smoke: bool) -> list:
        rounds = 1 if smoke else workloads.B_CYCLE_ROUNDS
        return [workloads.b_sequence(data, seed, rounds)]

    def warmup_rounds(self, sequences: list) -> list:
        return [rounds[:1] for rounds in sequences]

    def trace_rounds(self, sequences: list, smoke: bool) -> list:
        return [workloads.cycled(rounds, 1 if smoke else 8)
                for rounds in sequences]

    # -- system under test ------------------------------------------------

    def setup(self) -> None:
        out = self._paths.ensure_out()
        self._dir = tempfile.mkdtemp(prefix="cluster-", dir=out)
        ports = [procs.free_port() for _ in range(SHARDS)]
        shard_map = make_demo_shard_map(
            [f"127.0.0.1:{port}" for port in ports])
        map_path = os.path.join(self._dir, "map.json")
        shard_map.save(map_path)
        self.shards = []
        for shard_id, port in enumerate(ports):
            self.shards.append(procs.ServerProc(
                self._paths.src,
                ["--demo", str(workloads.SCALE_FACTOR),
                 "--cluster", map_path, "--shard-id", str(shard_id)],
                os.path.join(out, f"server-b_cluster2-{shard_id}.log"),
                port=port,
            ))
        for shard in self.shards:
            shard.wait_ready()
        self.client = ClusterClient(shard_map).connect()
        self._map = self.client.shard_map
        self._replans = 0

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        for shard in self.shards:
            shard.stop()
        self.shards = []
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def children(self) -> list:
        return self.shards

    def execute(self, op, thread: int):
        result = self.client.query(op.text, op.binds)
        if self.client.shard_map is not self._map:
            # The client refetched the map after a SHARD_MAP_STALE.
            self._map = self.client.shard_map
            self._replans += 1
        return result

    def verify(self, op, result, thread: int):
        return op.expect.check(result.rows)

    def finish(self) -> list:
        return []

    # -- traced pass ------------------------------------------------------

    def begin_trace(self) -> None:
        self._shard_clients = []
        for shard in self.shards:
            client = ReproClient(port=shard.port)
            client.connect()
            client.shard_map_version = self._map.version
            self._shard_clients.append(client)
        self._stats = layers.StatCounts()
        self._rpcs: list = []
        self._calls: list = []  # (op_id, statement, ns, rows shipped)
        self._rows_returned = 0
        self._lock = threading.Lock()
        self.counters = layers.server_counters(self.shards)

    def execute_traced(self, op, thread: int, tracer, op_id: int):
        coordinator = self.client.coordinator
        root = tracer.open(op_id, None, f"driver.op.{op.cls}")
        plan = tracer.timed(op_id, root["span_id"], "cluster.coordinator.plan",
                            coordinator.plan, op.text, op.binds)
        execute = tracer.open(
            op_id, root["span_id"], "cluster.coordinator.execute")

        def runner(shard_id, text, binds, analyze=False, consistency=None,
                   trace=None):
            # Runs on the coordinator's scatter threads.
            call = tracer.open(op_id, execute["span_id"], "client.client.query")
            cursor = self._shard_clients[shard_id].query(text, binds)
            rows = cursor.fetch_all()
            tracer.close(call)
            # One round trip unless a shard ships over 1024 rows, which no
            # statement of this workload does at scale 4.
            trips = layers.place_round_trips(
                tracer, call, layers.one_round_trip(call, cursor.stats))
            with self._lock:
                self._rpcs.extend(trips)
                self._calls.append(
                    (op_id, text, call["end_ns"] - call["start_ns"], len(rows)))
            return rows, dict(cursor.stats or {}), cursor.analyzed

        result = coordinator.execute(plan, op.binds, runner)
        tracer.close(execute)
        tracer.close(root)
        self._stats.add(result.stats)
        self._rows_returned += len(result.rows)
        return result, (root["end_ns"] - root["start_ns"]) / 1e9

    def layer_counts(self) -> dict:
        ops = self._stats.ops
        scraped = layers.server_metrics(self.counters.total, ops)
        for client in self._shard_clients:
            client.close()
        segments: dict = {}
        for op_id, statement, elapsed, _rows in self._calls:
            segments.setdefault((op_id, statement), []).append(elapsed)
        skews = [
            max(times) / statistics.median(times)
            for times in segments.values() if len(times) > 1
        ]
        out = self._stats.metrics()
        out.update(scraped)
        out.update(layers.round_trip_metrics(
            self._rpcs, scraped["server.server.serialize_ms"], ops))
        out.update({
            "cluster.coordinator.fan_out_per_op":
                layers.ratio(len(self._calls), ops),
            "cluster.coordinator.shard_skew":
                statistics.fmean(skews) if skews else 0.0,
            "cluster.coordinator.rows_shipped_per_row_returned": layers.ratio(
                sum(call[3] for call in self._calls), self._rows_returned),
            "cluster.coordinator.stale_map_replans": self._replans,
        })
        return out
