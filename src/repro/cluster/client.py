"""``ClusterClient`` — the application's one handle on a sharded cluster.

Composes the stack the repo already has: each shard is a PR-8
:class:`~repro.replication.router.ReplicaSet` (primary + replicas,
consistency levels, failover), the transport is the PR-4 wire protocol,
and the :class:`~repro.cluster.coordinator.Coordinator` decides which
shards see which statement.  The surface mirrors
:class:`~repro.client.client.ReproClient` (``query`` / ``explain`` /
``info`` / context manager), so the UniBench differential harness can
drive embedded, single-server, replicated and sharded deployments with
the same code.

Shard-map staleness is handled here: every shipped statement carries the
map version the plan used; when any shard answers ``SHARD_MAP_STALE``
the client refetches the map (``shard_map`` op, any reachable shard),
rebuilds its per-shard replica sets and its coordinator (whose plan cache
starts empty) and replans — once per statement, so a flapping topology
surfaces as an error instead of a livelock.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.errors import ClusterError, ClusterUnsupportedError, ShardMapStaleError
from repro.obs import tracing
from repro.replication.router import check_level

from repro.cluster.coordinator import ClusterResult, Coordinator
from repro.cluster.shardmap import ShardMap

__all__ = ["ClusterClient"]

def _split_address(address) -> tuple:
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return (address[0], int(address[1]))
    host, _, port = str(address).rpartition(":")
    if not host or not port.isdigit():
        raise ClusterError(f"bad shard address {address!r} (want host:port)")
    return (host, int(port))


def _close_all(sets: dict) -> None:
    for replica_set in sets.values():
        try:
            replica_set.close()
        except Exception:
            pass


class ClusterClient:
    """Scatter-gather MMQL over hash-partitioned shards.

    Lock order: a scatter holds each shard's router lock (and its node
    client's) from the write of its request to the read of its reply,
    taking them in ascending shard order.  This client's own lock guards
    its map and router table only; it is never held while a router lock
    is taken, so a thread mid-scatter can always look up the next shard's
    router."""

    def __init__(
        self,
        shard_map: Optional[ShardMap] = None,
        seed: Optional[Any] = None,
        consistency: str = "strong",
        trace: Optional[bool] = None,
        **client_options: Any,
    ):
        if shard_map is None and seed is None:
            raise ClusterError("ClusterClient needs a shard_map or a seed")
        self._options = dict(client_options)
        self.consistency = check_level(consistency)
        #: Store name -> its own read level, on every shard's router.
        self._levels: dict[str, str] = {}
        self.trace = trace
        self.last_trace = None
        self._lock = threading.RLock()
        self._sets: dict[int, Any] = {}
        self.shard_map: Optional[ShardMap] = shard_map
        self._seed = seed
        if shard_map is not None:
            self.coordinator = Coordinator(shard_map)
        else:
            self.coordinator = None  # built on connect()

    # ------------------------------------------------------------ lifecycle --

    def connect(self) -> "ClusterClient":
        if self.shard_map is None:
            self._adopt_map(self._fetch_map_from(self._seed))
        elif self.coordinator is None:
            self.coordinator = Coordinator(self.shard_map)
        return self

    def close(self) -> None:
        with self._lock:
            sets, self._sets = self._sets, {}
        _close_all(sets)

    def __enter__(self) -> "ClusterClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- topology --

    def _fetch_map_from(self, address) -> ShardMap:
        from repro.client.client import ReproClient

        host, port = _split_address(address)
        with ReproClient(host=host, port=port, **self._options) as probe:
            payload = probe.shard_map()
        return ShardMap.from_json(payload["shard_map"])

    def _adopt_map(self, shard_map: ShardMap) -> None:
        with self._lock:
            self.shard_map = shard_map
            self.coordinator = Coordinator(shard_map)
            sets, self._sets = self._sets, {}
        _close_all(sets)

    def refetch_map(self) -> ShardMap:
        """Pull a fresh map from any reachable shard (seed as fallback)
        and rebuild the per-shard routing."""
        candidates: list = []
        current = self.shard_map
        if current is not None:
            for entry in current.shards:
                candidates.append(entry.primary)
                candidates.extend(entry.replicas)
        if self._seed is not None:
            candidates.append(self._seed)
        last_error: Optional[BaseException] = None
        for candidate in candidates:
            try:
                fresh = self._fetch_map_from(candidate)
            except Exception as error:  # keep probing the roster
                last_error = error
                continue
            self._adopt_map(fresh)
            return fresh
        raise ClusterError(
            "could not refetch the shard map from any shard"
        ) from last_error

    def _replica_set(self, shard_id: int):
        with self._lock:
            replica_set = self._sets.get(shard_id)
            if replica_set is None:
                from repro.client.client import ReproClient
                from repro.replication.router import ReplicaSet

                entry = self.shard_map.entry(shard_id)
                version = self.shard_map.version
                options = dict(self._options)

                def factory(host=None, port=None, **kwargs):
                    merged = {**options, **kwargs}
                    client = ReproClient(host=host, port=port, **merged)
                    client.shard_map_version = version
                    return client

                replica_set = ReplicaSet(
                    _split_address(entry.primary),
                    [_split_address(replica) for replica in entry.replicas],
                    consistency=self.consistency,
                    client_factory=factory,
                )
                for name, level in self._levels.items():
                    replica_set.set_consistency(name, level)
                self._sets[shard_id] = replica_set
            return replica_set

    def set_consistency(self, name: str, level: str) -> None:
        """Read the store *name* at *level* on every shard: each shard's
        router gets the level, those built later (on first use, or after a
        map refetch) included."""
        check_level(level)
        with self._lock:
            self._levels[name] = level
            sets = list(self._sets.values())
        for replica_set in sets:
            replica_set.set_consistency(name, level)

    # -------------------------------------------------------------- queries --

    def _runner(
        self, shard_id, text, bind_vars, analyze, consistency, trace
    ):
        return self._replica_set(shard_id).submit(
            text,
            bind_vars,
            consistency=consistency,
            analyze=analyze,
            trace=trace,
        )

    def _new_trace(self, force: Optional[bool] = None):
        wanted = force if force is not None else (
            self.trace if self.trace is not None else tracing.is_enabled()
        )
        if not wanted:
            return None
        from repro.client.client import StitchedTrace

        return StitchedTrace(tracing.new_trace_id())

    def query(
        self,
        text: str,
        bind_vars: Optional[dict] = None,
        analyze: bool = False,
        consistency: Optional[str] = None,
        trace: Optional[bool] = None,
        **_ignored: Any,
    ) -> ClusterResult:
        """Plan and run one MMQL statement across the cluster.

        One :class:`StitchedTrace` spans the whole scatter — every
        per-shard RPC lands in the same trace, which is how a fan-out
        query stays one story in the trace viewer."""
        self.connect()
        analyze = analyze or self.coordinator.plan_cache.statement(text)[0].analyze
        stitched = self._new_trace(force=trace)
        try:
            result = self._query_once(
                text, bind_vars, analyze, consistency, stitched
            )
        except ShardMapStaleError:
            self.refetch_map()
            result = self._query_once(
                text, bind_vars, analyze, consistency, stitched
            )
        if stitched is not None:
            self.last_trace = stitched
        return result

    def _query_once(
        self, text, bind_vars, analyze, consistency, stitched
    ) -> ClusterResult:
        plan = self.coordinator.plan(text, bind_vars)
        result = self.coordinator.execute(
            plan,
            bind_vars,
            self._runner,
            analyze=analyze,
            consistency=consistency,
            trace=stitched,
        )
        return result

    def explain(self, text: str, bind_vars: Optional[dict] = None) -> str:
        """The coordinator's plan: strategy, fan-out, per-segment shard
        statements — the cluster analogue of the embedded EXPLAIN.  Planned
        through the same plan cache as :meth:`query`."""
        self.connect()
        plan = self.coordinator.plan(text, bind_vars)
        return plan.describe(self.shard_map)

    def begin(self, isolation: str = "snapshot"):
        raise ClusterUnsupportedError(
            "distributed transactions are not supported: a cluster "
            "statement may touch several shards and there is no cross-"
            "shard commit protocol — use single-statement writes (they "
            "route atomically to one shard) or run transactions against "
            "one shard's replica set directly"
        )

    # -------------------------------------------------------------- status --

    def info(self) -> dict:
        self.connect()
        return {
            "cluster": True,
            "shards": self.shard_map.num_shards,
            "map_version": self.shard_map.version,
            "placements": {
                name: placement.mode
                for name, placement in sorted(
                    self.shard_map.placements.items()
                )
            },
            "plan_cache": self.coordinator.plan_cache.stats(),
        }

    def shards_status(self) -> list:
        """Per-shard roster + reachability — the ``.shards`` dot-command."""
        self.connect()
        report = []
        for entry in self.shard_map.shards:
            replica_set = self._replica_set(entry.shard_id)
            try:
                status = replica_set.status()
                alive = replica_set.heartbeat()
            except Exception as error:
                status, alive = {"error": str(error)}, False
            report.append(
                {
                    "shard_id": entry.shard_id,
                    "primary": entry.primary,
                    "replicas": list(entry.replicas),
                    "alive": alive,
                    "status": status,
                }
            )
        return report

    def __repr__(self) -> str:
        shards = self.shard_map.num_shards if self.shard_map else "?"
        return f"<ClusterClient shards={shards} consistency={self.consistency}>"
