"""Provision a sharded cluster: DDL everywhere, rows where they belong.

Each shard is populated by the one UniBench loader,
:func:`repro.unibench.generator.load_into_multimodel` — same schemas,
same indexes — with the placement predicate :func:`shard_slice`:
hash-partitioned rows land only on their owner shard, reference stores
land on every shard.  DDL (and index DDL) is applied on every shard
regardless of placement, so any shard can run any aligned statement.

Also provides :func:`start_cluster`, the in-process harness the tests,
the chaos runs and CI's cluster-smoke job share: N
:class:`~repro.server.server.ReproServer` shards (optionally one with a
read replica) on OS-picked ports, a matching versioned
:class:`~repro.cluster.shardmap.ShardMap`, and a
:class:`~repro.cluster.client.ClusterClient` wired to it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cluster.shardmap import ShardMap, StorePlacement, demo_placements

__all__ = [
    "make_demo_shard_map",
    "shard_slice",
    "start_cluster",
    "ClusterHandle",
]


def shard_slice(shard_map: ShardMap, position: int) -> Callable[[str, Any], bool]:
    """The placement predicate of the shard at *position* in *shard_map*,
    for :func:`~repro.unibench.generator.load_into_multimodel`: it keeps a
    hash-partitioned row only when ``shard_map.owner`` assigns it here,
    and every row of a reference store."""
    for store, kind in (("social", "graphs"), ("vendors", "triple stores")):
        if shard_map.is_hashed(store):
            raise NotImplementedError(
                f"hash-partitioned {kind} are not provisioned by this loader"
            )
    partition_keys = {
        store: placement.partition_key
        for store, placement in shard_map.placements.items()
        if placement.mode == "hash"
    }

    def keep(store: str, record) -> bool:
        key = partition_keys.get(store)
        if key is None:
            return True
        value = record[0] if store == "cart" else record.get(key)
        return shard_map.owner(store, value) == position

    return keep


def make_demo_shard_map(
    addresses: list,
    replicas: Optional[dict] = None,
    version: int = 1,
) -> ShardMap:
    """A demo-profile map over *addresses* (``host:port`` per shard)."""
    shards = []
    for shard_id, address in enumerate(addresses):
        shards.append(
            {
                "shard_id": shard_id,
                "primary": address,
                "replicas": list((replicas or {}).get(shard_id, ())),
            }
        )
    return ShardMap(shards, demo_placements(), version=version)


class ClusterHandle:
    """Everything :func:`start_cluster` stood up, torn down in one call."""

    def __init__(self, servers, replica_servers, shard_map, dbs):
        self.servers = servers
        self.replica_servers = replica_servers
        self.shard_map = shard_map
        self.dbs = dbs

    def client(self, **options) -> Any:
        from repro.cluster.client import ClusterClient

        return ClusterClient(self.shard_map, **options)

    def stop(self) -> None:
        for server in self.replica_servers + self.servers:
            try:
                server.stop()
            except Exception:
                pass

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_cluster(
    num_shards: int = 3,
    data: Any = None,
    scale_factor: int = 1,
    seed: int = 42,
    replica_for: Optional[int] = None,
    placements: Optional[dict] = None,
    with_indexes: bool = True,
    **server_options: Any,
) -> ClusterHandle:
    """Start *num_shards* in-process shard servers holding the UniBench
    data set, sliced by the demo placement profile.

    ``replica_for`` optionally attaches one WAL-shipping read replica to
    that shard (exercising the full ReplicaSet path under the
    coordinator).  Returns a :class:`ClusterHandle`."""
    from repro.core.database import MultiModelDB
    from repro.server.server import ReproServer
    from repro.unibench.generator import generate, load_into_multimodel

    if data is None:
        data = generate(scale_factor=scale_factor, seed=seed)
    store_placements = {
        name: (
            placement
            if isinstance(placement, StorePlacement)
            else StorePlacement(
                placement.get("mode"),
                placement.get("partition_key"),
                placement.get("primary_key"),
            )
        )
        for name, placement in (placements or demo_placements()).items()
    }
    # Provision on a placeholder map (addresses unknown until bind); the
    # partition assignment only depends on num_shards + placements, which
    # don't change when the real addresses are filled in.
    routing_map = ShardMap(
        [f"pending:{9000 + shard_id}" for shard_id in range(num_shards)],
        store_placements,
    )

    def provision(position: int) -> MultiModelDB:
        db = MultiModelDB()
        keep = shard_slice(routing_map, position)
        load_into_multimodel(db, data, with_indexes=with_indexes, keep=keep)
        return db

    dbs = [provision(shard_id) for shard_id in range(num_shards)]

    servers = []
    addresses = []
    try:
        for shard_id, db in enumerate(dbs):
            server = ReproServer(
                db, port=0, shard_id=shard_id, **server_options
            )
            server.start_in_thread()
            servers.append(server)
            addresses.append(f"{server.host}:{server.port}")
        replica_servers = []
        replicas: dict = {}
        if replica_for is not None:
            # A replica is provisioned like its primary; the WAL stream
            # keeps it converged from there.
            replica = ReproServer(
                provision(replica_for),
                port=0,
                shard_id=replica_for,
                replica_of=addresses[replica_for],
                **server_options,
            )
            replica.start_in_thread()
            replica_servers.append(replica)
            replicas[replica_for] = [f"{replica.host}:{replica.port}"]
        shard_map = ShardMap(
            [
                {
                    "shard_id": shard_id,
                    "primary": address,
                    "replicas": replicas.get(shard_id, []),
                }
                for shard_id, address in enumerate(addresses)
            ],
            store_placements,
        )
        for server in servers + replica_servers:
            server.shard_map = shard_map
        return ClusterHandle(servers, replica_servers, shard_map, dbs)
    except BaseException:
        for server in servers:
            try:
                server.stop()
            except Exception:
                pass
        raise
