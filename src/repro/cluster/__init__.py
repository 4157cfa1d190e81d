"""Sharded cluster tier: hash-partitioned shards, scatter-gather MMQL.

The paper's "what's next" list puts *distributed multi-model processing*
front and center: once a workload spans relational, document, graph and
key/value data, partitioning it across nodes has to respect how the
models join, not just how the bytes split.  This package is that tier
for the repro engine:

* :mod:`~repro.cluster.shardmap` — versioned topology + per-store
  placements (``hash`` with a declared partition key, or ``reference``
  replicated everywhere), with a stability-pinned partition hash.
* :mod:`~repro.cluster.coordinator` — plans one MMQL statement into
  per-shard statements plus a merge (k-way sorted merge, partial
  aggregate combine, global DISTINCT), cutting the pipeline where the
  placement cannot localize a join.
* :mod:`~repro.cluster.client` — ``ClusterClient``: ReproClient-shaped
  facade composing one :class:`~repro.replication.router.ReplicaSet`
  per shard over the wire protocol, with SHARD_MAP_STALE refetch.
* :mod:`~repro.cluster.bootstrap` — the UniBench loader's per-shard
  placement predicate and the in-process ``start_cluster`` harness
  tests/chaos/CI share.
"""

from repro.cluster.bootstrap import (
    ClusterHandle,
    make_demo_shard_map,
    shard_slice,
    start_cluster,
)
from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import ClusterPlan, ClusterResult, Coordinator
from repro.cluster.shardmap import (
    ShardEntry,
    ShardMap,
    StorePlacement,
    demo_placements,
    partition_hash,
)

__all__ = [
    "ClusterClient",
    "ClusterHandle",
    "ClusterPlan",
    "ClusterResult",
    "Coordinator",
    "ShardEntry",
    "ShardMap",
    "StorePlacement",
    "demo_placements",
    "make_demo_shard_map",
    "partition_hash",
    "shard_slice",
    "start_cluster",
]
