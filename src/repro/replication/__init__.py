"""WAL-shipping replication: primary → N read replicas, client failover.

The ROADMAP's "millions of users" target needs reads to scale past one
node and the service to survive losing that node.  This package provides
both halves on top of the existing single-node engine:

* **Shipping** — a primary :class:`~repro.server.server.ReproServer`
  streams its central-log entries (the same records its WAL shadows) to
  subscribed replicas as unsolicited ``{"ship": ...}`` frames on the
  ordinary wire protocol; :class:`~repro.replication.hub.ReplicationHub`
  keeps the per-subscriber bookkeeping and the semi-sync ack state.
* **Applying** — each replica runs a
  :class:`~repro.replication.replica.WalPuller` background thread whose
  :class:`~repro.replication.apply.ReplicationApplier` replays committed
  transactions into the replica's own :class:`MultiModelDB` through the
  central log — exactly the path crash recovery uses — and tracks
  ``received``/``applied`` LSN watermarks keyed by *primary* LSNs.
* **Routing** — :class:`~repro.replication.router.ReplicaSet` is the
  client-side entry point: it sends writes and ``strong`` reads to the
  primary, load-balances ``eventual`` reads across replicas, makes
  ``bounded`` reads wait for a replica watermark, and on primary loss
  promotes the most-caught-up replica and retries non-transactional work.

Replicas are provisioned with the same DDL as the primary (DDL is not
replicated); from then on the shipped stream keeps primary and replica
logs LSN-aligned, which is what makes promotion seamless — a promoted
replica's log continues in the same LSN space its peers already track.
"""

from __future__ import annotations

from repro.replication.apply import ReplicationApplier
from repro.replication.hub import ReplicationHub
from repro.replication.replica import WalPuller
from repro.replication.router import ReplicaSet

__all__ = [
    "ReplicationApplier",
    "ReplicationHub",
    "ReplicaSet",
    "WalPuller",
]
