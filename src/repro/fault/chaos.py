"""Network chaos harness: replication + failover under injected faults.

The crash-torture harness (:mod:`repro.fault.harness`) proves one node's
durability.  This harness proves the *topology's*: it stands up a real
primary with N real read replicas (every node a full :class:`ReproServer`
on a loopback port), drives a seeded mixed workload through the
:class:`~repro.replication.router.ReplicaSet` router, injects network
faults at the wire-frame failpoints (``server.frame_write``,
``server.frame_read``, ``client.frame_write``, ``client.frame_read``)
with the effects from :data:`repro.fault.registry.NET_EFFECTS`, then
**kills the primary without warning** mid-stream and lets the router fail
over.  After the dust settles it checks four invariants:

1. **Committed writes survive** — every write the router confirmed before
   or after the kill is present on the post-failover primary.
2. **No duplicate apply** — no replica's applier ever noted divergence
   (a duplicated or re-delivered frame must be absorbed by the
   ``received_lsn`` filter, never applied twice).
3. **Read equivalence** — once caught up (``repl_wait`` to the new
   primary's watermark), every surviving replica's full table scan equals
   the primary's.
4. **Failover happened** — the router promoted a replica and kept
   serving; the workload saw typed errors only, never a hang.

Every run is reproducible from its seed: the workload, the fault
schedule, and the kill point all derive from one ``random.Random(seed)``.
Chaos events are recorded on the report (and can be dumped as JSON for CI
artifacts via :func:`ChaosReport.dump`).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FailoverInProgressError, ReplicationError
from repro.fault.registry import FAILPOINTS
from repro.obs import events as obs_events

__all__ = ["ChaosReport", "ClusterChaosReport", "chaos_run", "cluster_chaos_run"]

#: Wire-level failpoint sites the scheduler may arm.
_NET_SITES = (
    "server.frame_write",
    "server.frame_read",
    "client.frame_write",
    "client.frame_read",
)

#: Effects safe to sprinkle while the workload runs.  ``partition`` is
#: excluded from the random schedule — an unhealable total partition
#: starves the run; the dedicated tests cover it deterministically.
_SCHEDULED_EFFECTS = ("drop_conn", "delay", "truncate_frame", "duplicate_frame")


@dataclass
class ChaosReport:
    """Outcome of one chaos run (one seed, one topology)."""

    seed: int
    replicas: int
    writes_attempted: int = 0
    writes_confirmed: int = 0
    reads_served: int = 0
    faults_armed: list = field(default_factory=list)
    failovers: int = 0
    killed_primary: Optional[str] = None
    promoted: Optional[str] = None
    events: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def note(self, kind: str, **detail) -> None:
        self.events.append({"ts": round(time.time(), 3), "kind": kind, **detail})

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] seed={self.seed} replicas={self.replicas} "
            f"writes={self.writes_confirmed}/{self.writes_attempted} "
            f"reads={self.reads_served} faults={len(self.faults_armed)} "
            f"failovers={self.failovers} errors={self.errors or '-'}"
        )

    def dump(self, path: str) -> None:
        """Write the chaos event log (this run's schedule + the engine's
        own observability events) as JSON — the CI artifact on failure."""
        payload = {
            "seed": self.seed,
            "summary": self.summary(),
            "errors": self.errors,
            "faults_armed": self.faults_armed,
            "chaos_events": self.events,
            "engine_events": obs_events.tail(500),
        }
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(payload, sink, indent=2, default=str)


def _make_db():
    from repro import MultiModelDB

    db = MultiModelDB()
    db.create_collection("kv")
    return db


@dataclass
class ClusterChaosReport(ChaosReport):
    """Outcome of one *cluster* chaos run (shard kill under scatter)."""

    shards: int = 0
    killed_shard: Optional[int] = None
    writes_refused: int = 0
    reads_refused: int = 0

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] seed={self.seed} shards={self.shards} "
            f"replicas={self.replicas} "
            f"writes={self.writes_confirmed}/{self.writes_attempted} "
            f"(refused {self.writes_refused}) reads={self.reads_served} "
            f"(refused {self.reads_refused}) faults={len(self.faults_armed)} "
            f"killed_shard={self.killed_shard} errors={self.errors or '-'}"
        )


def _write_until_confirmed(
    upsert, key: str, value: int, tolerated: tuple, report: ChaosReport,
    timeout: float,
) -> bool:
    """Retry one write through a failover until it is confirmed or
    *timeout* seconds have passed.  How long a promotion takes depends on
    the machine, so the budget is time, not a number of attempts."""
    deadline = time.monotonic() + timeout
    attempt = 0
    while True:
        try:
            upsert(key, value)
            return True
        except tolerated as error:
            report.note(
                "write_refused", key=key, attempt=attempt,
                error=type(error).__name__,
            )
        if time.monotonic() >= deadline:
            return False
        attempt += 1
        time.sleep(0.1)


def _disarm_net_sites() -> None:
    for site in _NET_SITES:
        FAILPOINTS.disarm(site)


def chaos_run(
    seed: int,
    replicas: int = 2,
    writes: int = 60,
    fault_rounds: int = 4,
    kill_primary: bool = True,
    ship_interval: float = 0.01,
    heartbeat_interval: float = 0.1,
    settle_timeout: float = 10.0,
) -> ChaosReport:
    """One chaos run: topology up, seeded workload + fault schedule,
    primary kill, failover, invariant checks.  Returns the report; it is
    the caller's job to assert :attr:`ChaosReport.ok`.

    The primary runs **semi-sync** (``ack_replication=1``): a write is
    "confirmed" only once at least one replica acknowledged it, which is
    the precondition for the committed-survive invariant — promotion
    picks the most-caught-up replica, and the acknowledged prefix is by
    construction at or below its watermark."""
    from repro.replication import ReplicaSet
    from repro.server.server import ReproServer

    rng = random.Random(seed)
    report = ChaosReport(seed=seed, replicas=replicas)
    servers: list = []
    router = None
    confirmed: dict = {}  # key -> value the router confirmed written
    #: A refused semi-sync write is committed on the primary all the same
    #: ("may not be replicated"): a read may show a key no write of which
    #: was confirmed, and the key's value leaves the oracle.
    attempted: set = set()

    #: Typed outcomes the workload absorbs and reports instead of dying:
    #: a refused semi-sync write or a mid-failover statement is the
    #: system being honest, not the harness failing.
    tolerated = (ReplicationError, FailoverInProgressError)

    def upsert(key: str, value: int) -> None:
        report.writes_attempted += 1
        attempted.add(key)
        try:
            router.query(
                "UPSERT {_key: @k} INSERT {_key: @k, v: @v} "
                "UPDATE {v: @v} INTO kv",
                {"k": key, "v": value},
            )
        except tolerated:
            confirmed.pop(key, None)  # applied or not: no longer known
            raise
        confirmed[key] = value
        report.writes_confirmed += 1

    def read(level: str) -> None:
        rows = router.query(
            "FOR d IN kv RETURN d", consistency=level
        ).rows
        report.reads_served += 1
        # A read may trail the confirmed map (bounded waits only for the
        # router's last-seen LSN), but it must never invent keys.
        extra = {row["_key"] for row in rows} - attempted
        if extra:
            report.errors.append(
                f"{level} read returned keys never written: {sorted(extra)}"
            )

    try:
        primary = ReproServer(
            _make_db(), port=0,
            ship_interval=ship_interval,
            heartbeat_interval=heartbeat_interval,
            ack_replication=1,
            ack_timeout=settle_timeout,
        )
        primary.start_in_thread()
        servers.append(primary)
        for _ in range(replicas):
            node = ReproServer(
                _make_db(), port=0,
                replica_of=f"127.0.0.1:{primary.port}",
                ship_interval=ship_interval,
                heartbeat_interval=heartbeat_interval,
                ack_replication=1,  # applies if this node gets promoted
                ack_timeout=settle_timeout,
            )
            node.start_in_thread()
            servers.append(node)
        report.note(
            "topology_up",
            primary=primary.port,
            replicas=[node.port for node in servers[1:]],
        )
        router = ReplicaSet(
            ("127.0.0.1", primary.port),
            [("127.0.0.1", node.port) for node in servers[1:]],
            retries=5,
            retry_seed=seed,
            retry_max_elapsed=5.0,
        )

        # Semi-sync gates writes on replica acks, so the workload waits
        # for every replica to subscribe before the first statement.
        deadline = time.monotonic() + settle_timeout
        while time.monotonic() < deadline:
            status = router._client(router.primary_address)._call("repl_status")
            if len(status.get("subscribers") or ()) >= replicas:
                break
            time.sleep(0.02)
        else:
            report.errors.append(
                f"replicas never subscribed within {settle_timeout}s"
            )
            return report

        # -- phase 1: clean base load ------------------------------------
        base = writes // 3
        for index in range(base):
            upsert(f"k{rng.randint(0, 19)}", index)

        # -- phase 2: writes and reads under network fire ----------------
        mid = writes - base
        fault_at = sorted(
            rng.sample(range(mid), min(fault_rounds, mid))
        )
        for index in range(mid):
            if fault_at and index == fault_at[0]:
                fault_at.pop(0)
                site = rng.choice(_NET_SITES)
                effect = rng.choice(_SCHEDULED_EFFECTS)
                trigger = f"prob:{rng.choice((0.02, 0.05, 0.1))}"
                FAILPOINTS.arm(site, trigger, effect, seed=rng.randint(0, 2**31))
                report.faults_armed.append(
                    {"site": site, "trigger": trigger, "effect": effect}
                )
                report.note("fault_armed", site=site, trigger=trigger,
                            effect=effect)
            try:
                upsert(f"k{rng.randint(0, 19)}", base + index)
            except tolerated as error:
                report.note("write_refused", error=type(error).__name__)
            if rng.random() < 0.3:
                try:
                    read(rng.choice(("eventual", "bounded")))
                except tolerated as error:
                    report.note("read_refused", error=type(error).__name__)

        # The streaming layer survived the fire; disarm so the kill and
        # the settle phase measure failover, not residual packet loss.
        _disarm_net_sites()
        report.note("faults_disarmed")

        # -- phase 3: kill the current primary mid-stream ----------------
        if kill_primary:
            # Chaos in phase 2 may already have moved the crown; kill
            # whoever wears it *now* — that is the interesting victim.
            current = router.primary_address
            victim = next(
                (s for s in servers if s.port == current[1]), primary
            )
            report.killed_primary = f"127.0.0.1:{victim.port}"
            failovers_before = router.failovers
            victim.kill()
            report.note("primary_killed", address=report.killed_primary)
            for index in range(writes // 3):
                key, value = f"p{rng.randint(0, 9)}", index
                if not _write_until_confirmed(
                    upsert, key, value, tolerated, report, settle_timeout
                ):
                    report.errors.append(
                        f"write of {key!r} never succeeded after failover"
                    )
                    break
            report.failovers = router.failovers
            report.promoted = "%s:%s" % router.primary_address
            if router.failovers <= failovers_before:
                report.errors.append(
                    "primary was killed but the router never failed over"
                )
            if router.primary_address == current:
                report.errors.append(
                    "router still points at the killed primary"
                )

        # -- phase 4: settle and check invariants ------------------------
        primary_addr = router.primary_address
        primary_client = router._client(primary_addr)
        head = primary_client._call("repl_status")
        head_lsn = head.get("last_lsn", 0)
        truth = {
            row["_key"]: row["v"]
            for row in router.query(
                "FOR d IN kv RETURN d", consistency="strong"
            ).rows
        }
        missing = {
            key: value for key, value in confirmed.items()
            if truth.get(key) != value
        }
        if missing:
            report.errors.append(
                f"confirmed writes lost after failover: {missing!r}"
            )
        for addr in router.replica_addresses:
            label = f"{addr[0]}:{addr[1]}"
            if label == report.killed_primary:
                continue  # a corpse readopted via a stale NOT_PRIMARY hint
            client = router._client(addr)
            try:
                waited = client._call(
                    "repl_wait", lsn=head_lsn, timeout=settle_timeout
                )
                status = client._call("repl_status")
            except Exception as error:
                report.errors.append(
                    f"replica {label} unreachable at settle: "
                    f"{type(error).__name__}"
                )
                continue
            if status.get("diverged"):
                report.errors.append(
                    f"replica {label} noted apply divergence "
                    "(duplicate or misaligned record)"
                )
            if not waited.get("reached"):
                report.errors.append(
                    f"replica {label} never caught up to lsn {head_lsn} "
                    f"within {settle_timeout}s "
                    f"(applied {waited.get('applied_lsn')})"
                )
                continue
            replica_state = {
                row["_key"]: row["v"]
                for row in client.query("FOR d IN kv RETURN d").rows
            }
            if replica_state != truth:
                report.errors.append(
                    f"replica {label} state diverges from primary after "
                    f"catch-up: {len(replica_state)} rows vs {len(truth)}"
                )
        report.note("settled", primary=f"{primary_addr[0]}:{primary_addr[1]}",
                    rows=len(truth), last_lsn=head_lsn)
    except Exception as error:  # harness bug or unplanned explosion
        report.errors.append(
            f"chaos run blew up: {type(error).__name__}: {error}"
        )
    finally:
        _disarm_net_sites()
        if router is not None:
            router.close()
        for server in servers:
            try:
                if server._kill:
                    continue
                server.stop(timeout=5.0)
            except Exception:
                pass
    return report


def cluster_chaos_run(
    seed: int,
    shards: int = 3,
    writes: int = 60,
    fault_rounds: int = 3,
    kill_shard: bool = True,
    replica_for: Optional[int] = None,
    ship_interval: float = 0.01,
    heartbeat_interval: float = 0.1,
    settle_timeout: float = 10.0,
) -> ClusterChaosReport:
    """One *cluster* chaos run: N shard servers, a seeded routed-write +
    scatter-read workload through :class:`~repro.cluster.ClusterClient`
    under network fire, then **one shard killed without warning**.

    The workload collection is hash-partitioned **by ``_key``**, so every
    UPSERT routes to exactly one shard — a write either commits whole on
    its owner or fails whole, which is what makes the invariants sharp:

    1. **No silent partial results** — once a shard is down, a scatter
       read raises a typed error (:class:`ShardUnavailableError` naming
       the shard); it never returns the surviving shards' rows as if they
       were the whole answer.
    2. **Surviving shards keep serving** — writes owned by live shards
       succeed; only writes owned by the dead shard are refused.
    3. **State = confirmed writes** — each surviving shard holds exactly
       the confirmed values it owns, and never a key that was never
       written.
    4. **Replica failover under the coordinator** — with ``replica_for``
       set, the killed shard is the replicated one: its replica set
       promotes, and scatter reads recover without a map change.
    """
    from repro.client.client import ReproClient
    from repro.cluster.client import ClusterClient
    from repro.cluster.shardmap import ShardMap, StorePlacement
    from repro.errors import (
        ClusterError,
        ShardUnavailableError,
    )
    from repro.server.server import ReproServer

    rng = random.Random(seed)
    report = ClusterChaosReport(
        seed=seed,
        replicas=1 if replica_for is not None else 0,
        shards=shards,
    )
    servers: list = []
    replica_server = None
    client = None
    confirmed: dict = {}   # key -> value the coordinator confirmed written
    attempted: set = set()  # every key ever sent, confirmed or not

    tolerated = (
        ShardUnavailableError,
        ClusterError,
        FailoverInProgressError,
        ReplicationError,
    )

    def upsert(key: str, value: int) -> None:
        report.writes_attempted += 1
        attempted.add(key)
        try:
            client.query(
                "UPSERT {_key: @k} INSERT {_key: @k, v: @v} "
                "UPDATE {v: @v} INTO kv",
                {"k": key, "v": value},
            )
        except tolerated:
            # The write may or may not have applied before the fault; we
            # no longer know this key's value, so it leaves the oracle.
            confirmed.pop(key, None)
            report.writes_refused += 1
            raise
        confirmed[key] = value
        report.writes_confirmed += 1

    def scatter_read() -> list:
        rows = client.query("FOR d IN kv RETURN d").rows
        report.reads_served += 1
        extra = {row["_key"] for row in rows} - attempted
        if extra:
            report.errors.append(
                f"scatter read returned keys never written: {sorted(extra)}"
            )
        return rows

    try:
        for shard_id in range(shards):
            options = {}
            if replica_for == shard_id:
                # Semi-sync on the replicated shard: a confirmed write is
                # on the replica by construction, so promotion loses
                # nothing the oracle remembers.
                options = {"ack_replication": 1, "ack_timeout": settle_timeout}
            server = ReproServer(
                _make_db(), port=0, shard_id=shard_id,
                ship_interval=ship_interval,
                heartbeat_interval=heartbeat_interval,
                **options,
            )
            server.start_in_thread()
            servers.append(server)
        replicas: dict = {}
        if replica_for is not None:
            replica_server = ReproServer(
                _make_db(), port=0, shard_id=replica_for,
                replica_of=f"127.0.0.1:{servers[replica_for].port}",
                ship_interval=ship_interval,
                heartbeat_interval=heartbeat_interval,
            )
            replica_server.start_in_thread()
            servers.append(replica_server)
            replicas[replica_for] = [
                f"127.0.0.1:{replica_server.port}"
            ]
        shard_map = ShardMap(
            [
                {
                    "shard_id": shard_id,
                    "primary": f"127.0.0.1:{servers[shard_id].port}",
                    "replicas": replicas.get(shard_id, []),
                }
                for shard_id in range(shards)
            ],
            {"kv": StorePlacement("hash", "_key", "_key")},
        )
        for server in servers:
            server.shard_map = shard_map
        report.note(
            "topology_up",
            shards=[server.port for server in servers[:shards]],
            replica=replica_server.port if replica_server else None,
        )
        client = ClusterClient(shard_map)
        client.connect()

        if replica_for is not None:
            # Semi-sync gates the replicated shard's writes on its
            # replica's ack; wait for the subscription before phase 1.
            with ReproClient(
                "127.0.0.1", servers[replica_for].port
            ) as probe:
                deadline = time.monotonic() + settle_timeout
                while time.monotonic() < deadline:
                    status = probe._call("repl_status")
                    if status.get("subscribers"):
                        break
                    time.sleep(0.02)
                else:
                    report.errors.append(
                        f"shard {replica_for}'s replica never subscribed "
                        f"within {settle_timeout}s"
                    )
                    return report

        # -- phase 1: clean base load ------------------------------------
        base = writes // 3
        for index in range(base):
            upsert(f"k{rng.randint(0, 29)}", index)
        scatter_read()

        # -- phase 2: routed writes + scatter reads under network fire ---
        mid = writes - base
        fault_at = sorted(rng.sample(range(mid), min(fault_rounds, mid)))
        for index in range(mid):
            if fault_at and index == fault_at[0]:
                fault_at.pop(0)
                site = rng.choice(_NET_SITES)
                effect = rng.choice(_SCHEDULED_EFFECTS)
                trigger = f"prob:{rng.choice((0.02, 0.05))}"
                FAILPOINTS.arm(site, trigger, effect, seed=rng.randint(0, 2**31))
                report.faults_armed.append(
                    {"site": site, "trigger": trigger, "effect": effect}
                )
                report.note("fault_armed", site=site, trigger=trigger,
                            effect=effect)
            try:
                upsert(f"k{rng.randint(0, 29)}", base + index)
            except tolerated as error:
                report.note("write_refused", error=type(error).__name__)
            if rng.random() < 0.3:
                try:
                    scatter_read()
                except tolerated as error:
                    report.reads_refused += 1
                    report.note("read_refused", error=type(error).__name__)

        _disarm_net_sites()
        report.note("faults_disarmed")

        # -- phase 3: kill one shard's primary mid-stream ----------------
        if kill_shard:
            victim = (
                replica_for if replica_for is not None
                else rng.randrange(shards)
            )
            report.killed_shard = victim
            report.killed_primary = f"127.0.0.1:{servers[victim].port}"
            servers[victim].kill()
            report.note("shard_killed", shard=victim,
                        address=report.killed_primary)

            dead = {victim} if replica_for is None else set()
            for index in range(writes // 3):
                key = f"p{rng.randint(0, 19)}"
                owner = shard_map.owner("kv", key)
                if owner in dead:
                    # Invariant 2: the dead shard's keyspace is refused
                    # with a typed error — quickly, not after a hang.
                    try:
                        upsert(key, index)
                    except tolerated as error:
                        report.note("dead_shard_write_refused", key=key,
                                    error=type(error).__name__)
                    else:
                        report.errors.append(
                            f"write of {key!r} (owned by dead shard "
                            f"{owner}) was confirmed"
                        )
                    continue
                if not _write_until_confirmed(
                    upsert, key, index, tolerated, report, settle_timeout
                ):
                    report.errors.append(
                        f"write of {key!r} (owned by live shard {owner}) "
                        "never succeeded after the kill"
                    )
                    break

            if replica_for is not None:
                # Invariant 4: the replica set under the coordinator
                # promotes, and scatter reads recover on the same map.
                deadline = time.monotonic() + settle_timeout
                recovered = False
                while time.monotonic() < deadline:
                    try:
                        scatter_read()
                        recovered = True
                        break
                    except tolerated as error:
                        report.reads_refused += 1
                        report.note("read_refused",
                                    error=type(error).__name__)
                        time.sleep(0.2)
                if not recovered:
                    report.errors.append(
                        "scatter reads never recovered after the "
                        "replicated shard's primary was killed"
                    )
                router = client._replica_set(victim)
                report.failovers = router.failovers
                report.promoted = "%s:%s" % router.primary_address
                if not router.failovers:
                    report.errors.append(
                        "shard primary was killed but its replica set "
                        "never failed over"
                    )
            else:
                # Invariant 1: no silent partials — the scatter must
                # raise, not answer with a subset of the shards.
                try:
                    rows = client.query("FOR d IN kv RETURN d").rows
                except tolerated as error:
                    report.reads_refused += 1
                    report.note("post_kill_read_refused",
                                error=type(error).__name__)
                else:
                    report.errors.append(
                        "scatter read over a dead shard returned "
                        f"{len(rows)} rows instead of a typed error"
                    )

        # -- phase 4: settle and check invariant 3 -----------------------
        for shard_id in range(shards):
            if shard_id == report.killed_shard and replica_for is None:
                continue
            expected = {
                key: value for key, value in confirmed.items()
                if shard_map.owner("kv", key) == shard_id
            }
            try:
                if shard_id == report.killed_shard:
                    # Read through the promoted replica.
                    rows = client._replica_set(shard_id).query(
                        "FOR d IN kv RETURN d"
                    ).fetch_all()
                else:
                    with ReproClient(
                        "127.0.0.1", servers[shard_id].port
                    ) as direct:
                        rows = direct.query("FOR d IN kv RETURN d").rows
            except Exception as error:
                report.errors.append(
                    f"shard {shard_id} unreachable at settle: "
                    f"{type(error).__name__}"
                )
                continue
            state = {row["_key"]: row["v"] for row in rows}
            lost = {
                key: value for key, value in expected.items()
                if state.get(key) != value
            }
            if lost:
                report.errors.append(
                    f"shard {shard_id} lost confirmed writes: {lost!r}"
                )
            misrouted = {
                key for key in state
                if shard_map.owner("kv", key) != shard_id
            }
            if misrouted:
                report.errors.append(
                    f"shard {shard_id} holds keys it does not own: "
                    f"{sorted(misrouted)}"
                )
            invented = set(state) - attempted
            if invented:
                report.errors.append(
                    f"shard {shard_id} holds keys never written: "
                    f"{sorted(invented)}"
                )
            report.note("shard_settled", shard=shard_id, rows=len(state),
                        expected=len(expected))
    except Exception as error:  # harness bug or unplanned explosion
        report.errors.append(
            f"cluster chaos run blew up: {type(error).__name__}: {error}"
        )
    finally:
        _disarm_net_sites()
        if client is not None:
            client.close()
        for server in servers:
            try:
                if server._kill:
                    continue
                server.stop(timeout=5.0)
            except Exception:
                pass
    return report
