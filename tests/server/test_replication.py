"""WAL-shipping replication: applier semantics, consistency levels (per
call and per store), semi-sync acks, promotion/repoint, and router
failover."""

import time

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.client import ReproClient
from repro.errors import (
    FailoverInProgressError,
    NotPrimaryError,
    ReplicationError,
)
from repro.query.engine import run_query
from repro.query.shapes import StatementMemo
from repro.replication import ReplicaSet
from repro.replication.apply import ReplicationApplier
from repro.server import ReproServer
from repro.storage.wal import entry_to_record


def _db():
    db = MultiModelDB()
    db.create_collection("kv")
    # Slide 97's pair: relational data that wants strong consistency and
    # graph data that can live with eventual.
    db.create_table(TableSchema("accounts", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("balance", ColumnType.INTEGER),
    ], primary_key="id"))
    db.create_graph("social")
    return db


def _server(**kwargs):
    kwargs.setdefault("ship_interval", 0.01)
    kwargs.setdefault("heartbeat_interval", 0.1)
    server = ReproServer(_db(), port=0, **kwargs)
    server.start_in_thread()
    return server


def _wait_subscribers(server, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    with ReproClient(port=server.port, sleep=None) as client:
        while time.monotonic() < deadline:
            status = client._call("repl_status")
            if len(status.get("subscribers") or ()) >= count:
                return
            time.sleep(0.02)
    raise AssertionError(f"{count} subscriber(s) never appeared")


@pytest.fixture(scope="module")
def topology():
    """One primary, two replicas, all live for the whole module."""
    primary = _server()
    replicas = [
        _server(replica_of=f"127.0.0.1:{primary.port}") for _ in range(2)
    ]
    _wait_subscribers(primary, 2)
    yield primary, replicas
    for node in replicas:
        node.stop()
    primary.stop()


def statement_writes(text):
    return StatementMemo().classify(text).writes


class TestStatementWrites:
    @pytest.mark.parametrize(
        "text",
        [
            "INSERT {_key: 'a'} INTO kv",
            "FOR d IN kv UPDATE d WITH {x: 1} IN kv",
            "FOR d IN kv REMOVE d IN kv",
            "REPLACE 'a' WITH {v: 2} IN kv",
            "UPSERT {_key: 'a'} INSERT {_key: 'a'} UPDATE {v: 1} INTO kv",
        ],
    )
    def test_write_statements_detected(self, text):
        assert statement_writes(text) is True

    @pytest.mark.parametrize(
        "text",
        [
            "FOR d IN kv RETURN d",
            "FOR d IN kv FILTER d.v > 3 RETURN d._key",
            "RETURN 1 + 1",
        ],
    )
    def test_read_statements_pass(self, text):
        assert statement_writes(text) is False

    def test_unparseable_text_is_not_a_write(self):
        # The engine will raise the real ParseError; routing just needs a
        # deterministic answer.
        assert statement_writes("THIS IS NOT MMQL") is False


class TestApplier:
    """Unit-level apply semantics against a real engine log."""

    def _shipped_records(self, source_db, anchor):
        return [
            entry_to_record(entry)
            for entry in source_db.context.log.entries_since(anchor)
        ]

    def _committed_block(self):
        """One committed transaction: [insert, insert, COMMIT] — a single
        contiguous block, the shape commit-time publish guarantees."""
        src = _db()
        anchor = src.context.log.last_lsn
        txn = src.begin()
        run_query(src, "INSERT {_key: 'a', v: 1} INTO kv", {}, txn)
        run_query(src, "INSERT {_key: 'b', v: 2} INTO kv", {}, txn)
        src.commit(txn)
        return self._shipped_records(src, anchor)

    def test_apply_then_duplicate_batch_is_idempotent(self):
        records = self._committed_block()
        dst = _db()
        applier = ReplicationApplier(dst)
        applier.bootstrap(dst.context.log.last_lsn)
        assert applier.apply_records(records) == len(records)
        lsn_after = dst.context.log.last_lsn
        # The exact same batch again (duplicated frame / retransmit after
        # reconnect): zero fresh records, log unchanged.
        assert applier.apply_records(records) == 0
        assert dst.context.log.last_lsn == lsn_after
        assert applier.watermarks()["diverged"] is False

    def test_gap_in_stream_raises(self):
        records = self._committed_block()
        assert len(records) >= 3
        dst = _db()
        applier = ReplicationApplier(dst)
        applier.bootstrap(dst.context.log.last_lsn)
        applier.apply_records(records[:1])  # anchor the watermark
        with pytest.raises(ReplicationError, match="gap"):
            applier.apply_records(records[2:])  # record 2 went missing

    def test_open_block_holds_applied_watermark(self):
        records = self._committed_block()
        dst = _db()
        applier = ReplicationApplier(dst)
        anchor = dst.context.log.last_lsn
        applier.bootstrap(anchor)
        # Ship everything but the final COMMIT: the block stays buffered.
        applier.apply_records(records[:-1])
        marks = applier.watermarks()
        assert marks["applied_lsn"] == anchor
        assert marks["received_lsn"] == records[-2]["lsn"]
        assert marks["pending_records"] > 0
        assert dst.context.log.last_lsn == anchor  # nothing published yet
        # The COMMIT arrives: the block lands atomically, LSN-aligned.
        applier.apply_records(records[-1:])
        marks = applier.watermarks()
        assert marks["applied_lsn"] == records[-1]["lsn"]
        assert marks["pending_records"] == 0
        assert dst.context.log.last_lsn == records[-1]["lsn"]

    def test_reset_pending_drops_uncommitted_block(self):
        records = self._committed_block()
        dst = _db()
        applier = ReplicationApplier(dst)
        anchor = dst.context.log.last_lsn
        applier.bootstrap(anchor)
        applier.apply_records(records[:-1])
        dropped = applier.reset_pending()
        assert dropped > 0
        marks = applier.watermarks()
        # Rewound: a later subscription re-fetches the dropped records.
        assert marks["received_lsn"] == marks["applied_lsn"] == anchor

    def test_non_integer_lsn_rejected(self):
        applier = ReplicationApplier(_db())
        with pytest.raises(ReplicationError, match="lsn"):
            applier.apply_records([{"lsn": "nope", "op": "insert"}])


class TestShippingAndConsistency:
    def test_writes_reach_replicas_lsn_aligned(self, topology):
        primary, replicas = topology
        with ReproClient(port=primary.port, sleep=None) as client:
            for index in range(10):
                client.query(
                    "UPSERT {_key: @k} INSERT {_key: @k, v: @v} "
                    "UPDATE {v: @v} INTO kv",
                    {"k": f"s{index}", "v": index},
                ).fetch_all()
            head = client._call("repl_status")["last_lsn"]
        for node in replicas:
            with ReproClient(port=node.port, sleep=None) as client:
                waited = client._call("repl_wait", lsn=head, timeout=5.0)
                assert waited["reached"], waited
                status = client._call("repl_status")
                assert status["role"] == "replica"
                assert status["applied_lsn"] >= head
                # LSN alignment: the replica's own log head matches the
                # primary's — the promotion-compatibility property.
                assert status["last_lsn"] == status["applied_lsn"]
                rows = client.query(
                    "FOR d IN kv FILTER d.v >= 0 RETURN d._key"
                ).fetch_all()
                assert len(rows) >= 10

    def test_replica_refuses_writes_with_primary_hint(self, topology):
        primary, replicas = topology
        with ReproClient(port=replicas[0].port, sleep=None) as client:
            with pytest.raises(NotPrimaryError) as excinfo:
                client.query("INSERT {_key: 'w'} INTO kv").fetch_all()
            assert excinfo.value.primary == f"127.0.0.1:{primary.port}"
            with pytest.raises(NotPrimaryError):
                client.begin()

    def test_replica_serves_reads_and_reports_role(self, topology):
        primary, replicas = topology
        with ReproClient(port=replicas[0].port, sleep=None) as client:
            assert client.server_info["role"] == "replica"
            assert client.server_info["replica_of"].endswith(str(primary.port))
            client.query("FOR d IN kv RETURN d").fetch_all()  # no error

    def test_query_stats_carry_last_lsn(self, topology):
        primary, _replicas = topology
        with ReproClient(port=primary.port, sleep=None) as client:
            cursor = client.query("FOR d IN kv RETURN d")
            cursor.fetch_all()
            assert isinstance(cursor.stats.get("last_lsn"), int)

    def test_router_routes_by_consistency(self, topology):
        primary, replicas = topology
        router = ReplicaSet(
            ("127.0.0.1", primary.port),
            [("127.0.0.1", node.port) for node in replicas],
        )
        try:
            router.query(
                "UPSERT {_key: 'r1'} INSERT {_key: 'r1', v: 7} "
                "UPDATE {v: 7} INTO kv",
            )
            assert router.last_seen_lsn > 0
            strong = router.query(
                "FOR d IN kv FILTER d._key == 'r1' RETURN d.v",
                consistency="strong",
            ).rows
            bounded = router.query(
                "FOR d IN kv FILTER d._key == 'r1' RETURN d.v",
                consistency="bounded",
            ).rows
            assert strong == bounded == [7]
            eventual = router.query(
                "FOR d IN kv RETURN d._key", consistency="eventual"
            ).rows
            assert "r1" in eventual or eventual == []  # may lag, never lies
        finally:
            router.close()

    def test_router_routing_table(self, topology):
        """Per-store levels: each statement lands where its level says,
        counted by the router (no timing involved)."""
        primary, replicas = topology
        router = ReplicaSet(
            ("127.0.0.1", primary.port),
            [("127.0.0.1", node.port) for node in replicas],
            consistency="bounded",
        )
        router.set_consistency("accounts", "strong")
        router.set_consistency("social", "eventual")
        graph = "FOR v IN 1..1 OUTBOUND 'nobody' GRAPH social RETURN v"
        cases = [
            # (statement, binds, per-call level, sent to the primary?)
            ("FOR a IN accounts RETURN a", None, None, True),
            (graph, None, None, False),
            ("FOR a IN accounts LET f = (" + graph + ") RETURN f",
             None, None, True),
            # A store named through a bind could be the strong one.
            ("RETURN DOCUMENT(@coll, 'k')", {"coll": "kv"}, None, True),
            # kv has no level of its own: the router's default, bounded.
            ("FOR d IN kv RETURN d", None, None, False),
            ("FOR a IN accounts RETURN a", None, "eventual", False),
            (graph, None, "strong", True),
            ("UPSERT {_key: 'rt'} INSERT {_key: 'rt'} UPDATE {} INTO kv",
             None, None, True),
        ]
        try:
            for text, binds, level, on_primary in cases:
                before = router.status()
                router.query(text, binds, consistency=level)
                after = router.status()
                sent = (
                    after["primary_statements"] - before["primary_statements"],
                    after["replica_statements"] - before["replica_statements"],
                )
                assert sent == ((1, 0) if on_primary else (0, 1)), text
            # Inside a transaction every statement is the primary's.
            router.begin()
            router.query(graph, consistency="eventual")
            router.query("FOR d IN kv RETURN d")
            router.abort()
            status = router.status()
            assert status["primary_statements"] == 7
            assert status["replica_statements"] == 3
            with pytest.raises(ValueError, match="quorum"):
                router.set_consistency("social", "quorum")
        finally:
            router.close()

    def test_hybrid_consistency_on_real_replicas(self, topology):
        """E19 (slide 97): the relational store strong, the graph
        eventual, on one primary and two replicas."""
        primary, replicas = topology
        social = primary.db.graph("social")
        for key in ("ann", "bob"):
            social.add_vertex(key, {"name": key})
        social.add_edge("ann", "bob", "knows")
        head = primary.db.context.log.last_lsn
        for node in replicas:
            with ReproClient(port=node.port, sleep=None) as client:
                assert client._call("repl_wait", lsn=head, timeout=5.0)[
                    "reached"
                ]
        router = ReplicaSet(
            ("127.0.0.1", primary.port),
            [("127.0.0.1", node.port) for node in replicas],
        )
        router.set_consistency("accounts", "strong")
        router.set_consistency("social", "eventual")
        rounds = 10
        friends = "FOR v IN 1..1 OUTBOUND 'ann' GRAPH social RETURN v._key"
        try:
            for balance in range(rounds):
                router.query(
                    "UPSERT {id: 19} INSERT {id: 19, balance: @b} "
                    "UPDATE {balance: @b} INTO accounts",
                    {"b": balance},
                )
                # A strong read after a write sees the write.
                assert router.query(
                    "FOR a IN accounts FILTER a.id == 19 RETURN a.balance"
                ).rows == [balance]
                assert router.query(friends).rows == ["bob"]
                both = router.query(
                    "FOR a IN accounts FILTER a.id == 19 "
                    "RETURN {balance: a.balance, friends: (" + friends + ")}"
                ).rows
                assert both == [{"balance": balance, "friends": ["bob"]}]
            status = router.status()
            # Writes, relational reads and the mixed read: the primary.
            # Every graph read: a replica.
            assert status["primary_statements"] == 3 * rounds
            assert status["replica_statements"] == rounds
        finally:
            router.close()

    def test_router_transactions_pin_to_primary(self, topology):
        primary, replicas = topology
        router = ReplicaSet(
            ("127.0.0.1", primary.port),
            [("127.0.0.1", node.port) for node in replicas],
        )
        try:
            router.begin()
            router.query("INSERT {_key: 'txn1', v: 1} INTO kv")
            router.commit()
            rows = router.query(
                "FOR d IN kv FILTER d._key == 'txn1' RETURN d.v",
                consistency="strong",
            ).rows
            assert rows == [1]
        finally:
            router.close()

    def test_replication_metrics_exported(self, topology):
        primary, _replicas = topology
        from repro.obs import metrics as obs_metrics
        from repro.obs.export import prometheus_text

        assert obs_metrics.counter("wal_records_shipped_total").value > 0
        rendered = prometheus_text()
        assert "wal_records_shipped_total" in rendered
        assert "replication_applied_lsn" in rendered

    def test_stats_payload_includes_replication(self, topology):
        primary, _replicas = topology
        with ReproClient(port=primary.port, sleep=None) as client:
            stats = client._call("stats")
            repl = stats["replication"]
            assert repl["role"] == "primary"
            assert len(repl["subscribers"]) == 2


class TestCatalogBootstrap:
    """An empty replica materializes the primary's catalog from the
    snapshot shipped with the ``wal_subscribe`` response — DDL is not
    logged, so without this a fresh replica applies every record into a
    store-less log and serves UNKNOWN_COLLECTION forever."""

    def test_empty_replica_bootstraps_catalog_and_serves_reads(self):
        from repro import Column, ColumnType, TableSchema

        db = MultiModelDB()
        db.create_collection("docs")
        db.create_bucket("cache")
        db.create_graph("net")
        db.create_table(TableSchema("people", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("name", ColumnType.STRING),
        ], primary_key="id"))
        db.table("people").insert({"id": 1, "name": "Mary"})
        db.collection("docs").insert({"_key": "d1", "v": 1})
        db.bucket("cache").put("k", "v")

        primary = ReproServer(
            db, port=0, ship_interval=0.01, heartbeat_interval=0.1
        )
        primary.start_in_thread()
        # The replica starts with a COMPLETELY empty MultiModelDB.
        replica = ReproServer(
            MultiModelDB(), port=0,
            replica_of=f"127.0.0.1:{primary.port}",
            ship_interval=0.01, heartbeat_interval=0.1,
        )
        replica.start_in_thread()
        try:
            _wait_subscribers(primary, 1)
            head = db.context.log.last_lsn
            with ReproClient(port=replica.port, sleep=None) as client:
                waited = client._call("repl_wait", lsn=head, timeout=5.0)
                assert waited["reached"], waited
                assert replica.db.catalog() == db.catalog()
                rows = client.query(
                    "FOR p IN people RETURN p.name"
                ).rows
                assert rows == ["Mary"]
                assert client.query(
                    "FOR d IN docs RETURN d.v"
                ).rows == [1]
                # writes after the bootstrap flow through as well
                db.collection("docs").insert({"_key": "d2", "v": 2})
                client._call(
                    "repl_wait", lsn=db.context.log.last_lsn, timeout=5.0
                )
                assert sorted(client.query(
                    "FOR d IN docs RETURN d.v"
                ).rows) == [1, 2]
        finally:
            replica.stop()
            primary.stop()

    def test_snapshot_round_trips_table_schema(self):
        from repro import Column, ColumnType, TableSchema

        db = MultiModelDB()
        db.create_table(TableSchema("t", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("note", ColumnType.STRING, default="-"),
        ], primary_key="id"))
        server = ReproServer(db, port=0)
        snapshot = server._describe_catalog()
        (entry,) = snapshot
        assert entry["kind"] == "table"
        target = MultiModelDB()
        applier = ReplicationApplier(target)
        assert applier.sync_catalog(snapshot) == ["t"]
        schema = target.table("t").schema
        assert schema.primary_key == "id"
        assert schema.column("note").default == "-"
        assert not schema.column("id").nullable
        # idempotent: a re-subscribe ships the snapshot again
        assert applier.sync_catalog(snapshot) == []


class TestSemiSync:
    def test_unreplicated_write_fails_loudly(self):
        # ack_replication=1 with no subscribers: the write commits locally
        # but the response must be a typed ReplicationError.
        server = _server(ack_replication=1, ack_timeout=0.2)
        try:
            with ReproClient(port=server.port, sleep=None) as client:
                with pytest.raises(ReplicationError, match="semi-sync"):
                    client.query("INSERT {_key: 'x', v: 1} INTO kv").fetch_all()
                # The write is durable locally regardless — honesty, not
                # rollback.
                rows = client.query(
                    "FOR d IN kv FILTER d._key == 'x' RETURN d.v"
                ).fetch_all()
                assert rows == [1]
        finally:
            server.stop()

    def test_acked_write_returns_promptly(self):
        primary = _server(ack_replication=1, ack_timeout=5.0)
        replica = _server(replica_of=f"127.0.0.1:{primary.port}")
        try:
            _wait_subscribers(primary, 1)
            with ReproClient(port=primary.port, sleep=None) as client:
                started = time.monotonic()
                client.query("INSERT {_key: 'y', v: 2} INTO kv").fetch_all()
                assert time.monotonic() - started < 4.0
        finally:
            replica.stop()
            primary.stop()


class TestPromotionAndFailover:
    def test_promote_and_repoint(self):
        primary = _server()
        node_a = _server(replica_of=f"127.0.0.1:{primary.port}")
        node_b = _server(replica_of=f"127.0.0.1:{primary.port}")
        try:
            _wait_subscribers(primary, 2)
            with ReproClient(port=primary.port, sleep=None) as client:
                client.query("INSERT {_key: 'p0', v: 0} INTO kv").fetch_all()
                head = client._call("repl_status")["last_lsn"]
            with ReproClient(port=node_a.port, sleep=None) as client:
                assert client._call("repl_wait", lsn=head, timeout=5.0)["reached"]
                result = client._call("promote")
                assert result["promoted"] is True
                assert client._call("repl_status")["role"] == "primary"
                # A promoted node accepts writes immediately.
                client.query("INSERT {_key: 'p1', v: 1} INTO kv").fetch_all()
            with ReproClient(port=node_b.port, sleep=None) as client:
                client._call("repoint", host="127.0.0.1", port=node_a.port)
                new_head = None
                with ReproClient(port=node_a.port, sleep=None) as a_client:
                    new_head = a_client._call("repl_status")["last_lsn"]
                waited = client._call("repl_wait", lsn=new_head, timeout=5.0)
                assert waited["reached"], waited
                rows = client.query(
                    "FOR d IN kv FILTER d._key == 'p1' RETURN d.v"
                ).fetch_all()
                assert rows == [1]
        finally:
            node_b.stop()
            node_a.stop()
            primary.stop()

    def test_promote_is_idempotent_on_a_primary(self):
        server = _server()
        try:
            with ReproClient(port=server.port, sleep=None) as client:
                result = client._call("promote")
                assert result["promoted"] is False
                assert result["role"] == "primary"
        finally:
            server.stop()

    def test_repoint_refused_on_primary(self):
        server = _server()
        try:
            with ReproClient(port=server.port, sleep=None) as client:
                with pytest.raises(ReplicationError, match="repoint refused"):
                    client._call("repoint", host="127.0.0.1", port=1)
        finally:
            server.stop()

    def test_router_fails_over_when_primary_dies(self):
        primary = _server(ack_replication=1, ack_timeout=5.0)
        replicas = [
            _server(replica_of=f"127.0.0.1:{primary.port}") for _ in range(2)
        ]
        router = ReplicaSet(
            ("127.0.0.1", primary.port),
            [("127.0.0.1", node.port) for node in replicas],
            retries=3,
            retry_max_elapsed=3.0,
        )
        try:
            _wait_subscribers(primary, 2)
            for index in range(5):
                router.query(
                    "UPSERT {_key: @k} INSERT {_key: @k, v: @v} "
                    "UPDATE {v: @v} INTO kv",
                    {"k": f"f{index}", "v": index},
                )
            primary.kill()
            # The next write rides through failover transparently.
            router.query(
                "UPSERT {_key: 'after'} INSERT {_key: 'after', v: 99} "
                "UPDATE {v: 99} INTO kv",
            )
            assert router.failovers == 1
            assert router.primary_address[1] in {n.port for n in replicas}
            rows = router.query(
                "FOR d IN kv RETURN d._key", consistency="strong"
            ).rows
            assert set(rows) >= {f"f{i}" for i in range(5)} | {"after"}
        finally:
            router.close()
            for node in replicas:
                if not node._kill:
                    node.stop()

    def test_in_flight_transaction_fails_loudly_on_failover(self):
        primary = _server()
        replica = _server(replica_of=f"127.0.0.1:{primary.port}")
        router = ReplicaSet(
            ("127.0.0.1", primary.port),
            [("127.0.0.1", replica.port)],
            retries=2,
            retry_max_elapsed=1.0,
        )
        try:
            _wait_subscribers(primary, 1)
            router.begin()
            router.query("INSERT {_key: 't0', v: 0} INTO kv")
            primary.kill()
            with pytest.raises(FailoverInProgressError):
                router.query("INSERT {_key: 't1', v: 1} INTO kv")
                router.commit()
        finally:
            router.close()
            if not replica._kill:
                replica.stop()
