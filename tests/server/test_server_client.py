"""Server + client integration: sessions, transactions, guardrails,
admission control, graceful drain, frame failpoints."""

import threading
import time

import pytest

from repro import MultiModelDB
from repro.cli import make_demo_db
from repro.client import ReproClient
from repro.errors import (
    ParseError,
    ProtocolError,
    ResourceExhaustedError,
    ServerOverloadedError,
    SessionStateError,
    UnknownCollectionError,
)
from repro.fault import registry as fault_registry
from repro.server import PROTOCOL_VERSION, ReproServer
from repro.storage.wal import replay_into


@pytest.fixture(scope="module")
def demo_server():
    db = make_demo_db(scale_factor=1)
    server = ReproServer(db, port=0)
    server.start_in_thread()
    yield server, db
    server.stop()


@pytest.fixture()
def demo_client(demo_server):
    server, _db = demo_server
    with ReproClient(port=server.port, sleep=None) as client:
        yield client


def _small_db():
    """A tiny database with a collection big enough for slow cross joins."""
    db = MultiModelDB()
    items = db.create_collection("items")
    for index in range(60):
        items.insert({"n": index})
    db.create_collection("sink")
    return db


SLOW_QUERY = "FOR a IN items FOR b IN items FOR c IN items RETURN a.n"


class TestHandshake:
    def test_hello_reports_version_and_protocol(self, demo_client):
        import repro

        info = demo_client.server_info
        assert info["server"] == "repro"
        assert info["version"] == repro.__version__
        assert info["protocol"] == PROTOCOL_VERSION
        assert demo_client.session_id >= 1
        assert demo_client.server_version == repro.__version__

    def test_sessions_get_distinct_ids(self, demo_server):
        server, _db = demo_server
        with ReproClient(port=server.port) as one:
            with ReproClient(port=server.port) as two:
                assert one.session_id != two.session_id

    def test_ping_and_info(self, demo_client):
        assert demo_client.ping() is True
        assert demo_client.info()["limits"]["max_sessions"] == 64


class TestQueries:
    def test_query_matches_embedded(self, demo_server, demo_client):
        _server, db = demo_server
        text = "FOR c IN customers FILTER c.credit_limit > @m SORT c.id RETURN c.name"
        bind = {"m": 5000}
        assert demo_client.query(text, bind).rows == db.query(text, bind).rows

    def test_bind_vars_and_stats(self, demo_client):
        result = demo_client.query(
            "FOR c IN customers FILTER c.id == @id RETURN c.name", {"id": 1}
        )
        assert len(result.rows) == 1
        assert "scanned" in result.stats
        assert result.stats["plan_cached"] in (True, False)

    def test_explain_over_the_wire(self, demo_client):
        plan = demo_client.explain("FOR c IN customers RETURN c")
        assert "Scan" in plan

    def test_analyze_over_the_wire(self, demo_client):
        result = demo_client.query("RETURN 1", analyze=True)
        assert result.analyzed is not None
        assert "Plan:" in result.analyzed

    def test_unknown_collection_code(self, demo_client):
        with pytest.raises(UnknownCollectionError) as info:
            demo_client.query("FOR x IN nothing_here RETURN x")
        assert info.value.code == "UNKNOWN_COLLECTION"

    def test_parse_error_code(self, demo_client):
        with pytest.raises(ParseError) as info:
            demo_client.query("FOR broken FILTER")
        assert info.value.code == "PARSE"


class TestUnknownOp:
    @pytest.mark.parametrize("op", ["set_consistency", "no_such_op"])
    def test_typed_error_and_the_session_keeps_serving(self, demo_client, op):
        session = demo_client.session_id
        with pytest.raises(ProtocolError) as info:
            demo_client._call(op, name="customers", level="eventual")
        assert info.value.code == "SERVER_PROTOCOL"
        assert f"unknown op {op!r}" in str(info.value)
        # An error answer leaves the stream in step: no re-dial, the
        # same session serves the next request.
        assert demo_client.query("RETURN 1").rows == [1]
        assert demo_client.session_id == session


class TestTransactions:
    def test_begin_commit_is_visible(self, demo_server, demo_client):
        _server, db = demo_server
        demo_client.begin()
        demo_client.query(
            "INSERT {Order_no: @no, Orderlines: []} INTO orders", {"no": "txn-c1"}
        )
        demo_client.commit()
        rows = db.query(
            "FOR o IN orders FILTER o.Order_no == 'txn-c1' RETURN o.Order_no"
        ).rows
        assert rows == ["txn-c1"]

    def test_abort_rolls_back(self, demo_server, demo_client):
        _server, db = demo_server
        demo_client.begin()
        demo_client.query(
            "INSERT {Order_no: @no, Orderlines: []} INTO orders", {"no": "txn-a1"}
        )
        demo_client.abort()
        rows = db.query(
            "FOR o IN orders FILTER o.Order_no == 'txn-a1' RETURN o"
        ).rows
        assert rows == []

    def test_double_begin_rejected(self, demo_client):
        demo_client.begin()
        try:
            with pytest.raises(SessionStateError) as info:
                demo_client.begin()
            assert info.value.code == "SERVER_SESSION_STATE"
        finally:
            demo_client.abort()

    def test_commit_without_begin_rejected(self, demo_client):
        with pytest.raises(SessionStateError):
            demo_client.commit()

    def test_disconnect_mid_txn_aborts(self, demo_server):
        server, db = demo_server
        client = ReproClient(port=server.port)
        client.connect()
        client.begin()
        client.query(
            "INSERT {Order_no: 'orphan-1', Orderlines: []} INTO orders"
        )
        client.close()  # vanish without commit
        deadline = time.time() + 5
        while time.time() < deadline:
            if not db.query(
                "FOR o IN orders FILTER o.Order_no == 'orphan-1' RETURN o"
            ).rows:
                break
            time.sleep(0.02)
        rows = db.query(
            "FOR o IN orders FILTER o.Order_no == 'orphan-1' RETURN o"
        ).rows
        assert rows == []


class TestGuardrails:
    def test_session_override_enforced_server_side(self, demo_client):
        demo_client.set_limits(max_rows=2)
        try:
            with pytest.raises(ResourceExhaustedError) as info:
                demo_client.query("FOR c IN customers RETURN c")
            assert info.value.code == "RESOURCE_EXHAUSTED"
        finally:
            demo_client.set_limits(max_rows=None)

    def test_per_request_limit(self, demo_client):
        with pytest.raises(ResourceExhaustedError):
            demo_client.query("FOR c IN customers RETURN c", max_rows=1)

    def test_host_guardrail_caps_remote_requests(self):
        db = _small_db()
        db.guardrails.max_rows = 5
        with ReproServer(db, port=0) as server:
            with ReproClient(port=server.port) as client:
                # Asking for a bigger budget must not escape the host cap.
                with pytest.raises(ResourceExhaustedError):
                    client.query("FOR i IN items RETURN i", max_rows=1000)
                assert len(client.query("FOR i IN items LIMIT 3 RETURN i").rows) == 3


class TestAdmissionControl:
    def test_session_limit_rejects_with_typed_error(self):
        db = _small_db()
        with ReproServer(db, port=0, max_sessions=1) as server:
            with ReproClient(port=server.port):
                blocked = ReproClient(port=server.port, sleep=None)
                with pytest.raises(ServerOverloadedError) as info:
                    blocked.connect()
                assert info.value.code == "SERVER_OVERLOADED"

    def test_inflight_budget_rejects_not_hangs(self):
        db = _small_db()
        # One chunk holds the whole result: the query_open is one long
        # engine call that occupies the single worker for the whole query,
        # so the watcher's rejection below cannot race a chunk gap.
        with ReproServer(
            db, port=0, max_inflight=1, queue_depth=0,
            cursor_chunk_rows=60 ** 3,
        ) as server:
            slow_result: dict = {}

            def slow():
                with ReproClient(port=server.port) as c:
                    slow_result["rows"] = len(c.query(SLOW_QUERY).rows)

            watcher = ReproClient(port=server.port, auto_reconnect=False)
            watcher.connect()
            thread = threading.Thread(target=slow)
            thread.start()
            try:
                deadline = time.time() + 10
                while time.time() < deadline:
                    if watcher.stats()["inflight"] >= 1:
                        break
                    time.sleep(0.005)
                assert watcher.stats()["inflight"] >= 1
                started = time.time()
                with pytest.raises(ServerOverloadedError) as info:
                    watcher.query("RETURN 1")
                assert time.time() - started < 2  # immediate, not queued
                assert "back off" in str(info.value)
            finally:
                thread.join(timeout=30)
                watcher.close()
            assert slow_result["rows"] == 60 ** 3


class TestGracefulShutdown:
    def test_drain_finishes_inflight_and_preserves_commits(self, tmp_path):
        wal_path = str(tmp_path / "server.wal")
        db = _small_db()
        db.attach_wal(wal_path)
        server = ReproServer(db, port=0)
        server.start_in_thread()
        outcome: dict = {}

        def writer():
            with ReproClient(port=server.port) as c:
                result = c.query(
                    "FOR a IN items FOR b IN items "
                    "INSERT {pair: [a.n, b.n]} INTO sink"
                )
                outcome["stats"] = result.stats

        watcher = ReproClient(port=server.port, auto_reconnect=False)
        watcher.connect()
        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.time() + 10
        while time.time() < deadline:
            if watcher.stats()["inflight"] >= 1:
                break
            time.sleep(0.005)
        assert watcher.stats()["inflight"] >= 1
        server.stop()  # graceful: drains the in-flight write first
        thread.join(timeout=30)
        db.close()
        # The client saw a success — so recovery must reproduce every row.
        assert "stats" in outcome
        recovered = MultiModelDB()
        recovered.create_collection("items")
        recovered.create_collection("sink")
        recovered.recover(wal_path)
        count = len(recovered.query("FOR s IN sink RETURN 1").rows)
        assert count == 60 * 60

    def test_stopped_server_refuses_connections(self):
        db = _small_db()
        server = ReproServer(db, port=0)
        server.start_in_thread()
        port = server.port
        with ReproClient(port=port) as client:
            assert client.ping()
        server.stop()
        refused = ReproClient(port=port, sleep=None)
        with pytest.raises((ConnectionError, OSError, Exception)):
            refused.connect()


class TestFrameFailpoints:
    def test_read_failpoint_drops_connection_and_client_reconnects(
        self, demo_server
    ):
        server, _db = demo_server
        fp = fault_registry.FAILPOINTS.get("server.frame_read")
        with ReproClient(port=server.port, sleep=None) as client:
            first_session = client.session_id
            # The server is already parked inside its next frame read, so a
            # `once` trigger fires when it re-enters the read *after* the
            # next request — i.e. the first query still succeeds, then the
            # connection is severed.
            fault_registry.arm("server.frame_read", "once", "error")
            try:
                assert client.query("RETURN 41").rows == [41]
                rows = client.query("RETURN 42").rows
            finally:
                fault_registry.disarm("server.frame_read")
            assert rows == [42]
            assert fp.fires_count >= 1
            assert client.session_id != first_session  # new session after drop

    def test_write_failpoint_drops_response_and_client_retries(
        self, demo_server
    ):
        server, _db = demo_server
        with ReproClient(port=server.port, sleep=None) as client:
            fault_registry.arm("server.frame_write", "once", "error")
            try:
                rows = client.query("RETURN 7").rows
            finally:
                fault_registry.disarm("server.frame_write")
            assert rows == [7]

    def test_no_reconnect_inside_transaction(self, demo_server):
        server, _db = demo_server
        with ReproClient(port=server.port, sleep=None) as client:
            client.begin()
            fault_registry.arm("server.frame_read", "once", "error")
            try:
                # Depending on whether the server was already parked inside
                # its pending read when we armed, the drop hits the first or
                # the second query — either way a transaction-holding client
                # must surface the transport error, not silently reconnect.
                with pytest.raises((ConnectionError, OSError)):
                    client.query("RETURN 1")
                    client.query("RETURN 2")
            finally:
                fault_registry.disarm("server.frame_read")
            assert not client.in_txn  # state cleared, not silently resumed


class TestServerObservability:
    def test_server_metrics_populate(self, demo_server, demo_client):
        from repro.obs import metrics

        demo_client.ping()
        assert metrics.REGISTRY.total("server_connections_total") >= 1
        assert metrics.REGISTRY.total("server_requests_total") >= 1
        assert metrics.REGISTRY.total("server_bytes_read_total") > 0
        assert metrics.REGISTRY.total("server_bytes_written_total") > 0

    def test_stats_lists_sessions(self, demo_client):
        stats = demo_client.stats()
        assert stats["draining"] is False
        sessions = {entry["session"] for entry in stats["sessions"]}
        assert demo_client.session_id in sessions
