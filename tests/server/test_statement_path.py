"""One statement path on the wire: every query is a ``query_open``.

The eager ``query`` op is gone (protocol 2): a result that fits one chunk
arrives whole in the ``query_open`` reply, EXPLAIN ANALYZE included, whose
reply carries the annotated plan.  Malformed request parameters are
refused as ``SERVER_PROTOCOL`` naming the parameter, and the session goes
on serving.
"""

import socket
import threading

import pytest

from repro import MultiModelDB
from repro.client import ReproClient
from repro.errors import ProtocolError
from repro.server import ReproServer, protocol
from tests.query.test_query_cursor import operator_lines

SCAN = "FOR i IN items FILTER i.n >= 5 SORT i.n RETURN i.n"


def _db():
    db = MultiModelDB()
    items = db.create_collection("items")
    for index in range(60):
        items.insert({"_key": str(index), "n": index})
    return db


@pytest.fixture()
def server():
    with ReproServer(_db(), port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ReproClient(port=server.port, sleep=None) as c:
        yield c


def test_the_protocol_is_version_2(client):
    assert protocol.PROTOCOL_VERSION == 2
    assert client.server_info["protocol"] == 2


@pytest.mark.parametrize("how", ["prefix", "analyze=True"])
def test_explain_analyze_larger_than_a_chunk(server, client, how):
    embedded = server.db.query("EXPLAIN ANALYZE " + SCAN)
    if how == "prefix":
        cursor = client.query("EXPLAIN ANALYZE " + SCAN, chunk_rows=7)
    else:
        cursor = client.query(SCAN, analyze=True, chunk_rows=7)
    # The first reply carries the plan; the rows still stream in chunks.
    assert cursor.analyzed is not None
    assert not cursor.exhausted
    assert cursor.rows == embedded.rows == list(range(5, 60))
    assert operator_lines(cursor.analyzed) == operator_lines(embedded.analyzed)
    assert "\nServer: queue-wait " in cursor.analyzed
    assert f"(session {client.session_id}, request " in cursor.analyzed


def test_a_plain_query_carries_no_plan(client):
    cursor = client.query(SCAN, chunk_rows=7)
    assert cursor.rows == list(range(5, 60))
    assert cursor.analyzed is None


def _raw_session(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    hello = protocol.read_frame(sock)["hello"]
    return sock, hello


def test_a_protocol_1_query_frame_is_refused_and_the_session_goes_on(server):
    sock, hello = _raw_session(server)
    try:
        assert hello["protocol"] == 2
        protocol.write_frame(sock, protocol.request(1, "query", text="RETURN 1"))
        answer = protocol.read_frame(sock)
        assert answer["ok"] is False
        assert answer["error"]["code"] == "SERVER_PROTOCOL"
        assert "'query'" in answer["error"]["message"]
        protocol.write_frame(
            sock, protocol.request(2, "query_open", text="RETURN 1")
        )
        answer = protocol.read_frame(sock)
        assert answer["ok"] is True
        assert answer["result"]["rows"] == [1]
        assert answer["result"]["has_more"] is False
    finally:
        sock.close()


def test_a_protocol_mismatched_hello_is_refused():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def greet():
        conn, _peer = listener.accept()
        with conn:
            protocol.write_frame(
                conn, {"hello": {"server": "repro", "protocol": 1, "session": 1}}
            )
            conn.recv(1)  # hold the socket until the client hangs up

    thread = threading.Thread(target=greet, daemon=True)
    thread.start()
    client = ReproClient(port=listener.getsockname()[1], auto_reconnect=False)
    try:
        with pytest.raises(ProtocolError, match="protocol mismatch"):
            client.connect()
        assert not client.connected
        client.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
    finally:
        listener.close()


_OPEN = {"text": "RETURN 1"}

MALFORMED = [
    ("query_open", {**_OPEN, "chunk_rows": "x"}, "chunk_rows"),
    ("query_open", {**_OPEN, "batch_size": "x"}, "batch_size"),
    ("query_open", {**_OPEN, "batch_size": [1]}, "batch_size"),
    ("query_open", {**_OPEN, "timeout": "x"}, "timeout"),
    ("query_open", {**_OPEN, "max_rows": "x"}, "max_rows"),
    ("query_open", {**_OPEN, "max_rows": True}, "max_rows"),
    ("query_open", {**_OPEN, "analyze": "yes"}, "analyze"),
    ("query_open", {**_OPEN, "shard_map_version": "x"}, "shard_map_version"),
    ("set", {"timeout": "x"}, "timeout"),
    ("set", {"max_rows": 1.5}, "max_rows"),
    ("cursor_next", {"cursor": True}, "cursor"),
    ("cursor_close", {"cursor": True}, "cursor"),
]


@pytest.mark.parametrize(
    "op,params,name", MALFORMED, ids=[f"{op}-{name}" for op, _p, name in MALFORMED]
)
def test_a_malformed_parameter_is_a_typed_refusal(client, op, params, name):
    with pytest.raises(ProtocolError) as info:
        client._call(op, **params)
    assert f"'{name}'" in str(info.value)
    assert client.query("RETURN 2").rows == [2]


def test_a_malformed_limit_is_refused_under_a_host_guardrail():
    db = _db()
    db.guardrails.timeout = 5.0
    db.guardrails.max_rows = 100
    with ReproServer(db, port=0) as server:
        with ReproClient(port=server.port, sleep=None) as client:
            for name in ("timeout", "max_rows"):
                with pytest.raises(ProtocolError, match=f"'{name}'"):
                    client._call("query_open", text="RETURN 1", **{name: "x"})
            assert client.query("RETURN 3", timeout=1.0, max_rows=10).rows == [3]


def test_well_formed_parameters_still_serve(client):
    assert client.set_limits(timeout=2, max_rows=50) == {
        "timeout": 2.0, "max_rows": 50,
    }
    cursor = client.query(SCAN, timeout=1.5, max_rows=100, batch_size=3,
                          chunk_rows=10)
    assert cursor.rows == list(range(5, 60))
