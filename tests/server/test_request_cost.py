"""What a wire request's fixed cost may not change: the bytes of a frame,
the admission rules, and the metrics a session emits."""

import datetime
import json
import threading
import time

import pytest

from repro import MultiModelDB
from repro.client import ReproClient
from repro.errors import ProtocolError, ReproError, ServerOverloadedError
from repro.obs import metrics
from repro.server import ReproServer, protocol

#: Payloads a frame carries: nested rows, dates, bytes and set reprs (the
#: ``default=str`` fallback), non-ASCII text, floats, and keys that are
#: not strings.
CORPUS = [
    {"id": 1, "ok": True, "result": {"rows": [{"a": [1, 2.5, None, True]}]}},
    {"rows": [{"when": datetime.date(2024, 2, 29)},
              {"at": datetime.datetime(2024, 2, 29, 12, 30, 1, 5)}]},
    {"raw": b"\x00\xffbytes", "tags": {3, 1}, "nested": {"deep": {"x": [[[]]]}}},
    {"text": "Ünïcödé — 多模型 ✓ \U0001f600", "quote": 'a"b\\c\n\t'},
    {"floats": [0.1, 1e300, -0.0, 1.5e-7, 123456789.123456789, 2 ** 60]},
    {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
    {1: "int key", 2.5: "float key", None: "null key", True: "bool key"},
    {"stats": {"scanned": 0, "indexes_used": [], "plan_cached": True,
               "server_phases": {"queue": 0.012, "execute": 1.628}}},
    {"empty": {}, "list": [], "string": ""},
]


@pytest.mark.parametrize("payload", CORPUS, ids=range(len(CORPUS)))
def test_encode_frame_is_byte_identical_to_json_dumps(payload):
    body = json.dumps(payload, default=str, separators=(",", ":")).encode("utf-8")
    assert protocol.encode_frame(payload) == len(body).to_bytes(4, "big") + body


@pytest.mark.parametrize("body,expected", [
    (b'{"id":1,"op":"ping"}', {"id": 1, "op": "ping"}),
    (b' \n{"id":1} \t', {"id": 1}),
    ('{"t":"多"}'.encode("utf-8"), {"t": "多"}),
])
def test_decode_payload_reads_what_json_loads_reads(body, expected):
    assert protocol.decode_payload(body) == expected


@pytest.mark.parametrize("body", [
    b"", b"   ", b'{"id":1} x', b'{"id":', b"[1, 2]", b"\xff\xfe{}", b"null",
])
def test_decode_payload_refuses_what_json_loads_refuses(body):
    with pytest.raises(ProtocolError):
        protocol.decode_payload(body)


def _phase_counts():
    return {phase: metrics.histogram("server_request_phase_seconds", phase=phase).count
            for phase in ("queue", "execute")}


def test_admission_queues_up_to_the_budget_then_refuses():
    """One slot and one queue place: a second call waits, a third is
    refused, and the waiting call runs once the slot frees."""
    server = ReproServer(MultiModelDB(), port=0, max_inflight=1, queue_depth=1)
    gate = threading.Event()
    phases = [{}, {}]
    results = []

    def call(index, work):
        results.append(server._run_engine(work, phases[index]))

    before = _phase_counts()
    holder = threading.Thread(target=call, args=(0, lambda: gate.wait(10) and "held"))
    holder.start()
    deadline = time.monotonic() + 10
    while server.inflight < 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    waiter = threading.Thread(target=call, args=(1, lambda: "queued"))
    waiter.start()
    while server.inflight < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert server.inflight == 2
    with pytest.raises(ServerOverloadedError, match="budget 2"):
        server._run_engine(lambda: "refused", {})
    time.sleep(0.02)
    gate.set()
    holder.join(10)
    waiter.join(10)
    assert not holder.is_alive() and not waiter.is_alive()
    assert sorted(results) == ["held", "queued"]
    assert server.inflight == 0
    assert phases[1]["queue"] >= 0.02  # it waited for the slot
    assert all(set(p) == {"queue", "execute"} for p in phases)
    after = _phase_counts()
    assert {phase: after[phase] - before[phase] for phase in after} == {
        "queue": 2, "execute": 2}


def test_concurrent_sessions_are_refused_past_the_budget_and_measured():
    """Over the wire: with the one slot held and the one queue place taken
    by a session, another session is refused, and the queued one runs."""
    before = _phase_counts()
    gate = threading.Event()
    answers: list = []
    with ReproServer(MultiModelDB(), port=0, max_inflight=1,
                     queue_depth=1) as server:
        holder = threading.Thread(
            target=server._run_engine, args=(lambda: gate.wait(10), {}))
        holder.start()

        def queued_session():
            with ReproClient(port=server.port, auto_reconnect=False) as client:
                answers.append(client.query("RETURN 1", stream=False))

        queued = threading.Thread(target=queued_session)
        queued.start()
        deadline = time.monotonic() + 10
        while server.inflight < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert server.inflight == 2
        with ReproClient(port=server.port, auto_reconnect=False) as refused:
            with pytest.raises(ServerOverloadedError) as info:
                refused.query("RETURN 2", stream=False)
            assert info.value.code == "SERVER_OVERLOADED"
        gate.set()
        holder.join(10)
        queued.join(10)
        assert not holder.is_alive() and not queued.is_alive()
        assert server.inflight == 0
    [answer] = answers
    assert answer.rows == [1]
    assert set(answer.stats["server_phases"]) == {"queue", "execute"}
    after = _phase_counts()
    assert {phase: after[phase] - before[phase] for phase in after} == {
        "queue": 2, "execute": 2}


#: The counter and histogram series the scripted session below touches,
#: as the server emitted them before its handles were bound once.
SESSION_SERIES = [
    ("plan_cache_hits_total", {}),
    ("plan_cache_misses_total", {}),
    ("queries_total", {}),
    ("query_cursors_total", {}),
    ("query_errors_total", {}),
    ("query_phase_seconds", {"phase": "execute"}),
    ("query_phase_seconds", {"phase": "optimize"}),
    ("query_phase_seconds", {"phase": "parse"}),
    ("query_rows_returned_total", {}),
    ("query_seconds", {}),
    ("server_bytes_read_total", {}),
    ("server_bytes_written_total", {}),
    ("server_connections_total", {}),
    ("server_cursors_opened_total", {}),
    ("server_errors_total", {"code": "PARSE"}),
    ("server_request_phase_seconds", {"phase": "execute"}),
    ("server_request_phase_seconds", {"phase": "queue"}),
    ("server_request_phase_seconds", {"phase": "serialize"}),
    ("server_request_seconds", {}),
    ("server_requests_total", {"op": "abort"}),
    ("server_requests_total", {"op": "begin"}),
    ("server_requests_total", {"op": "commit"}),
    ("server_requests_total", {"op": "cursor_close"}),
    ("server_requests_total", {"op": "cursor_next"}),
    ("server_requests_total", {"op": "explain"}),
    ("server_requests_total", {"op": "info"}),
    ("server_requests_total", {"op": "ping"}),
    ("server_requests_total", {"op": "query"}),
    ("server_requests_total", {"op": "query_open"}),
    ("server_requests_total", {"op": "set"}),
    ("server_requests_total", {"op": "stats"}),
]


def _readings():
    return {
        (metric.name, metric.labels):
            metric.count if metric.kind == "histogram" else metric.value
        for metric in metrics.REGISTRY.collect()
        if metric.kind != "gauge"
    }


def test_a_scripted_session_emits_the_same_series():
    db = MultiModelDB()
    kv = db.create_collection("kv")
    for index in range(12):
        kv.insert({"_key": str(index), "v": index})
    before = _readings()
    with ReproServer(db, port=0) as server:
        with ReproClient(port=server.port) as client:
            client.ping()
            client.info()
            client.stats()
            client.query("FOR d IN kv FILTER d._key == @k RETURN d.v",
                         {"k": "3"}, stream=False)
            client.query("FOR d IN kv RETURN d.v", chunk_rows=5).fetch_all()
            client.query("FOR d IN kv RETURN d.v", chunk_rows=5).close()
            client.explain("FOR d IN kv RETURN d")
            client.begin()
            client.query("INSERT {_key: 'x', v: 1} INTO kv").fetch_all()
            client.commit()
            client.begin()
            client.abort()
            client.set_limits(timeout=5.0)
            with pytest.raises(ReproError):
                client.query("FOR d IN", stream=False)
    touched = sorted(
        (name, labels)
        for (name, labels), value in _readings().items()
        if value != before.get((name, labels), 0)
        and name.startswith(("server_", "query_", "queries_", "plan_cache"))
    )
    assert [(name, dict(labels)) for name, labels in touched] == SESSION_SERIES
    gauges = {metric.name for metric in metrics.REGISTRY.collect()
              if metric.kind == "gauge"}
    assert {"server_inflight_queries", "server_sessions_active"} <= gauges
