"""The engine log keeps a bounded tail, so a replica that joins (or comes
back) after the primary's floor has passed its watermark cannot be caught up
by streaming: an empty one bootstraps from a snapshot of the row view, one
that holds state is refused with a typed error and then loads the snapshot
as the difference to its state.  A subscriber that is connected and merely
lags holds the floor where it is; one that stops reading is dropped."""

import socket
import time

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.client import ReproClient
from repro.core import context as context_module
from repro.errors import ReplicaBelowFloorError
from repro.obs import events as obs_events
from repro.server import ReproServer, protocol

_TAIL = 32


@pytest.fixture(autouse=True)
def short_tail(monkeypatch):
    """A tail of 32 entries: the floor moves after a few dozen writes."""
    monkeypatch.setattr(context_module, "_LOG_TAIL", _TAIL)


def _primary_db() -> MultiModelDB:
    db = MultiModelDB()
    db.create_collection("docs")
    db.create_bucket("cache")
    db.create_table(TableSchema("people", [
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("name", ColumnType.STRING),
    ], primary_key="id"))
    return db


def _churn(db: MultiModelDB, rounds: int = 60) -> None:
    """History that differs from state: inserts, overwrites and deletes,
    enough of them to push the log's floor past LSN 0."""
    docs, cache, people = db.collection("docs"), db.bucket("cache"), db.table("people")
    for i in range(rounds):
        docs.insert({"_key": f"d{i}", "v": i})
        cache.put(f"k{i % 7}", i)
        people.insert({"id": i, "name": f"p{i}"})
        if i % 3 == 0:
            docs.delete(f"d{i}")
    assert db.context.log.floor_lsn > 0


def _image(db: MultiModelDB) -> dict:
    rows = db.context.rows
    return {ns: dict(rows.scan(ns)) for ns in rows.namespaces()}


def _server(db, **kwargs) -> ReproServer:
    server = ReproServer(
        db, port=0, ship_interval=0.01, heartbeat_interval=0.1, **kwargs
    )
    server.start_in_thread()
    return server


def _wait(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_late_replica_bootstraps_from_a_snapshot_then_follows_and_promotes():
    db = _primary_db()
    _churn(db)
    primary = _server(db)
    replica = _server(MultiModelDB(), replica_of=f"127.0.0.1:{primary.port}")
    try:
        head = db.context.log.last_lsn
        with ReproClient(port=replica.port, sleep=None) as client:
            assert client._call("repl_wait", lsn=head, timeout=5.0)["reached"]
            # The row image, not the history: what the primary holds now.
            assert _image(replica.db) == _image(db)
            status = client._call("repl_status")
            assert status["last_lsn"] == head == status["applied_lsn"]
            assert status["diverged"] is False
            # Nothing below the image's LSN was replayed into the replica.
            assert replica.db.context.log.floor_lsn == head
            loaded = obs_events.tail(kind="replica_snapshot_loaded")[-1]
            assert loaded["lsn"] == head
            assert loaded["rows"] == sum(len(r) for r in _image(db).values())

            # New writes stream on top of the image, on the primary's LSNs.
            db.collection("docs").insert({"_key": "late", "v": -1})
            db.collection("docs").delete("d1")
            db.bucket("cache").put("k0", "after")
            head = db.context.log.last_lsn
            assert client._call("repl_wait", lsn=head, timeout=5.0)["reached"]
            assert _image(replica.db) == _image(db)
            status = client._call("repl_status")
            assert status["last_lsn"] == head and status["diverged"] is False

            # LSN-aligned means promotable: its log continues the primary's.
            assert client._call("promote")["promoted"] is True
            client.query("INSERT {_key: 'mine', v: 0} INTO docs").fetch_all()
            assert replica.db.context.log.last_lsn > head
            assert replica.db.collection("docs").get("mine")["v"] == 0
    finally:
        replica.stop()
        primary.stop()


def test_small_primary_still_streams_from_lsn_zero():
    """Below the tail nothing was dropped, so an empty replica replays the
    history as before — no snapshot."""
    db = _primary_db()
    db.collection("docs").insert({"_key": "a", "v": 1})
    assert db.context.log.floor_lsn == 0
    primary = _server(db)
    replica = _server(MultiModelDB(), replica_of=f"127.0.0.1:{primary.port}")
    obs_events.clear()
    try:
        with ReproClient(port=replica.port, sleep=None) as client:
            head = db.context.log.last_lsn
            assert client._call("repl_wait", lsn=head, timeout=5.0)["reached"]
        assert _image(replica.db) == _image(db)
        assert len(replica.db.context.log) == head
        assert obs_events.tail(kind="replica_snapshot_loaded") == []
    finally:
        replica.stop()
        primary.stop()


def test_stateful_replica_below_the_floor_is_refused_then_resyncs_from_a_snapshot():
    db = _primary_db()
    _churn(db)
    primary = _server(db)
    # A replica that followed the primary once: same catalog, rows the
    # primary has since deleted (d0), overwritten (k0) and never had, and
    # a watermark the primary's log no longer reaches back to.
    stale = _primary_db()
    stale.collection("docs").insert({"_key": "d0", "v": 0})
    stale.collection("docs").insert({"_key": "d1", "v": 1})
    stale.bucket("cache").put("k0", "old")
    stale.table("people").insert({"id": 10_000, "name": "nobody"})
    watermark = stale.context.log.last_lsn
    floor = db.context.log.floor_lsn
    assert 0 < watermark < floor
    obs_events.clear()
    replica = _server(stale, replica_of=f"127.0.0.1:{primary.port}")
    try:
        head = db.context.log.last_lsn
        with ReproClient(port=replica.port, sleep=None) as client:
            assert client._call("repl_wait", lsn=head, timeout=5.0)["reached"]
            # Refused once, typed and evented on both sides …
            (refusal,) = obs_events.tail(kind="wal_subscribe_refused")
            assert (refusal["from_lsn"], refusal["floor_lsn"]) == (watermark, floor)
            (seen,) = obs_events.tail(kind="replica_below_floor")
            assert (seen["from_lsn"], seen["floor_lsn"]) == (watermark, floor)
            assert replica._puller.describe()["resyncs"] == 1
            # … then brought to the primary's image by what differs only.
            (loaded,) = obs_events.tail(kind="replica_snapshot_loaded")
            assert loaded["resync"] is True and loaded["lsn"] == head
            rows = sum(len(r) for r in _image(db).values())
            assert loaded["rows"] == rows - 1 + 2  # d1 is as it was; 2 deletes
            assert _image(stale) == _image(db)
            assert stale.collection("docs").get("d0") is None
            assert stale.context.log.floor_lsn == head

            # And it follows from there, on the primary's LSNs.
            db.collection("docs").insert({"_key": "late", "v": -1})
            head = db.context.log.last_lsn
            assert client._call("repl_wait", lsn=head, timeout=5.0)["reached"]
            assert _image(stale) == _image(db)
            status = client._call("repl_status")
            assert status["last_lsn"] == head and status["diverged"] is False
            assert replica._puller.describe()["resyncs"] == 1

        with ReproClient(port=primary.port, sleep=None) as client:
            with pytest.raises(ReplicaBelowFloorError) as caught:
                client._call("wal_subscribe", from_lsn=watermark)
            assert caught.value.code == "REPLICA_BELOW_FLOOR"
            assert caught.value.floor_lsn == floor
            assert caught.value.from_lsn == watermark
    finally:
        replica.stop()
        primary.stop()


def test_a_subscriber_that_lags_under_write_load_keeps_its_place():
    """The log trims behind its live subscribers, not past them: a replica
    that is many tails behind is streamed everything, never refused."""
    db = _primary_db()
    _churn(db)
    # Between two looks at the log the ship loop sleeps for longer than the
    # burst below takes: the subscriber falls a whole burst behind.
    primary = ReproServer(db, port=0, ship_interval=0.4, heartbeat_interval=0.1)
    primary.start_in_thread()
    replica = _server(MultiModelDB(), replica_of=f"127.0.0.1:{primary.port}")
    try:
        with ReproClient(port=replica.port, sleep=None) as client:
            head = db.context.log.last_lsn
            assert client._call("repl_wait", lsn=head, timeout=5.0)["reached"]
            obs_events.clear()
            docs = db.collection("docs")
            held = 0
            for burst in range(3):
                for i in range(20 * _TAIL):
                    docs.insert({"_key": f"b{burst}-{i}", "v": i})
                held = max(held, len(db.context.log))
                head = db.context.log.last_lsn
                assert client._call("repl_wait", lsn=head, timeout=10.0)["reached"]
            # The log held on to more than its tail for the subscriber …
            assert held > 2 * _TAIL
            assert _image(replica.db) == _image(db)
            status = client._call("repl_status")
            assert status["last_lsn"] == head and status["diverged"] is False
            assert replica._puller.describe()["resyncs"] == 0
            for kind in ("wal_subscriber_below_floor", "wal_subscribe_refused",
                         "replica_below_floor", "replica_snapshot_loaded"):
                assert obs_events.tail(kind=kind) == [], kind
            # … and lets go once it has caught up.
            for i in range(3 * _TAIL):
                docs.insert({"_key": f"after-{i}", "v": i})
                time.sleep(0.001)
            head = db.context.log.last_lsn
            assert client._call("repl_wait", lsn=head, timeout=10.0)["reached"]
            docs.insert({"_key": "last", "v": 0})
            assert len(db.context.log) <= 2 * _TAIL + 2
    finally:
        replica.stop()
        primary.stop()


def test_a_subscriber_that_stops_reading_is_dropped_and_unpins_the_log():
    """A ship frame that cannot be sent within the replica's own heartbeat
    timeout (1 s here) drops the subscriber, so the log trims past it."""
    db = _primary_db()
    primary = _server(db)
    sock = socket.socket()
    # A small receive window: the primary's send buffer fills sooner.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(5)
    sock.connect(("127.0.0.1", primary.port))
    try:
        assert "hello" in protocol.read_frame(sock)
        protocol.write_frame(sock, protocol.request(
            1, "wal_subscribe", from_lsn=db.context.log.last_lsn
        ))
        # ... and never read again.
        assert _wait(lambda: primary._hub.subscriber_count == 1)
        docs, blob = db.collection("docs"), "x" * 8192
        for i in range(1000):  # 8 MB of records: more than both buffers hold
            docs.insert({"_key": f"s{i}", "blob": blob})
        assert _wait(lambda: primary._hub.subscriber_count == 0, timeout=15)
        (stalled,) = obs_events.tail(kind="wal_subscriber_stalled")
        assert stalled["send_timeout"] == 1.0
        for i in range(3 * _TAIL):
            docs.insert({"_key": f"after-{i}", "v": i})
        assert db.context.log.floor_lsn > stalled["shipped_lsn"]
        assert len(db.context.log) <= 2 * _TAIL
    finally:
        sock.close()
        primary.stop()
