"""Streaming result cursors over the wire: query_open/cursor_next/
cursor_close round trips, per-session cursor caps, idle reaping, graceful
drain closing open cursors, and chunked frames for results bigger than a
single wire frame."""

import json
import threading
import time

import pytest

from repro import MultiModelDB
from repro.client import ReproClient, ResultCursor
from repro.errors import (
    CursorLimitError,
    CursorNotFoundError,
    FunctionError,
    ServerShutdownError,
)
from repro.fault import registry as fault_registry
from repro.obs import metrics
from repro.server import ReproServer
from repro.server import protocol


def _scan_db(rows: int = 500, pad: int = 0):
    db = MultiModelDB()
    items = db.create_collection("items")
    filler = "x" * pad
    for index in range(rows):
        items.insert({"_key": str(index), "n": index, "pad": filler})
    return db


SCAN = "FOR i IN items SORT i.n RETURN i.n"


@pytest.fixture()
def server():
    db = _scan_db()
    with ReproServer(db, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ReproClient(port=server.port, sleep=None) as c:
        yield c


def _only_session(server):
    (session, _writer) = next(iter(server._sessions.values()))
    return session


class TestStreamingRoundTrip:
    def test_streamed_rows_match_embedded(self, server, client):
        embedded = server.db.query(SCAN).rows
        streamed = client.query(SCAN, chunk_rows=7)
        assert isinstance(streamed, ResultCursor)
        assert streamed.rows == embedded

    def test_iteration_is_incremental_and_ordered(self, client):
        cursor = client.query(SCAN, chunk_rows=10)
        seen = []
        for value in cursor:
            seen.append(value)
            if len(seen) == 15:
                # Mid-stream: only a couple of chunks fetched so far.
                assert not cursor.exhausted
        assert seen == list(range(500))
        assert cursor.exhausted

    def test_small_result_opens_no_server_cursor(self, server, client):
        result = client.query("FOR i IN items LIMIT 3 RETURN i.n")
        assert len(result.rows) == 3
        assert _only_session(server).describe()["open_cursors"] == 0

    def test_first_leaves_cursor_open_and_close_releases_it(
        self, server, client
    ):
        cursor = client.query(SCAN, chunk_rows=5)
        assert cursor.first() == 0
        assert not cursor.exhausted
        session = _only_session(server)
        assert session.describe()["open_cursors"] == 1
        cursor.close()
        assert session.describe()["open_cursors"] == 0
        # Closing again is a no-op, not an error.
        cursor.close()

    def test_stats_arrive_with_every_chunk(self, client):
        cursor = client.query(SCAN, chunk_rows=50)
        cursor.fetch_all()
        assert cursor.stats["scanned"] >= 500

    def test_a_result_of_whole_chunks_takes_no_empty_fetch(self, client):
        """300 rows in 100-row chunks: the open and two fetches, the
        second of which tells the client the stream has ended."""
        cursor = client.query(
            "FOR i IN items FILTER i.n < 300 SORT i.n RETURN i.n", chunk_rows=100
        )
        assert cursor.rows == list(range(300))
        assert cursor.stats["cursor_fetches"] == 2

    def test_an_error_after_a_full_chunk_reaches_the_client_after_its_rows(self):
        db = MultiModelDB()
        docs = db.create_collection("docs")
        for value in range(10):
            docs.insert({"x": value})
        docs.insert({"x": "ten"})
        with ReproServer(db, port=0) as srv:
            with ReproClient(port=srv.port, sleep=None) as c:
                cursor = c.query(
                    "FOR d IN docs RETURN ABS(d.x)", batch_size=5, chunk_rows=5
                )
                seen = []
                with pytest.raises(FunctionError):
                    for value in cursor:
                        seen.append(value)
                assert seen == list(range(10))
                assert _only_session(srv).describe()["open_cursors"] == 0

    def test_eager_mode_still_available(self, client):
        result = client.query(SCAN)
        assert result.rows == list(range(500))
        assert result.exhausted


class TestChunkedFrames:
    def test_result_bigger_than_one_frame_streams_in_small_frames(
        self, monkeypatch
    ):
        """A result whose single-frame encoding would blow the frame cap
        must reach the client as many small frames — the server never
        materializes (or ships) the full result in one buffer."""
        frame_cap = 256 * 1024
        db = _scan_db(rows=2000, pad=512)
        real_encode = protocol.encode_frame
        sizes = []

        def recording_encode(payload):
            data = real_encode(payload)
            sizes.append(len(data))
            return data

        monkeypatch.setattr(protocol, "encode_frame", recording_encode)
        with ReproServer(db, port=0) as srv:
            with ReproClient(port=srv.port, sleep=None) as c:
                rows = c.query(
                    "FOR i IN items SORT i.n RETURN i.pad", chunk_rows=64
                ).rows
        assert len(rows) == 2000
        # One frame for the whole result would have exceeded the cap ...
        assert len(json.dumps(rows).encode()) > frame_cap
        # ... but every frame actually written stayed far below it.
        assert sizes, "no frames recorded"
        assert max(sizes) < frame_cap

    def test_server_chunk_rows_is_a_ceiling(self, monkeypatch):
        db = _scan_db(rows=100)
        with ReproServer(db, port=0, cursor_chunk_rows=10) as srv:
            with ReproClient(port=srv.port, sleep=None) as c:
                cursor = c.query(SCAN, chunk_rows=10_000)
                assert not cursor.exhausted  # first chunk capped at 10
                assert cursor.rows == list(range(100))


class TestCursorLifecycleErrors:
    def test_unknown_cursor_raises_typed_error(self, client):
        with pytest.raises(CursorNotFoundError) as info:
            client._call("cursor_next", cursor=424242)
        assert info.value.code == "CURSOR_NOT_FOUND"

    def test_fetch_after_close_raises_cursor_not_found(self, client):
        cursor = client.query(SCAN, chunk_rows=5)
        cursor_id = cursor._cursor_id
        cursor.close()
        with pytest.raises(CursorNotFoundError):
            client._call("cursor_next", cursor=cursor_id)

    def test_cursor_cap_rejects_without_executing(self):
        db = _scan_db(rows=50)
        with ReproServer(db, port=0, max_cursors_per_session=2) as srv:
            with ReproClient(port=srv.port, sleep=None) as c:
                held = [c.query(SCAN, chunk_rows=1) for _ in range(2)]
                with pytest.raises(CursorLimitError) as info:
                    c.query(SCAN, chunk_rows=1)
                assert info.value.code == "CURSOR_LIMIT"
                # Draining one slot makes room again.
                held[0].close()
                third = c.query(SCAN, chunk_rows=1)
                assert third.first() == 0
                for cursor in held[1:] + [third]:
                    cursor.close()

    def test_idle_cursor_is_reaped(self):
        db = _scan_db(rows=50)
        with ReproServer(db, port=0, cursor_idle_timeout=0.2) as srv:
            with ReproClient(port=srv.port, sleep=None) as c:
                reaped_before = metrics.REGISTRY.total(
                    "server_cursors_reaped_total"
                )
                cursor = c.query(SCAN, chunk_rows=1)
                assert cursor.first() == 0
                deadline = time.time() + 5
                while time.time() < deadline:
                    session = _only_session(srv)
                    if session.describe()["open_cursors"] == 0:
                        break
                    time.sleep(0.05)
                assert _only_session(srv).describe()["open_cursors"] == 0
                assert (
                    metrics.REGISTRY.total("server_cursors_reaped_total")
                    > reaped_before
                )
                with pytest.raises(CursorNotFoundError):
                    cursor.fetch_all()


class TestDrainAndShutdown:
    def test_draining_server_rejects_mid_stream_fetch(self, server, client):
        cursor = client.query(SCAN, chunk_rows=5)
        assert cursor.first() == 0
        server._draining = True
        try:
            with pytest.raises(ServerShutdownError) as info:
                cursor.fetch_all()
            assert info.value.code == "SERVER_SHUTDOWN"
        finally:
            server._draining = False
        # The gate also never silently re-ran the query: the cursor is
        # still where it was, and a recovered server can keep serving it.
        assert not cursor.exhausted

    def test_shutdown_closes_open_cursors(self):
        db = _scan_db(rows=200)
        srv = ReproServer(db, port=0)
        srv.start_in_thread()
        c = ReproClient(port=srv.port, sleep=None)
        c.connect()
        cursor = c.query(SCAN, chunk_rows=5)
        assert cursor.first() == 0
        session = _only_session(srv)
        assert len(session.cursors) == 1
        srv.stop()
        assert len(session.cursors) == 0
        c.close()

    def test_disconnect_closes_cursors_server_side(self, server):
        c = ReproClient(port=server.port, sleep=None)
        c.connect()
        cursor = c.query(SCAN, chunk_rows=5)
        assert cursor.first() == 0
        session = _only_session(server)
        assert len(session.cursors) == 1
        c.close()  # vanish mid-stream
        deadline = time.time() + 5
        while time.time() < deadline:
            if len(session.cursors) == 0:
                break
            time.sleep(0.02)
        assert len(session.cursors) == 0

    def test_drain_during_inflight_query_rejects_streamer(self, tmp_path):
        """The full drain path: a slow in-flight write holds the drain
        window open; a mid-stream reader who fetches during that window
        gets ServerShutdownError, not a hang and not silent data."""
        db = _scan_db(rows=200)
        sink = db.create_collection("sink")
        assert sink is not None
        srv = ReproServer(db, port=0, drain_timeout=30)
        srv.start_in_thread()
        streamer = ReproClient(port=srv.port, sleep=None)
        streamer.connect()
        cursor = streamer.query(SCAN, chunk_rows=5)
        assert cursor.first() == 0
        outcome = {}

        def writer():
            with ReproClient(port=srv.port, sleep=None) as w:
                outcome["stats"] = w.query(
                    "FOR a IN items FOR b IN items LIMIT 20000 "
                    "INSERT {pair: [a.n, b.n]} INTO sink",
                ).stats

        watcher = ReproClient(port=srv.port, auto_reconnect=False)
        watcher.connect()
        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.time() + 10
        while time.time() < deadline:
            if watcher.stats()["inflight"] >= 1:
                break
            time.sleep(0.005)
        stopper = threading.Thread(target=srv.stop)
        stopper.start()
        try:
            deadline = time.time() + 10
            while time.time() < deadline:
                if srv._draining:
                    break
                time.sleep(0.005)
            with pytest.raises((ServerShutdownError, ConnectionError, OSError)):
                while True:  # drain may land between fetches
                    cursor._fetch_more()
                    if cursor.exhausted:
                        pytest.fail("stream completed during drain")
        finally:
            thread.join(timeout=30)
            stopper.join(timeout=30)
            watcher.close()
            streamer.close()
        assert "stats" in outcome  # the in-flight write still drained


class TestFrameWriteFailpointMidStream:
    def test_write_failpoint_surfaces_error_not_retry(self, server):
        """Cursors are session state: when the response frame for a fetch
        dies on the wire, the client must surface the transport error —
        never transparently reconnect and re-run the query."""
        c = ReproClient(port=server.port, sleep=None)
        c.connect()
        cursor = c.query(SCAN, chunk_rows=5)
        assert cursor.first() == 0
        opened = metrics.REGISTRY.total("server_cursors_opened_total")
        fault_registry.arm("server.frame_write", "once", "error")
        try:
            with pytest.raises((ConnectionError, OSError)):
                cursor.fetch_all()
        finally:
            fault_registry.disarm("server.frame_write")
        # No hidden re-execution: no new server cursor was opened.
        assert metrics.REGISTRY.total("server_cursors_opened_total") == opened
        # The dead connection's session cleans up its cursors.
        deadline = time.time() + 5
        while time.time() < deadline:
            if all(
                len(sess.cursors) == 0
                for sess, _w in server._sessions.values()
            ):
                break
            time.sleep(0.02)
        assert all(
            len(sess.cursors) == 0 for sess, _w in server._sessions.values()
        )
        c.close()
