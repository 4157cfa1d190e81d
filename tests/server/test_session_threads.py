"""What one thread per session must keep: a session that waits — on a
lock, or on a long scan — delays only itself, and a killed server resets
its connections."""

import socket
import sys
import threading
import time

import pytest

from repro import MultiModelDB
from repro.client import ReproClient
from repro.server import ReproServer, protocol

#: A stalled session may not delay another session's request by more.
BOUND_S = 0.1

#: A million-row cross join that returns nothing: over a second of engine
#: work, with no result to ship.
SLOW_QUERY = (
    "FOR a IN items FOR b IN items FOR c IN items "
    "FILTER a.n + b.n + c.n < 0 RETURN a.n"
)
POINT_READ = "FOR d IN kv FILTER d._key == @key RETURN d.v"


def _db():
    db = MultiModelDB()
    kv = db.create_collection("kv")
    for index in range(20):
        kv.insert({"_key": str(index), "v": index})
    items = db.create_collection("items")
    for index in range(100):
        items.insert({"n": index})
    return db


@pytest.fixture()
def server():
    with ReproServer(_db(), port=0) as srv:
        yield srv


def _timed(call):
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _assert_others_stay_fast(server):
    with ReproClient(port=server.port, sleep=None) as third:
        third.ping()
        third.query(POINT_READ, {"key": "3"}).fetch_all()  # plan cached
        for _ in range(5):
            pong, seconds = _timed(third.ping)
            assert pong is True and seconds < BOUND_S, seconds
            rows, seconds = _timed(
                lambda: third.query(POINT_READ, {"key": "7"}).fetch_all()
            )
            assert rows == [7] and seconds < BOUND_S, seconds


def test_a_lock_wait_delays_only_its_own_session(server):
    holder = ReproClient(port=server.port, sleep=None)
    waiter = ReproClient(port=server.port, sleep=None)
    holder.connect()
    waiter.connect()
    outcome: dict = {}
    try:
        holder.begin("serializable")
        holder.query("UPDATE '1' WITH {v: 100} IN kv").fetch_all()
        waiter.begin("serializable")

        def blocked_write():
            try:
                outcome["rows"] = waiter.query(
                    "UPDATE '1' WITH {v: 200} IN kv"
                ).fetch_all()
            except Exception as error:  # a typed refusal also ends the wait
                outcome["error"] = error

        thread = threading.Thread(target=blocked_write)
        thread.start()
        assert _wait_until(lambda: server.inflight >= 1)
        time.sleep(0.05)
        assert thread.is_alive()  # parked on the holder's X lock
        _assert_others_stay_fast(server)
        assert thread.is_alive()
        holder.commit()  # releases the lock, and with it the waiter
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome
    finally:
        for client in (holder, waiter):
            try:
                client.abort()
            except Exception:
                pass
            client.close()


def test_a_slow_scan_delays_only_its_own_session(server):
    def scan():
        with ReproClient(port=server.port, sleep=None) as scanner:
            scanner.query(SLOW_QUERY, stream=False)

    thread = threading.Thread(target=scan)
    thread.start()
    try:
        assert _wait_until(lambda: server.inflight >= 1)
        with ReproClient(port=server.port, sleep=None) as other:
            other.ping()
            for _ in range(5):
                pong, seconds = _timed(other.ping)
                assert pong is True and seconds < BOUND_S, seconds
        assert server.inflight >= 1  # the pings really overlapped the scan
    finally:
        thread.join(timeout=60)


def test_engine_slots_and_session_table_hold_under_contention():
    """More sessions than cores and than engine slots, switching threads as
    often as the interpreter allows: every call is served and accounted
    for — a lost update would leave the in-flight count or the session
    table non-zero."""
    server = ReproServer(_db(), port=0, max_inflight=2, queue_depth=64)
    server.start_in_thread()
    errors: list = []

    def session(index):
        try:
            with ReproClient(port=server.port, sleep=None) as client:
                for round_ in range(50):
                    key = (index + round_) % 20
                    rows = client.query(POINT_READ, {"key": str(key)}).fetch_all()
                    assert rows == [key], rows
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=session, args=(index,)) for index in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not errors, errors[:3]
        assert _wait_until(lambda: server.active_sessions == 0)
        assert server.inflight == 0
    finally:
        server.stop()


def test_kill_resets_connected_clients():
    server = ReproServer(_db(), port=0)
    server.start_in_thread()
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    try:
        assert "hello" in protocol.read_frame(sock)
        server.kill()
        with pytest.raises(ConnectionResetError):
            sock.recv(1)  # a reset, not a clean EOF (b"")
    finally:
        sock.close()
