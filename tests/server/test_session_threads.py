"""What one thread per session must keep: a session blocked in a long
engine call delays only itself, and a killed server resets its
connections."""

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


def test_a_slow_scan_delays_only_its_own_session(server):
    def scan():
        with ReproClient(port=server.port, sleep=None) as scanner:
            scanner.query(SLOW_QUERY)

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
