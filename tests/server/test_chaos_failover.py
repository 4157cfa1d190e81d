"""Network chaos and failover: deterministic wire-frame fault injection,
full seeded chaos runs (primary + replicas + mid-stream kill), and the
randomized pass CI uses to widen coverage (its seed is echoed so any
failure reproduces with ``chaos_run(seed)``)."""

import os
import socket
import threading
import time

import pytest

from repro import MultiModelDB
from repro.client import ReproClient
from repro.errors import ProtocolError
from repro.fault.chaos import ChaosReport, chaos_run
from repro.fault.registry import FAILPOINTS
from repro.fault.retry import RetryExhaustedError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.server import ReproServer

NET_SITES = (
    "server.frame_write",
    "server.frame_read",
    "client.frame_write",
    "client.frame_read",
)


def _db(rows: int = 0):
    db = MultiModelDB()
    kv = db.create_collection("kv")
    for index in range(rows):
        kv.insert({"_key": str(index), "n": index})
    return db


@pytest.fixture(autouse=True)
def _clean_failpoints():
    for site in NET_SITES:
        FAILPOINTS.disarm(site)
    yield
    for site in NET_SITES:
        FAILPOINTS.disarm(site)


@pytest.fixture()
def server():
    with ReproServer(_db(rows=50), port=0) as srv:
        yield srv


class TestDeterministicNetFaults:
    """Each NET effect, armed surgically, with the documented recovery."""

    def test_drop_conn_on_client_write_is_retried(self, server):
        with ReproClient(port=server.port, retries=4, sleep=None) as client:
            client.ping()  # handshake done; fault hits the request frame
            FAILPOINTS.arm("client.frame_write", "once", "drop_conn")
            rows = client.query("FOR d IN kv RETURN d.n").rows
            assert len(rows) == 50
            assert FAILPOINTS.get("client.frame_write").fires_count == 1

    def test_truncate_frame_on_server_write_is_retried(self, server):
        with ReproClient(port=server.port, retries=4, sleep=None) as client:
            client.ping()
            FAILPOINTS.arm("server.frame_write", "once", "truncate_frame")
            # The torn response surfaces as a transport error; the client
            # re-dials and replays the (idempotent) read.
            rows = client.query("FOR d IN kv RETURN d.n").rows
            assert len(rows) == 50

    def test_duplicate_frame_desync_recovers_via_reconnect(self, server):
        with ReproClient(port=server.port, retries=4, sleep=None) as client:
            client.ping()
            FAILPOINTS.arm("server.frame_write", "once", "duplicate_frame")
            # First call consumes copy #1 of its response; the duplicate
            # stays buffered and desyncs the *next* call's request ids.
            # ProtocolError is a transport error for retry purposes: only
            # a fresh dial resynchronizes the stream.
            assert client.query("RETURN 1").rows == [1]
            assert client.query("RETURN 2").rows == [2]
            assert client.query("RETURN 3").rows == [3]

    def test_delay_stalls_but_delivers(self, server):
        from repro.fault import net as fault_net

        with ReproClient(port=server.port, retries=2, sleep=None) as client:
            client.ping()
            FAILPOINTS.arm("client.frame_write", "once", "delay")
            started = time.monotonic()
            assert client.query("RETURN 42").rows == [42]
            assert time.monotonic() - started >= fault_net.DELAY_SECONDS

    def test_partition_exhausts_retries_then_heals(self, server):
        with ReproClient(port=server.port, retries=2, sleep=None) as client:
            client.ping()
            FAILPOINTS.arm("client.frame_write", "every:1", "partition")
            with pytest.raises((RetryExhaustedError, OSError)):
                client.query("RETURN 1")
            FAILPOINTS.disarm("client.frame_write")
            assert client.query("RETURN 1").rows == [1]

    def test_protocol_error_from_id_mismatch_is_transportlike(self, server):
        # Underlying invariant of the duplicate_frame recovery above: a
        # response with the wrong request id raises ProtocolError, and a
        # zero-retry client surfaces it instead of hanging.
        with ReproClient(port=server.port, retries=0, sleep=None) as client:
            client.ping()
            FAILPOINTS.arm("server.frame_write", "once", "duplicate_frame")
            client.query("RETURN 1")
            with pytest.raises((ProtocolError, RetryExhaustedError)):
                client.query("RETURN 2")


class TestCursorReapOnAbruptClose:
    """Satellite: a client that vanishes mid-stream must not leak server
    cursors or threads (the disconnect path reaps them)."""

    def _session_threads(self):
        return [
            t for t in threading.enumerate()
            if t.name.startswith("repro-session-")
        ]

    def _open_and_sever(self, server):
        client = ReproClient(port=server.port, retries=0, sleep=None)
        cursor = client.query("FOR d IN kv RETURN d.n", chunk_rows=5)
        assert not cursor.exhausted  # server-side cursor is live
        # Abrupt close: no cursor_close, no goodbye — just kill the socket.
        sock = client._sock
        client._sock = None
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()

    def _wait_sessions_gone(self, server, timeout: float = 5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if server.active_sessions == 0:
                return
            time.sleep(0.01)
        raise AssertionError(
            f"server still holds {server.active_sessions} session(s)"
        )

    def test_abrupt_close_reaps_cursor_and_emits_event(self, server):
        reaped = obs_metrics.counter("server_cursors_reaped_total")
        before = reaped.value
        self._open_and_sever(server)
        self._wait_sessions_gone(server)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and reaped.value == before:
            time.sleep(0.01)
        assert reaped.value == before + 1
        kinds = [e["kind"] for e in obs_events.tail(50)]
        assert "cursors_reaped_on_disconnect" in kinds

    def test_repeated_abrupt_closes_leak_no_threads(self, server):
        def settled():
            self._wait_sessions_gone(server)
            deadline = time.monotonic() + 5.0
            while self._session_threads() and time.monotonic() < deadline:
                time.sleep(0.01)
            return threading.active_count()

        # One round first: whatever the server keeps once it has served a
        # query is part of the baseline.
        self._open_and_sever(server)
        baseline = settled()
        for _ in range(3):
            self._open_and_sever(server)
            assert settled() <= baseline
        # Each session's thread ended with its connection.
        assert self._session_threads() == []
        # And the server still serves cleanly afterwards.
        with ReproClient(port=server.port, sleep=None) as client:
            assert len(client.query("FOR d IN kv RETURN d.n").rows) == 50


class TestChaosRuns:
    """Full topology chaos: seeded workload + faults + primary kill."""

    @pytest.mark.parametrize("seed", [11, 42])
    def test_fixed_seed_run_holds_invariants(self, seed):
        report = chaos_run(seed, replicas=2, writes=45, fault_rounds=3)
        # ok: every confirmed write survived the failover.  A refused
        # semi-sync write is legal and leaves the oracle; it must be
        # reported as refused, not lost without a word.
        assert report.ok, report.summary()
        assert report.failovers >= 1
        refused = sum(
            1 for event in report.events if event["kind"] == "write_refused"
        )
        assert report.writes_confirmed + refused == report.writes_attempted, (
            report.summary()
        )
        assert report.writes_confirmed > 0
        assert report.killed_primary and report.promoted
        assert report.promoted != report.killed_primary

    if os.environ.get("CHAOS_SEED"):
        # Randomized seeds stay out of the deterministic suite: the
        # chaos-smoke CI job draws one, echoes it and sets CHAOS_SEED, which
        # is also how a failed pass is reproduced.
        def test_randomized_seed_run_echoes_seed(self):
            seed = int(os.environ["CHAOS_SEED"])
            print(f"chaos randomized seed={seed} "
                  f"(reproduce: chaos_run({seed}))")
            report = chaos_run(seed, replicas=2, writes=45, fault_rounds=3)
            assert report.ok, (
                f"randomized chaos failed — reproduce with "
                f"chaos_run({seed}): " + report.summary()
            )

    def test_no_kill_run_is_quiet(self):
        report = chaos_run(7, replicas=1, writes=24, fault_rounds=2,
                           kill_primary=False)
        assert report.ok, report.summary()
        assert report.failovers == 0
        assert report.killed_primary is None

    def test_report_dump_is_valid_json(self, tmp_path):
        import json

        report = ChaosReport(seed=1, replicas=0)
        report.note("unit", detail="x")
        report.errors.append("synthetic")
        path = tmp_path / "chaos.json"
        report.dump(str(path))
        payload = json.loads(path.read_text())
        assert payload["seed"] == 1
        assert payload["errors"] == ["synthetic"]
        assert payload["chaos_events"][0]["kind"] == "unit"
        assert "[FAIL]" in payload["summary"]
