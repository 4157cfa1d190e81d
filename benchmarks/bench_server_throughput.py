"""Server throughput: queries/sec and p95 latency at 1/8/32 sessions.

Unlike the pytest-benchmark modules, this harness measures *per-request*
wall times across concurrent wire clients (a median-of-callable cannot see
tail latency), so it writes its own ``BENCH_server_throughput.json`` to the
repository root:

    {"experiment": "server_throughput",
     "sessions": {"1": {"qps": ..., "p95_ms": ..., "queries": ...}, ...}}

The workload is the plan-cache-warm point-read mix every serving story is
judged by: relational point reads by key with bind parameters, so parse +
optimize are skipped after the first round and the measurement isolates
the wire and session-thread overhead of the server.
"""

import json
import pathlib
import threading
import time

import pytest

from repro.client import ReproClient
from repro.server import ReproServer

SESSION_COUNTS = (1, 8, 32)
QUERIES_PER_SESSION = 120
STATEMENT = "FOR c IN customers FILTER c.id == @id RETURN c.name"

ARTIFACT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_server_throughput.json"


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        int(fraction * (len(sorted_values) - 1)), len(sorted_values) - 1
    )
    return sorted_values[index]


def _drive_sessions(port: int, sessions: int, customer_count: int) -> dict:
    latencies: list[list[float]] = [[] for _ in range(sessions)]
    errors: list = []
    barrier = threading.Barrier(sessions + 1)

    def run_session(slot: int) -> None:
        try:
            with ReproClient(port=port) as client:
                barrier.wait(timeout=30)
                bucket = latencies[slot]
                for round_ in range(QUERIES_PER_SESSION):
                    customer = 1 + (slot * QUERIES_PER_SESSION + round_) % customer_count
                    started = time.perf_counter()
                    client.query(STATEMENT, {"id": customer})
                    bucket.append(time.perf_counter() - started)
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(repr(error))

    threads = [
        threading.Thread(target=run_session, args=(slot,))
        for slot in range(sessions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    window_start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - window_start
    assert not errors, errors[:3]
    flat = sorted(value for bucket in latencies for value in bucket)
    total = len(flat)
    return {
        "queries": total,
        "elapsed_seconds": round(elapsed, 4),
        "qps": round(total / elapsed, 1) if elapsed else 0.0,
        "p50_ms": round(_percentile(flat, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(flat, 0.95) * 1000, 3),
        "p99_ms": round(_percentile(flat, 0.99) * 1000, 3),
    }


@pytest.fixture(scope="module")
def served_db(mm_db, unibench_data):
    server = ReproServer(mm_db, port=0, max_sessions=64, queue_depth=64)
    server.start_in_thread()
    yield server, len(unibench_data.customers)
    server.stop()


def test_server_throughput_by_session_count(served_db):
    server, customer_count = served_db
    report: dict = {}
    for sessions in SESSION_COUNTS:
        report[str(sessions)] = _drive_sessions(
            server.port, sessions, customer_count
        )
    ARTIFACT.write_text(
        json.dumps(
            {"experiment": "server_throughput", "sessions": report},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    # Sanity: every tier completed its full workload, nothing was dropped.
    for sessions in SESSION_COUNTS:
        tier = report[str(sessions)]
        assert tier["queries"] == sessions * QUERIES_PER_SESSION
        assert tier["qps"] > 0
