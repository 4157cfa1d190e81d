"""End-to-end distributed tracing over the wire protocol.

The acceptance case for the observability tier: a streamed cursor whose
rows arrive over several ``cursor_next`` fetches yields ONE stitched
trace — every client RPC and every server span sharing a single
trace_id, each server span parented on the RPC that caused it and
carrying session/request correlation plus phase timings.
"""

import re

import pytest

from repro.cli import make_demo_db
from repro.client import ReproClient
from repro.errors import ParseError
from repro.obs import tracing
from repro.server import ReproServer

HEX32 = re.compile(r"[0-9a-f]{32}")
HEX16 = re.compile(r"[0-9a-f]{16}")


@pytest.fixture(scope="module")
def demo_server():
    server = ReproServer(make_demo_db(scale_factor=1), port=0)
    server.start_in_thread()
    yield server
    server.stop()


@pytest.fixture()
def client(demo_server):
    with ReproClient(port=demo_server.port, sleep=None) as connected:
        yield connected


def _spans(summary):
    """Flatten one span-summary tree, root first."""
    out = [summary]
    for child in summary.get("children") or []:
        out.extend(_spans(child))
    return out


class TestStreamedCursorTrace:
    """The headline guarantee: multi-fetch streams stitch into one trace."""

    def test_multi_fetch_stream_is_one_trace(self, client):
        cursor = client.query(
            "FOR c IN customers SORT c.id RETURN c.id",
            chunk_rows=4,
            trace=True,
        )
        rows = cursor.fetch_all()
        assert len(rows) > 8  # enough rows to need several fetches
        trace = cursor.trace
        assert trace is client.last_trace
        assert HEX32.fullmatch(trace.trace_id)

        ops = [rpc["op"] for rpc in trace.rpcs]
        assert ops[0] == "query_open"
        assert ops.count("cursor_next") >= 2  # the acceptance bar
        assert len(trace.server_spans) == len(trace.rpcs)

        for rpc in trace.rpcs:
            server = rpc["server"]
            # One trace end to end: every server span carries the client's
            # trace id and is parented on exactly the RPC that caused it.
            assert server["trace_id"] == trace.trace_id
            assert server["parent_span_id"] == rpc["span_id"]
            assert HEX16.fullmatch(rpc["span_id"])
            assert server["name"] == "server.request"
            assert server["attrs"]["op"] == rpc["op"]

    def test_server_spans_carry_correlation_and_phases(self, client):
        cursor = client.query(
            "FOR c IN customers RETURN c.id", chunk_rows=4, trace=True
        )
        cursor.fetch_all()
        spans = cursor.trace.server_spans
        request_ids = []
        for span in spans:
            attrs = span["attrs"]
            assert attrs["session_id"] == client.session_id
            assert attrs["queue_ms"] >= 0
            assert attrs["execute_ms"] >= 0
            request_ids.append(attrs["request_id"])
        # Requests of one session are sequenced, so the stream's RPCs
        # carry strictly increasing request ids.
        assert request_ids == sorted(request_ids)
        assert len(set(request_ids)) == len(request_ids)

    def test_cursor_next_spans_name_the_cursor_and_fetch(self, client):
        cursor = client.query(
            "FOR c IN customers RETURN c.id", chunk_rows=4, trace=True
        )
        cursor.fetch_all()
        fetch_spans = [
            span
            for rpc, span in zip(cursor.trace.rpcs, cursor.trace.server_spans)
            if rpc["op"] == "cursor_next"
        ]
        assert fetch_spans
        fetches = [span["attrs"]["fetch"] for span in fetch_spans]
        assert fetches == list(range(1, len(fetch_spans) + 1))
        assert len({span["attrs"]["cursor"] for span in fetch_spans}) == 1

    def test_engine_child_spans_ride_the_thread_handoff(self, client):
        """The engine runs on the session thread; its spans must appear
        under server.request, not as orphan roots (the handoff test in
        tests/obs covers cross-thread propagation — this covers the wire
        path).
        The query text is unique to this test: a plan-cache hit would
        skip the parse/optimize spans we are asserting on."""
        cursor = client.query(
            "FOR c IN customers RETURN c.address", chunk_rows=4, trace=True
        )
        cursor.fetch_all()
        open_span = cursor.trace.server_spans[0]
        names = {span["name"] for span in _spans(open_span)}
        assert "query.parse" in names
        assert "query.optimize" in names

    def test_stats_count_cursor_fetches_and_phases(self, client):
        cursor = client.query(
            "FOR c IN customers RETURN c.id", chunk_rows=4, trace=True
        )
        cursor.fetch_all()
        assert cursor.stats["cursor_fetches"] >= 2
        phases = cursor.stats["server_phases"]
        assert set(phases) >= {"queue", "execute"}
        assert all(value >= 0 for value in phases.values())


class TestOneShotAndErrors:
    def test_explain_analyze_reports_server_phases(self, client):
        cursor = client.query(
            "EXPLAIN ANALYZE FOR c IN customers RETURN c.id", trace=True
        )
        assert "Server: queue-wait" in cursor.analyzed
        assert f"session {client.session_id}" in cursor.analyzed

    def test_error_responses_still_carry_the_trace(self, client):
        with pytest.raises(ParseError):
            client.query("THIS IS NOT MMQL", trace=True)
        trace = client.last_trace
        assert trace is not None
        assert trace.rpcs[-1]["op"] == "query_open"
        server = trace.rpcs[-1]["server"]
        assert server is not None
        assert server["trace_id"] == trace.trace_id

    def test_format_renders_the_stitched_tree(self, client):
        cursor = client.query(
            "FOR c IN customers RETURN c.id", chunk_rows=4, trace=True
        )
        cursor.fetch_all()
        rendered = cursor.trace.format()
        assert rendered.startswith(f"trace {cursor.trace.trace_id}")
        assert "client.query_open" in rendered
        assert "client.cursor_next" in rendered
        assert "server.request" in rendered

    def test_trace_dump_wire_op_returns_server_side_roots(self, client):
        client.query("FOR c IN customers RETURN c.id", trace=True).fetch_all()
        dumped = client.trace_dump(n=5)
        assert dumped
        assert all(HEX32.fullmatch(root["trace_id"]) for root in dumped)
        assert any(root["name"] == "server.request" for root in dumped)


class TestOptIn:
    def test_untraced_requests_send_no_trace_frame(self, client):
        cursor = client.query("FOR c IN customers RETURN c.id", chunk_rows=4)
        cursor.fetch_all()
        assert cursor.trace is None

    def test_client_default_policy_traces_every_statement(self, demo_server):
        with ReproClient(port=demo_server.port, sleep=None, trace=True) as traced:
            first = traced.query("FOR c IN customers RETURN c.id").fetch_all()
            assert first
            one = traced.last_trace
            traced.query("FOR p IN products RETURN p.id").fetch_all()
            assert traced.last_trace is not one  # fresh trace per statement
            assert one.trace_id != traced.last_trace.trace_id

    def test_trace_false_suppresses_the_policy(self, demo_server):
        with ReproClient(port=demo_server.port, sleep=None, trace=True) as traced:
            traced.ping()
            marker = traced.last_trace
            cursor = traced.query(
                "FOR c IN customers RETURN c.id", trace=False
            )
            cursor.fetch_all()
            assert cursor.trace is None
            assert traced.last_trace is marker  # untouched by the query

    def test_no_client_spans_leak_into_the_local_tracer(self, client):
        """Client-side trace ids are minted without opening local spans;
        with tracing disabled the local tracer must stay empty."""
        assert not tracing.is_enabled()
        before = len(tracing.TRACER.roots)
        client.query("FOR c IN customers RETURN c.id", trace=True).fetch_all()
        assert len(tracing.TRACER.roots) == before
