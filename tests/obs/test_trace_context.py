"""Distributed trace identity: ids, traceparent, remote-parent adoption,
and the orphan spans of an unbridged thread hop."""

import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import tracing


@pytest.fixture
def traced():
    tracing.enable()
    tracing.TRACER.clear()
    yield
    tracing.disable()
    tracing.TRACER.clear()


class TestIdentity:
    def test_ids_are_hex_of_the_right_width(self):
        assert re.fullmatch(r"[0-9a-f]{32}", tracing.new_trace_id())
        assert re.fullmatch(r"[0-9a-f]{16}", tracing.new_span_id())

    def test_children_share_the_root_trace_id(self, traced):
        with tracing.span("root") as root:
            with tracing.span("child") as child:
                with tracing.span("grandchild") as grandchild:
                    pass
        assert child.trace_id == root.trace_id
        assert grandchild.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert grandchild.parent_span_id == child.span_id
        assert root.parent_span_id is None

    def test_separate_roots_get_separate_traces(self, traced):
        with tracing.span("a") as first:
            pass
        with tracing.span("b") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_traceparent_round_trip(self):
        context = tracing.SpanContext(
            tracing.new_trace_id(), tracing.new_span_id()
        )
        header = tracing.format_traceparent(context)
        assert header == f"00-{context.trace_id}-{context.span_id}-01"
        assert tracing.parse_traceparent(header) == context

    def test_parse_traceparent_rejects_garbage(self):
        for bad in ("", "xx", "00-short-short-01", None, 42,
                    "00-" + "g" * 32 + "-" + "0" * 16 + "-01"):
            assert tracing.parse_traceparent(bad) is None


class TestAdoption:
    def test_adopted_parent_continues_the_remote_trace(self, traced):
        remote = tracing.SpanContext(
            tracing.new_trace_id(), tracing.new_span_id()
        )
        with tracing.adopt(remote):
            with tracing.span("server.request") as server:
                pass
        assert server.trace_id == remote.trace_id
        assert server.parent_span_id == remote.span_id

    def test_adoption_forces_spans_when_tracing_is_disabled(self):
        # Tracing globally OFF, but a remote peer asked for this request
        # to be traced: the span must be real, not the shared no-op.
        assert not tracing.is_enabled()
        remote = tracing.SpanContext(
            tracing.new_trace_id(), tracing.new_span_id()
        )
        with tracing.adopt(remote):
            with tracing.span("server.request") as server:
                pass
        assert server is not None
        assert server.trace_id == remote.trace_id
        tracing.TRACER.clear()

    def test_disabled_path_stays_noop_without_a_remote_parent(self):
        assert not tracing.is_enabled()
        assert tracing.span("a") is tracing.span("b")  # shared no-op

    def test_adopt_none_is_a_noop(self, traced):
        with tracing.adopt(None):
            with tracing.span("root") as root:
                pass
        assert root.parent_span_id is None


class TestThreadHandoff:
    def test_spans_without_handoff_are_orphan_roots(self, traced):
        """The regression this module exists to prevent: context-vars do
        not cross the thread-pool bridge on their own."""
        with ThreadPoolExecutor(max_workers=1) as pool:
            with tracing.span("request") as request:
                worker = pool.submit(self._work).result()
        assert worker.parent is None  # orphaned!
        assert worker.trace_id != request.trace_id

    @staticmethod
    def _work():
        with tracing.span("engine.work") as span:
            pass
        return span


class TestCorrelation:
    def test_correlation_walks_up_the_span_chain(self, traced):
        with tracing.span("server.request", session_id=7, request_id=3):
            with tracing.span("query"):
                correlation = tracing.current_correlation()
        assert correlation["session_id"] == 7
        assert correlation["request_id"] == 3
        assert re.fullmatch(r"[0-9a-f]{32}", correlation["trace_id"])

    def test_correlation_is_empty_outside_any_span(self):
        assert tracing.current_correlation() == {}

    def test_span_summary_is_json_safe_and_recursive(self, traced):
        with tracing.span("root", op="query") as root:
            with tracing.span("child"):
                pass
        summary = tracing.span_summary(root)
        assert summary["name"] == "root"
        assert summary["trace_id"] == root.trace_id
        assert summary["attrs"] == {"op": "query"}
        assert summary["children"][0]["name"] == "child"
        assert summary["children"][0]["parent_span_id"] == root.span_id
        rendered = tracing.format_summary(summary)
        assert "root" in rendered and "child" in rendered
