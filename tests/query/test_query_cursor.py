"""One statement path: an eager query is a drained cursor.

``run_query`` opens a ``QueryCursor`` and drains it; ``open_query_cursor``
hands the same cursor to its caller.  These tests hold the two entry
points to one meaning for the rows, the statistics, EXPLAIN ANALYZE, the
query metrics, the error counters and the trace.
"""

import re

import pytest

from repro.core.database import MultiModelDB
from repro.errors import BindError, FunctionError, ParseError, ResourceExhaustedError
from repro.obs import metrics, tracing
from repro.query.engine import QueryCursor, open_query_cursor, run_query

TEXT = "FOR d IN docs FILTER d.x >= @floor SORT d.x RETURN d.x"
BINDS = {"floor": 3}


@pytest.fixture
def db():
    db = MultiModelDB()
    docs = db.create_collection("docs")
    for value in range(10):
        docs.insert({"x": value})
    return db


class Moved:
    """What one call moved in the query metrics."""

    PHASES = ("parse", "optimize", "execute")

    def __init__(self):
        self._before = self._read()

    @staticmethod
    def _read() -> dict:
        out = {
            phase: metrics.histogram("query_phase_seconds", phase=phase).count
            for phase in Moved.PHASES
        }
        out["query_seconds"] = metrics.histogram("query_seconds").count
        for name in ("query_rows_returned_total", "query_errors_total",
                     "queries_total"):
            out[name] = metrics.counter(name).value
        return out

    def delta(self) -> dict:
        return {
            name: value - self._before[name]
            for name, value in self._read().items()
        }


def test_a_drained_cursor_moves_what_run_query_moves(db):
    moved = Moved()
    eager = run_query(db, TEXT, BINDS)
    by_run_query = moved.delta()
    db.plan_cache.clear()
    moved = Moved()
    streamed = open_query_cursor(db, TEXT, BINDS).fetch_all()
    by_cursor = moved.delta()
    assert streamed == eager.rows == [3, 4, 5, 6, 7, 8, 9]
    assert by_cursor == by_run_query == {
        "parse": 1,
        "optimize": 1,
        "execute": 1,
        "query_seconds": 1,
        "query_rows_returned_total": 7,
        "query_errors_total": 0,
        "queries_total": 1,
    }


@pytest.mark.parametrize("entry", ["run_query", "cursor"])
def test_a_plan_cache_hit_observes_no_planning_phase(db, entry):
    run_query(db, TEXT, BINDS)
    moved = Moved()
    if entry == "run_query":
        stats = run_query(db, TEXT, BINDS).stats
    else:
        cursor = open_query_cursor(db, TEXT, BINDS)
        cursor.fetch_all()
        stats = cursor.stats
    assert stats["plan_cached"]
    delta = moved.delta()
    assert (delta["parse"], delta["optimize"], delta["execute"]) == (0, 0, 1)


def test_a_parse_error_at_open_is_a_query_error(db):
    moved = Moved()
    with pytest.raises(ParseError):
        open_query_cursor(db, "FOR d IN docs RETURN")
    assert moved.delta()["query_errors_total"] == 1


def test_a_bind_error_at_first_fetch_is_a_query_error(db):
    cursor = open_query_cursor(db, "FOR d IN docs RETURN d.x + @missing")
    moved = Moved()
    with pytest.raises(BindError):
        cursor.next_batch(5)
    cursor.close()
    delta = moved.delta()
    assert delta["query_errors_total"] == 1
    # A failed stream did not finish: like run_query, it records nothing else.
    assert delta["query_seconds"] == delta["execute"] == 0


def test_an_abandoned_then_closed_cursor_records_once(db):
    cursor = open_query_cursor(db, TEXT, BINDS, batch_size=2)
    moved = Moved()
    assert cursor.next_batch(2) == [3, 4]
    assert moved.delta()["query_seconds"] == 0  # still open
    cursor.close()
    cursor.close()
    delta = moved.delta()
    assert (delta["execute"], delta["query_seconds"]) == (1, 1)
    assert delta["query_rows_returned_total"] == cursor.stats["rows_returned"]


def test_materialize_buffers_the_whole_result_and_records_when_it_is_read(db):
    cursor = open_query_cursor(db, TEXT, BINDS, batch_size=2)
    moved = Moved()
    cursor.materialize()
    assert cursor.stats["rows_returned"] == 7
    assert moved.delta()["query_seconds"] == 0
    assert cursor.next_batch(5) == [3, 4, 5, 6, 7]
    assert cursor.fetch_all() == [8, 9]
    assert moved.delta()["query_seconds"] == 1


@pytest.mark.parametrize("entry", ["run_query", "cursor"])
def test_planning_spans_are_children_of_a_query_span(db, entry):
    tracing.enable()
    tracing.TRACER.clear()
    try:
        if entry == "run_query":
            run_query(db, TEXT, BINDS)
        else:
            open_query_cursor(db, TEXT, BINDS).fetch_all()
        roots = [root for root in tracing.TRACER.roots if root.name == "query"]
    finally:
        tracing.disable()
        tracing.TRACER.clear()
    assert len(roots) == 1
    children = [child.name for child in roots[0].children]
    assert children[:2] == ["query.parse", "query.optimize"]


def test_the_database_query_cursor_streams_what_query_returns(db):
    """``MultiModelDB.query_cursor``, the documented embedded stream: its
    batches, in order, are ``db.query``'s rows, and every option it takes
    reaches the statement."""
    expected = db.query(TEXT, BINDS).rows
    with db.query_cursor(TEXT, BINDS, batch_size=2) as cursor:
        assert cursor.next_batch(3) == expected[:3]
        assert list(cursor) == expected[3:]
        assert cursor.exhausted
        assert cursor.stats["rows_returned"] == len(expected)
    with db.query_cursor("FOR d IN docs RETURN d.x", batch_size=2) as cursor:
        assert cursor.fetch_all() == list(range(10))
        assert cursor.stats["batches"] == 5
    with db.query_cursor("FOR d IN docs RETURN d.x", max_rows=4) as cursor:
        with pytest.raises(ResourceExhaustedError):
            cursor.fetch_all()
    # Without binds a statement that needs one fails at its first fetch.
    with db.query_cursor(TEXT) as cursor:
        with pytest.raises(BindError):
            cursor.fetch_all()


def operator_lines(analyzed: str) -> list:
    """An annotated plan's operator lines, rows and batches kept, the
    estimates (which the first run's feedback may move) and the timings
    dropped."""
    return [
        re.sub(r" (est|q_error|self|cum)=[^ \]]+( ms)?", "", line)
        for line in analyzed.splitlines()
        if "[rows " in line
    ]


def test_run_query_drains_a_query_cursor(db, monkeypatch):
    drained = []
    fetch_all = QueryCursor.fetch_all

    def spy(cursor):
        drained.append(cursor)
        return fetch_all(cursor)

    monkeypatch.setattr(QueryCursor, "fetch_all", spy)
    assert run_query(db, TEXT, BINDS).rows == [3, 4, 5, 6, 7, 8, 9]
    assert len(drained) == 1 and drained[0].exhausted


def test_an_eager_query_keeps_its_rows_stats_and_metrics(db):
    opened = metrics.counter("query_cursors_total")
    before = opened.value
    moved = Moved()
    result = db.query("FOR d IN docs RETURN d.x", batch_size=4)
    assert result.rows == list(range(10))
    assert (result.stats["rows_returned"], result.stats["batches"]) == (10, 3)
    delta = moved.delta()
    assert (delta["queries_total"], delta["query_seconds"]) == (1, 1)
    assert delta["query_rows_returned_total"] == 10
    # query_cursors_total counts the cursors a caller opens, not the one
    # an eager query drains.
    assert opened.value == before
    db.query_cursor("FOR d IN docs RETURN d.x").close()
    assert opened.value == before + 1


def test_an_eager_query_spans_parse_optimize_and_execute(db):
    tracing.enable()
    tracing.TRACER.clear()
    try:
        db.query(TEXT, BINDS)
        (root,) = [root for root in tracing.TRACER.roots if root.name == "query"]
    finally:
        tracing.disable()
        tracing.TRACER.clear()
    assert [child.name for child in root.children] == [
        "query.parse", "query.optimize", "query.execute",
    ]
    assert root.children[-1].attrs["rows"] == 7


def test_explain_analyze_through_a_cursor_is_what_query_returns(db):
    text = "EXPLAIN ANALYZE " + TEXT
    eager = db.query(text, BINDS, batch_size=2)
    assert eager.rows == [3, 4, 5, 6, 7, 8, 9]
    with db.query_cursor(text, BINDS, batch_size=2) as cursor:
        assert cursor.analyze
        assert cursor.next_batch(3) == eager.rows[:3]
        # The plan is annotated once the pipeline has run to its end.
        assert cursor.analyzed is None and cursor.op_stats is None
        assert cursor.fetch_all() == eager.rows[3:]
        assert operator_lines(cursor.analyzed) == operator_lines(eager.analyzed)
        assert len(operator_lines(eager.analyzed)) == 4
        assert [op["rows_out"] for op in cursor.op_stats] == [
            op["rows_out"] for op in eager.op_stats
        ]
        assert "Execution time:" in cursor.analyzed


def test_an_analyze_cursor_closed_early_has_no_plan(db):
    cursor = open_query_cursor(db, TEXT, BINDS, analyze=True, batch_size=2)
    assert cursor.next_batch(2) == [3, 4]
    cursor.close()
    assert cursor.analyzed is None


def test_a_fetch_that_hands_over_the_last_rows_ends_the_stream(db):
    """Six rows fetched three at a time take two fetches: the second knows
    it handed over the last rows."""
    cursor = open_query_cursor(db, TEXT, {"floor": 4}, batch_size=3)
    assert cursor.next_batch(3) == [4, 5, 6]
    assert not cursor.exhausted
    moved = Moved()
    assert cursor.next_batch(3) == [7, 8, 9]
    assert cursor.exhausted
    assert moved.delta()["query_seconds"] == 1  # recorded on that fetch
    assert cursor.next_batch(3) == []


@pytest.mark.parametrize("case", ["function", "row_budget"])
def test_an_error_of_the_look_ahead_follows_the_rows_before_it(db, case):
    """The pull past a full fetch fails: the fetch still hands over its
    rows, and the next one raises the error, counted once — the rows and
    the error a fetch-by-fetch reader saw before the look-ahead."""
    if case == "function":
        db.collection("docs").insert({"x": "ten"})
        cursor = open_query_cursor(db, "FOR d IN docs RETURN ABS(d.x)", batch_size=5)
        error = FunctionError
    else:
        cursor = open_query_cursor(db, "FOR d IN docs RETURN d.x", batch_size=5,
                                   max_rows=5)
        error = ResourceExhaustedError
    moved = Moved()
    assert cursor.next_batch(5) == [0, 1, 2, 3, 4]
    if case == "function":
        assert cursor.next_batch(5) == [5, 6, 7, 8, 9]
    assert not cursor.exhausted
    assert moved.delta()["query_errors_total"] == 0
    with pytest.raises(error):
        cursor.next_batch(5)
    assert cursor.next_batch(5) == []
    cursor.close()
    delta = moved.delta()
    assert delta["query_errors_total"] == 1
    assert delta["query_seconds"] == 0  # a failed query did not finish
