"""EXPLAIN ANALYZE: per-operator row counts and wall-time, on both a
hand-built collection (deterministic counts) and the UniBench demo data."""

import io

import pytest

from repro.cli import make_demo_db, run_statement
from repro.core.database import MultiModelDB
from repro.errors import PlanError
from repro.obs import metrics


@pytest.fixture(scope="module")
def demo_db():
    return make_demo_db(scale_factor=1)


class TestOperatorCounts:
    @pytest.fixture
    def db(self):
        db = MultiModelDB()
        db.create_collection("nums")
        for value in range(10):
            db.collection("nums").insert({"x": value})
        return db

    def test_scan_filter_return_counts(self, db):
        result = db.query(
            "FOR d IN nums FILTER d.x >= 6 RETURN d.x", analyze=True
        )
        assert sorted(result.rows) == [6, 7, 8, 9]
        ops = result.op_stats
        assert [entry["operator"] for entry in ops] == [
            "ForOp", "FilterOp", "ReturnOp",
        ]
        scan, filter_, return_ = ops
        assert (scan["rows_in"], scan["rows_out"]) == (1, 10)
        assert (filter_["rows_in"], filter_["rows_out"]) == (10, 4)
        assert (return_["rows_in"], return_["rows_out"]) == (4, 4)
        for entry in ops:
            assert entry["seconds"] >= 0.0
            assert entry["self_seconds"] >= 0.0

    def test_prefix_and_kwarg_are_equivalent(self, db):
        prefixed = db.query("EXPLAIN ANALYZE FOR d IN nums RETURN d.x")
        assert prefixed.analyzed is not None
        assert len(prefixed.rows) == 10
        assert "[rows in=1 out=10" in prefixed.analyzed
        assert "Execution time:" in prefixed.analyzed

    def test_plain_query_has_no_probes(self, db):
        result = db.query("FOR d IN nums RETURN d.x")
        assert result.analyzed is None
        assert result.op_stats is None

    def test_subquery_not_probed_separately(self, db):
        result = db.query(
            "FOR d IN nums FILTER d.x < 2 "
            "RETURN (FOR e IN nums FILTER e.x == d.x RETURN e.x)",
            analyze=True,
        )
        # 3 top-level operators only; subquery cost is charged to RETURN.
        assert len(result.op_stats) == 3
        assert result.rows == [[0], [1]]

    def test_dml_probe(self, db):
        result = db.query(
            "FOR d IN nums FILTER d.x == 0 "
            "UPDATE d WITH {x: 100} IN nums",
            analyze=True,
        )
        update = result.op_stats[-1]
        assert update["operator"] == "UpdateOp"
        assert update["rows_out"] == 1

    @pytest.mark.parametrize("text", [
        "FOR d IN nums FILTER d.x >= 3 SORT d.x RETURN d.x",
        "FOR d IN nums FILTER d.x >= 3 SORT d.x LIMIT 2 RETURN d.x",
        "FOR d IN nums FILTER d.x >= 3 UPDATE d WITH {y: 1} IN nums",
    ], ids=["sort", "limit", "dml"])
    def test_cum_is_monotone_up_the_plan(self, db, text):
        """An operator's construction time (a SORT drains its input when
        it is built) reaches every consumer's cumulative time."""
        for _run in range(3):  # the first on a cold plan
            result = db.query("EXPLAIN ANALYZE " + text)
            cums = [entry["seconds"] for entry in result.op_stats]
            assert cums == sorted(cums), result.analyzed
            assert result.op_stats[-1]["self_seconds"] > 0, result.analyzed

    def test_explain_rejects_analyze(self, db):
        with pytest.raises(PlanError):
            db.explain("EXPLAIN ANALYZE FOR d IN nums RETURN d")


class TestUniBenchAnalyze:
    def test_demo_query_annotated(self, demo_db):
        result = demo_db.query(
            "EXPLAIN ANALYZE FOR c IN customers "
            "FILTER c.credit_limit > 3000 RETURN c"
        )
        scan, filter_, return_ = result.op_stats
        assert scan["rows_out"] == 100  # scale-1 UniBench has 100 customers
        assert filter_["rows_in"] == 100
        assert filter_["rows_out"] == len(result.rows)
        assert return_["rows_out"] == len(result.rows)
        assert "Scan c IN customers" in result.analyzed
        assert "Execution time:" in result.analyzed

    def test_index_scan_annotated(self, demo_db):
        result = demo_db.query(
            "EXPLAIN ANALYZE FOR o IN orders "
            "FILTER o.Order_no == 'missing' RETURN o"
        )
        assert result.op_stats[0]["operator"] == "IndexScanOp"
        assert result.op_stats[0]["rows_out"] == 0
        assert "IndexScan" in result.analyzed

    def test_metrics_nonzero_after_query(self, demo_db):
        demo_db.query("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c")
        registry = metrics.REGISTRY
        assert registry.total("queries_total") > 0
        assert registry.total("query_seconds") > 0
        assert registry.total("model_ops_total") > 0
        assert registry.total("txn_commits_total") > 0

    def test_shell_prints_annotated_plan(self, demo_db):
        out = io.StringIO()
        run_statement(
            demo_db,
            "EXPLAIN ANALYZE FOR c IN customers "
            "FILTER c.credit_limit > 3000 RETURN c",
            out,
            {"done": False},
        )
        text = out.getvalue()
        assert "[rows in=" in text
        assert "Execution time:" in text
        # rows themselves are not JSON-dumped on the analyze path
        assert '"credit_limit"' not in text

    def test_shell_metrics_command(self, demo_db):
        out = io.StringIO()
        run_statement(demo_db, ".metrics", out, {"done": False})
        assert "queries_total" in out.getvalue()

    def test_shell_dbstats_includes_metrics(self, demo_db):
        out = io.StringIO()
        run_statement(demo_db, ".dbstats", out, {"done": False})
        text = out.getvalue()
        assert "metrics:" in text
        assert "queries_total" in text


class TestSlowLog:
    def test_threshold_and_entries(self):
        from repro.obs import slowlog

        db = MultiModelDB()
        db.create_collection("docs")
        db.collection("docs").insert({"x": 1})
        slowlog.set_threshold(0.0)  # everything is slow
        try:
            db.query("FOR d IN docs RETURN d")
            entries = slowlog.entries()
            assert entries
            assert "FOR d IN docs" in entries[-1]["query"]
            assert entries[-1]["rows"] == 1
        finally:
            slowlog.set_threshold(None)
            slowlog.clear()

    def test_streamed_cursor_records_on_exhaustion(self):
        """The lazy cursor path must feed the slow-query log too — rows
        stream out over many pulls, so the entry lands once, when the
        stream drains, carrying the cumulative pipeline time."""
        from repro.obs import slowlog
        from repro.query.engine import open_query_cursor

        db = MultiModelDB()
        db.create_collection("docs")
        for index in range(10):
            db.collection("docs").insert({"x": index})
        slowlog.set_threshold(0.0)
        try:
            cursor = open_query_cursor(db, "FOR d IN docs RETURN d.x")
            assert cursor.next_batch(3)  # partial drain: nothing recorded
            assert not slowlog.entries()
            cursor.fetch_all()
            entries = slowlog.entries()
            assert len(entries) == 1
            assert entries[0]["rows"] == 10
            assert entries[0]["phases"]["execute"] >= 0
        finally:
            slowlog.set_threshold(None)
            slowlog.clear()

    def test_abandoned_cursor_records_on_close(self):
        from repro.obs import slowlog
        from repro.query.engine import open_query_cursor

        db = MultiModelDB()
        db.create_collection("docs")
        for index in range(10):
            db.collection("docs").insert({"x": index})
        slowlog.set_threshold(0.0)
        try:
            cursor = open_query_cursor(db, "FOR d IN docs RETURN d.x")
            cursor.next_batch(3)
            cursor.close()
            entries = slowlog.entries()
            assert len(entries) == 1  # recorded exactly once
            cursor.close()
            assert len(slowlog.entries()) == 1
        finally:
            slowlog.set_threshold(None)
            slowlog.clear()

    def test_shell_slowlog_command(self):
        from repro.obs import slowlog

        db = MultiModelDB()
        db.create_collection("docs")
        db.collection("docs").insert({"x": 1})
        out = io.StringIO()
        state = {"done": False}
        try:
            run_statement(db, ".slowlog 0", out, state)
            run_statement(db, "FOR d IN docs RETURN d", out, state)
            out2 = io.StringIO()
            run_statement(db, ".slowlog", out2, state)
            assert "FOR d IN docs RETURN d" in out2.getvalue()
        finally:
            run_statement(db, ".slowlog off", io.StringIO(), state)
        assert slowlog.get_threshold() is None
