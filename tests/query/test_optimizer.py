"""Optimizer rule tests: folding, pushdown, index selection."""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.query import ast
from repro.query.engine import run_query
from repro.query.optimizer import (
    fold_constants,
    optimize,
    push_down_filters,
    select_indexes,
)
from repro.query.parser import parse
from repro.query.plan import IndexScanOp, render_plan


@pytest.fixture()
def db():
    db = MultiModelDB()
    db.create_table(
        TableSchema(
            "customers",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("city", ColumnType.STRING),
                Column("credit", ColumnType.INTEGER),
            ],
            primary_key="id",
        )
    )
    table = db.table("customers")
    cities = ["Prague", "Helsinki", "Brno", "Oslo"]
    for i in range(40):
        table.insert({"id": i, "city": cities[i % 4], "credit": i * 100})
    return db


class TestConstantFolding:
    def test_arithmetic(self):
        query = fold_constants(parse("RETURN 2 + 3 * 4"))
        assert query.operations[0].expr == ast.Literal(14)

    def test_comparison(self):
        query = fold_constants(parse("RETURN 1 < 2"))
        assert query.operations[0].expr == ast.Literal(True)

    def test_preserves_division_by_zero(self):
        query = fold_constants(parse("RETURN 1 / 0"))
        assert isinstance(query.operations[0].expr, ast.BinOp)

    def test_folds_inside_filter(self):
        query = fold_constants(parse("FOR c IN t FILTER c.x > 2 * 500 RETURN c"))
        condition = query.operations[1].condition
        assert condition.right == ast.Literal(1000)

    def test_not_folding(self):
        query = fold_constants(parse("RETURN NOT false"))
        assert query.operations[0].expr == ast.Literal(True)


class TestFilterPushdown:
    def test_filter_moves_above_unrelated_for(self):
        query = parse(
            "FOR a IN xs FOR b IN ys FILTER a.v == 1 RETURN [a, b]"
        )
        optimized = push_down_filters(query)
        kinds = [type(op).__name__ for op in optimized.operations]
        assert kinds == ["ForOp", "FilterOp", "ForOp", "ReturnOp"]

    def test_filter_stays_when_dependent(self):
        query = parse(
            "FOR a IN xs FOR b IN ys FILTER b.v == a.v RETURN b"
        )
        optimized = push_down_filters(query)
        kinds = [type(op).__name__ for op in optimized.operations]
        assert kinds == ["ForOp", "ForOp", "FilterOp", "ReturnOp"]

    def test_filter_does_not_cross_sort(self):
        # After SORT+LIMIT the filter applies to fewer rows; moving it above
        # would change which rows survive the limit.
        query = parse(
            "FOR a IN xs SORT a.v LIMIT 5 FILTER a.v > 0 RETURN a"
        )
        optimized = push_down_filters(query)
        kinds = [type(op).__name__ for op in optimized.operations]
        assert kinds == ["ForOp", "SortOp", "LimitOp", "FilterOp", "ReturnOp"]

    def test_pushdown_preserves_results(self, db):
        text = (
            "FOR a IN customers FOR b IN customers "
            "FILTER a.city == 'Prague' FILTER b.id == a.id RETURN b.id"
        )
        naive = run_query(db, text, optimize_query=False)
        optimized = run_query(db, text)
        assert sorted(naive.rows) == sorted(optimized.rows)
        # Pushdown must reduce the filter work on the cross product.
        assert optimized.stats["filtered_out"] < naive.stats["filtered_out"]


class TestIndexSelection:
    def test_rewrites_to_index_scan(self, db):
        db.table("customers").create_index("city", kind="hash")
        query = select_indexes(
            parse("FOR c IN customers FILTER c.city == 'Prague' RETURN c.id"), db
        )
        assert isinstance(query.operations[0], IndexScanOp)
        assert query.operations[0].path == ("city",)

    def test_no_index_no_rewrite(self, db):
        query = select_indexes(
            parse("FOR c IN customers FILTER c.city == 'Prague' RETURN c"), db
        )
        assert isinstance(query.operations[0], ast.ForOp)

    def test_residual_filter_kept(self, db):
        db.table("customers").create_index("city", kind="hash")
        query = select_indexes(
            parse(
                "FOR c IN customers FILTER c.city == 'Prague' AND c.credit > 500 RETURN c"
            ),
            db,
        )
        scan = query.operations[0]
        assert isinstance(scan, IndexScanOp)
        assert scan.residual is not None

    def test_reversed_equality_matches(self, db):
        db.table("customers").create_index("city", kind="hash")
        query = select_indexes(
            parse("FOR c IN customers FILTER 'Prague' == c.city RETURN c"), db
        )
        assert isinstance(query.operations[0], IndexScanOp)

    def test_non_constant_value_not_indexed(self, db):
        db.table("customers").create_index("city", kind="hash")
        query = select_indexes(
            parse("FOR c IN customers FILTER c.city == c.other RETURN c"), db
        )
        assert isinstance(query.operations[0], ast.ForOp)

    def test_index_scan_results_match_scan(self, db):
        text = "FOR c IN customers FILTER c.city == 'Brno' RETURN c.id"
        naive = run_query(db, text, optimize_query=False)
        db.table("customers").create_index("city", kind="hash")
        indexed = run_query(db, text)
        assert sorted(naive.rows) == sorted(indexed.rows)
        assert indexed.stats["index_lookups"] == 1
        assert indexed.stats["scanned"] == 0

    def test_index_scan_with_bind_var(self, db):
        db.table("customers").create_index("city", kind="hash")
        result = run_query(
            db,
            "FOR c IN customers FILTER c.city == @city RETURN c.id",
            {"city": "Oslo"},
        )
        assert len(result.rows) == 10
        assert result.stats["index_lookups"] == 1

    def test_residual_applies(self, db):
        db.table("customers").create_index("city", kind="hash")
        result = run_query(
            db,
            "FOR c IN customers FILTER c.city == 'Prague' AND c.credit >= 2000 "
            "RETURN c.id",
        )
        assert all(db.table("customers").get(i)["credit"] >= 2000 for i in result.rows)
        assert result.stats["index_lookups"] == 1

    def test_index_serves_inside_transaction(self, db):
        db.table("customers").create_index("city", kind="hash")
        txn = db.begin()
        result = run_query(
            db,
            "FOR c IN customers FILTER c.city == 'Brno' RETURN c.id",
            txn=txn,
        )
        assert len(result.rows) == 10
        assert result.stats["index_lookups"] == 1
        db.abort(txn)


class TestExplain:
    def test_explain_shows_index(self, db):
        db.table("customers").create_index("city", kind="hash")
        plan = db.explain("FOR c IN customers FILTER c.city == 'Prague' RETURN c")
        assert "IndexScan" in plan
        assert "hash" in plan

    def test_explain_shows_scan_without_index(self, db):
        plan = db.explain("FOR c IN customers FILTER c.credit == 1 RETURN c")
        assert "Scan c IN customers" in plan
        assert "Filter" in plan

    def test_explain_traversal(self, db):
        db.create_graph("g")
        plan = db.explain("FOR f IN 1..2 ANY 'x' GRAPH g RETURN f")
        assert "Traverse" in plan
        assert "(adjacency)" in plan

    def test_full_query_plan_text(self, db):
        plan = render_plan(
            optimize(
                parse(
                    "FOR c IN customers FILTER c.credit > 1 SORT c.id LIMIT 3 RETURN c.id"
                ),
                db,
            )
        )
        for fragment in ("Scan", "Filter", "Sort", "Limit offset=0 count=3", "Return"):
            assert fragment in plan
