"""Differential testing of the hash-join rewrite.

Every query here triggers (or must be proven to trigger) the optimizer's
hash-join rule; each one is executed twice — rewrite on and rewrite off —
and the results are compared order-insensitively.  The corner cases the
hash table must get right are the ones nested-loop + filter gets right for
free: NULL join keys (``null == null`` matches under the model's total
order), missing attributes (which read as NULL), duplicate keys on both
sides, numeric cross-type equality (``1 == 1.0``), an empty build side,
and residual conjuncts evaluated after the join.
"""

import pytest

from repro.core import datamodel
from repro.core.database import MultiModelDB
from repro.query.executor import ExecContext, Result, execute_stream
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.plan import HashJoinOp


def execute(ctx, plan):
    """Drain *plan*'s batches, as a query cursor does."""
    rows = [row for batch in execute_stream(ctx, plan) for row in batch]
    return Result(rows, ctx.stats)


def _rows_normalized(rows):
    return sorted(datamodel.canonical_json(row) for row in rows)


def run_both_ways(db, text, bind_vars=None, expect_rewrite=True):
    """Execute *text* with and without the hash-join rewrite; assert the
    rewrite fired (unless told otherwise) and both row sets match."""
    plan_on = optimize(parse(text), db)
    plan_off = optimize(parse(text), db, disabled=("hash_join",))
    has_join = any(isinstance(op, HashJoinOp) for op in plan_on.operations)
    assert has_join == expect_rewrite, (
        f"hash-join rewrite {'did not fire' if expect_rewrite else 'fired'} "
        f"for:\n{text}"
    )
    assert not any(isinstance(op, HashJoinOp) for op in plan_off.operations)
    result_on = execute(ExecContext(db=db, bind_vars=bind_vars or {}), plan_on)
    result_off = execute(ExecContext(db=db, bind_vars=bind_vars or {}), plan_off)
    assert _rows_normalized(result_on.rows) == _rows_normalized(result_off.rows)
    return result_on


@pytest.fixture()
def db():
    database = MultiModelDB()
    left = database.create_collection("left_side")
    right = database.create_collection("right_side")
    for document in [
        {"_key": "l1", "k": 1, "tag": "a"},
        {"_key": "l2", "k": 2, "tag": "b"},
        {"_key": "l3", "k": 2, "tag": "c"},       # duplicate outer key
        {"_key": "l4", "k": None, "tag": "d"},    # explicit NULL key
        {"_key": "l5", "tag": "e"},               # missing key → NULL
        {"_key": "l6", "k": 3.0, "tag": "f"},     # float vs int equality
        {"_key": "l7", "k": 99, "tag": "g"},      # no partner
    ]:
        left.insert(document)
    for document in [
        {"_key": "r1", "k": 1, "val": 10},
        {"_key": "r2", "k": 2, "val": 20},
        {"_key": "r3", "k": 2, "val": 21},        # duplicate build key
        {"_key": "r4", "k": None, "val": 30},     # NULL build key
        {"_key": "r5", "val": 31},                # missing build key → NULL
        {"_key": "r6", "k": 3, "val": 40},        # int matched by 3.0
    ]:
        right.insert(document)
    database.create_collection("empty_side")
    return database


JOIN = """
FOR l IN left_side
  FOR r IN right_side
    FILTER r.k == l.k
    RETURN {tag: l.tag, val: r.val}
"""


class TestEquivalence:
    def test_duplicates_both_sides(self, db):
        result = run_both_ways(db, JOIN)
        # 2x2 duplicate block: l2/l3 each join r2/r3.
        tags = [row["tag"] for row in result.rows]
        assert tags.count("b") == 2 and tags.count("c") == 2

    def test_null_keys_match_null_keys(self, db):
        result = run_both_ways(db, JOIN)
        # l4 (null) and l5 (missing) each match r4 (null) and r5 (missing).
        null_rows = [row for row in result.rows if row["tag"] in ("d", "e")]
        assert len(null_rows) == 4
        assert sorted(row["val"] for row in null_rows) == [30, 30, 31, 31]

    def test_numeric_cross_type_equality(self, db):
        result = run_both_ways(db, JOIN)
        assert {"tag": "f", "val": 40} in result.rows

    def test_unmatched_probe_rows_drop(self, db):
        result = run_both_ways(db, JOIN)
        assert all(row["tag"] != "g" for row in result.rows)

    def test_empty_build_side(self, db):
        result = run_both_ways(
            db,
            """
            FOR l IN left_side
              FOR r IN empty_side
                FILTER r.k == l.k
                RETURN r
            """,
        )
        assert result.rows == []

    def test_empty_probe_side_skips_build(self, db):
        result = run_both_ways(
            db,
            """
            FOR l IN empty_side
              FOR r IN right_side
                FILTER r.k == l.k
                RETURN r
            """,
        )
        assert result.rows == []
        # Lazy build: no outer frame ever arrived, so no table was built.
        assert result.stats["hash_join_builds"] == 0

    def test_residual_conjunct(self, db):
        result = run_both_ways(
            db,
            """
            FOR l IN left_side
              FOR r IN right_side
                FILTER r.k == l.k AND r.val >= @floor
                RETURN {tag: l.tag, val: r.val}
            """,
            {"floor": 21},
        )
        assert result.rows
        assert all(row["val"] >= 21 for row in result.rows)

    def test_reversed_equality_sides(self, db):
        run_both_ways(
            db,
            """
            FOR l IN left_side
              FOR r IN right_side
                FILTER l.k == r.k
                RETURN {tag: l.tag, val: r.val}
            """,
        )

    def test_constant_probe_inner_loop(self, db):
        result = run_both_ways(
            db,
            """
            FOR l IN left_side
              FOR r IN right_side
                FILTER r.k == 2
                RETURN {tag: l.tag, val: r.val}
            """,
        )
        # Every outer row pairs with both k==2 build rows.
        assert len(result.rows) == 7 * 2

    def test_bind_var_probe(self, db):
        result = run_both_ways(
            db,
            """
            FOR l IN left_side
              FOR r IN right_side
                FILTER r.k == @k
                RETURN r.val
            """,
            {"k": 1},
        )
        assert result.rows == [10] * 7


class TestRewriteScope:
    """Shapes the rewrite must leave alone."""

    def test_outermost_loop_not_rewritten(self, db):
        # A top-level scan+filter runs once — nothing to hash-join.
        run_both_ways(
            db,
            "FOR r IN right_side FILTER r.k == 2 RETURN r.val",
            expect_rewrite=False,
        )

    def test_array_iteration_not_rewritten(self, db):
        # The inner FOR iterates a bound variable, not a collection.
        run_both_ways(
            db,
            """
            FOR l IN left_side
              LET pair = [l.k, 2]
              FOR p IN pair
                FILTER p == 2
                RETURN p
            """,
            expect_rewrite=False,
        )

    def test_correlated_self_reference_not_rewritten(self, db):
        # Probe depends on the inner variable itself: no valid build key.
        run_both_ways(
            db,
            """
            FOR l IN left_side
              FOR r IN right_side
                FILTER r.k == r.val
                RETURN r
            """,
            expect_rewrite=False,
        )

    def test_index_takes_precedence(self, db):
        db.context.indexes.create_index("doc:right_side", ("k",), kind="hash")
        text = JOIN
        plan = optimize(parse(text), db)
        from repro.query.plan import IndexScanOp

        assert any(isinstance(op, IndexScanOp) for op in plan.operations)
        assert not any(isinstance(op, HashJoinOp) for op in plan.operations)


class TestExplain:
    def test_hash_join_visible_in_plan(self, db):
        rendered = db.explain(JOIN)
        assert "HashJoin r IN right_side ON k ==" in rendered

    def test_explain_analyze_shows_hash_join(self, db):
        result = db.query("EXPLAIN ANALYZE " + JOIN)
        assert "HashJoin" in result.analyzed
        assert any(
            entry["operator"] == "HashJoinOp" for entry in result.op_stats
        )
