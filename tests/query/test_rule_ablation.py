"""Rule-ablation differential suite.

Every rewrite rule must be *semantically invisible*: for each workload
query, disabling any single rule must produce row-identical results to
the all-rules-on baseline.  The workload is UniBench Q1–Q5 (the
recommendation query and the cross-model mix) plus correlated-subquery
and shared-LET fixtures built to exercise the new rules specifically,
plus the nested-scope statements of :mod:`tests.query.nested_scopes`,
whose subqueries the optimizer plans as scopes of their own.

The suite also pins the EXPLAIN contract: ``rules_fired`` — rules fired
inside subqueries included — never contains a disabled rule, and always
stays within the enabled set.
"""

import json

import pytest

from repro.query import ast
from repro.query.engine import run_query
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.plan import HashJoinOp, IndexScanOp, render_plan
from repro.query.rules import rule_names
from repro.unibench import build_multimodel, generate
from repro.unibench.workloads import QUERIES_B
from tests.query.nested_scopes import (
    COLLECT_KEEPS_MEMBERS,
    COLLECT_QUERIES,
    LOOKUP_ERRORS,
    LOOKUP_QUERIES,
    LOOKUP_SCATTER,
    LOOKUP_WRITES,
    NESTED_QUERIES,
    PROBE_QUERY,
    WRITING_SUBQUERIES,
    load_lookup_collections,
    load_probe_collections,
    load_write_collections,
)

#: Nested-scope statements, the NULL / 1 vs 1.0 / missing probe keys, the
#: subqueries that write, the COLLECT … INTO statements and the
#: set-at-a-time lookups among them.
NESTED = {
    **NESTED_QUERIES,
    **COLLECT_QUERIES,
    "probe_keys": (PROBE_QUERY, {}),
    **WRITING_SUBQUERIES,
    **LOOKUP_QUERIES,
    **LOOKUP_WRITES,
    **LOOKUP_SCATTER,
}

#: Queries whose statements impose a total order on the result.
ORDERED = {"Q3", "Q4", *NESTED}

#: Fixtures aimed at the new rules: correlated existence subqueries in
#: both polarities and spellings, and an uncorrelated shared LET.
EXTRA_QUERIES = {
    "semi_inline": (
        """
        FOR c IN customers
          FILTER LENGTH(FOR o IN orders
                          FILTER o.customer_id == c.id RETURN o) > 0
          RETURN c.id
        """,
        {},
    ),
    "anti_let": (
        """
        FOR c IN customers
          LET mine = (FOR o IN orders
                        FILTER o.customer_id == c.id RETURN o)
          FILTER LENGTH(mine) == 0
          RETURN c.id
        """,
        {},
    ),
    "semi_residual": (
        """
        FOR c IN customers
          FILTER LENGTH(FOR o IN orders
                          FILTER o.customer_id == c.id
                            AND o.total >= @floor
                          RETURN o) >= 1
          RETURN c.id
        """,
        {"floor": 100},
    ),
    "shared_let": (
        """
        FOR c IN customers
          LET big_spenders = (FOR o IN orders
                                FILTER o.total >= @floor
                                RETURN o.customer_id)
          FILTER c.id IN big_spenders
          RETURN c.id
        """,
        {"floor": 100},
    ),
}

#: One indexed join filter in three spellings — two FILTERs in either
#: order, and one AND — that must plan alike.
FILTER_RUN_SPELLINGS = {
    "run_probe_first": "FILTER o.customer_id == c.id FILTER o.total >= @floor",
    "run_probe_second": "FILTER o.total >= @floor FILTER o.customer_id == c.id",
    "run_one_and": "FILTER o.total >= @floor AND o.customer_id == c.id",
}
EXTRA_QUERIES.update({
    name: (
        "FOR c IN customers FILTER c.city == @city FOR o IN orders "
        f"{filters} RETURN {{c: c.name, o: o.Order_no}}",
        {"city": "Prague", "floor": 100},
    )
    for name, filters in FILTER_RUN_SPELLINGS.items()
})

#: Reads by primary key: a table's key, a collection's and a bucket's
#: ``_key``, and a key probed once per outer frame.
PRIMARY_KEY_QUERIES = {
    "pk_point": ("FOR c IN customers FILTER c.id == @id RETURN c.name", {"id": 7}),
    "pk_doc_key": (
        "FOR o IN orders FILTER o._key == @key RETURN o.Order_no",
        {"key": "o000001"},
    ),
    "pk_bucket_key": ("FOR x IN cart FILTER x._key == @key RETURN x.value", {"key": "3"}),
    "pk_inner": (
        "FOR o IN orders FOR c IN customers FILTER c.id == o.customer_id "
        "RETURN {o: o.Order_no, c: c.name}",
        {},
    ),
}
EXTRA_QUERIES.update(PRIMARY_KEY_QUERIES)

ALL_QUERIES = {**QUERIES_B, **EXTRA_QUERIES, **NESTED}


def _canon(rows, ordered):
    if ordered:
        return [json.dumps(row, sort_keys=True, default=str) for row in rows]
    return sorted(
        json.dumps(row, sort_keys=True, default=str) for row in rows
    )


def _build():
    db = build_multimodel(generate(scale_factor=1, seed=11))
    load_probe_collections(db)
    load_write_collections(db)
    load_lookup_collections(db)
    return db


@pytest.fixture(scope="module")
def db():
    return _build()


@pytest.fixture(autouse=True)
def reset_toggles(db):
    yield
    for name in rule_names():
        db.optimizer_rules.enable(name)


@pytest.fixture(scope="module")
def baselines(db):
    out = {}
    for query_id, (text, binds) in ALL_QUERIES.items():
        out[query_id] = db.query(text, binds).rows
    return out


@pytest.mark.parametrize("rule", sorted(rule_names()))
@pytest.mark.parametrize("query_id", sorted(ALL_QUERIES))
def test_single_rule_ablation_preserves_rows(db, baselines, query_id, rule):
    text, binds = ALL_QUERIES[query_id]
    db.optimizer_rules.disable(rule)
    rows = db.query(text, binds).rows
    ordered = query_id in ORDERED
    assert _canon(rows, ordered) == _canon(baselines[query_id], ordered), (
        f"{query_id} changed rows with rule {rule!r} disabled"
    )


@pytest.mark.parametrize("rule", sorted(rule_names()))
@pytest.mark.parametrize("query_id", sorted(ALL_QUERIES))
def test_rules_fired_matches_enabled_set(db, query_id, rule):
    text, _binds = ALL_QUERIES[query_id]
    db.optimizer_rules.disable(rule)
    plan = optimize(parse(text), db)
    fired = set(plan.rules_fired)
    assert rule not in fired
    assert fired <= (set(rule_names()) - {rule})


def test_fixtures_are_not_vacuous(db, baselines):
    for query_id in ALL_QUERIES:
        assert baselines[query_id], f"{query_id} returned nothing"


def test_new_rules_actually_fire_on_fixtures(db):
    fired_anywhere = set()
    for query_id, (text, _binds) in EXTRA_QUERIES.items():
        fired_anywhere |= set(optimize(parse(text), db).rules_fired)
    assert "decorrelate_subquery" in fired_anywhere
    assert "materialize_let" in fired_anywhere


def test_primary_key_fixtures_probe_the_key_only_with_index_selection(db):
    for query_id, (text, _binds) in PRIMARY_KEY_QUERIES.items():
        kinds = [
            op.index_kind for op in optimize(parse(text), db).operations
            if isinstance(op, IndexScanOp)
        ]
        assert kinds == ["primary"], query_id
        plan = optimize(parse(text), db, disabled={"index_selection"})
        assert not any(isinstance(op, IndexScanOp) for op in plan.operations)


def test_collect_into_aggregate_fires_on_its_fixtures(db, baselines):
    for query_id, (text, _binds) in COLLECT_QUERIES.items():
        fired = "collect_into_aggregate" in optimize(parse(text), db).rules_fired
        assert fired == (query_id not in COLLECT_KEEPS_MEMBERS), query_id
    # The float fixture is one where the order of the additions shows …
    members: dict = {}
    for order in db.query("FOR o IN orders RETURN o").rows:
        city = db.table("customers").get(order["customer_id"])["city"]
        members.setdefault(city, []).append(order["total"] * 0.1)
    assert any(
        sum(tenths) != sum(reversed(tenths)) for tenths in members.values()
    )
    # … and the NULL fixture has groups without one non-NULL input.
    empty = [
        row for row in baselines["collect_into_null_inputs"]
        if row["category"] != "Book"
    ]
    assert empty and all(
        (row["total"], row["low"], row["high"], row["mean"], row["missing"])
        == (0, None, None, None, None) and row["n"] > 0
        for row in empty
    )


def test_every_spelling_of_a_filter_run_plans_the_same_index_scan(db, baselines):
    plans = set()
    for name in FILTER_RUN_SPELLINGS:
        text, _binds = ALL_QUERIES[name]
        plan = optimize(parse(text), db)
        scans = [op for op in plan.operations if isinstance(op, IndexScanOp)]
        assert [scan.path for scan in scans] == [("customer_id",)], name
        plans.add(render_plan(plan))
    assert len(plans) == 1
    rows = [_canon(baselines[name], False) for name in FILTER_RUN_SPELLINGS]
    assert rows[0] == rows[1] == rows[2]


def test_all_rules_off_equals_all_rules_on(db, baselines):
    for name in rule_names():
        db.optimizer_rules.disable(name)
    for query_id, (text, binds) in ALL_QUERIES.items():
        rows = db.query(text, binds).rows
        ordered = query_id in ORDERED
        assert _canon(rows, ordered) == _canon(
            baselines[query_id], ordered
        ), f"{query_id} changed rows with every rule disabled"


# ---------------------------------------------------------------------------
# Nested scopes: the subqueries the outer rules leave in the plan
# ---------------------------------------------------------------------------


def _inner_operations(plan, var):
    """Operations of the subquery that ``LET var = (…)`` holds in *plan*."""
    for operation in plan.operations:
        if isinstance(operation, ast.LetOp) and operation.var == var:
            assert isinstance(operation.value, ast.SubQuery)
            return operation.value.query.operations
    raise AssertionError(f"no LET {var} in the plan")


@pytest.mark.parametrize("query_id", sorted({"Q4", *NESTED}))
def test_nested_scope_rows_equal_unoptimized(db, query_id):
    text, binds = ALL_QUERIES[query_id]
    naive = run_query(db, text, binds, optimize_query=False).rows
    assert naive, "vacuous equivalence"
    assert _canon(db.query(text, binds).rows, True) == _canon(naive, True)


def test_q4_probes_the_feedback_index_inside_its_subquery(db):
    text, binds = QUERIES_B["Q4"]
    head = _inner_operations(optimize(parse(text), db), "praise")[0]
    assert isinstance(head, IndexScanOp)
    assert head.index_name == "hash:doc:feedback:product_no"
    explained = db.explain(text)
    assert (
        "IndexScan f IN feedback USING hash index "
        "'hash:doc:feedback:product_no'" in explained
    )
    assert db.query(text, binds).stats["scanned"] == 0

    db.optimizer_rules.disable("index_selection")
    head, follower = _inner_operations(optimize(parse(text), db), "praise")[:2]
    assert isinstance(head, ast.ForOp) and isinstance(follower, ast.FilterOp)
    explained = db.explain(text)
    assert "Scan f IN feedback" in explained and "IndexScan" not in explained


def test_a_subquery_head_over_an_unindexed_path_stays_a_filter_scan(db):
    """No index serves ``feedback.customer_id``; a hash join there would
    rebuild its table for every customer."""
    text, _binds = NESTED["let_list_unindexed"]
    plan = optimize(parse(text), db)
    inner = _inner_operations(plan, "said")
    assert isinstance(inner[0], ast.ForOp) and isinstance(inner[1], ast.FilterOp)
    assert not any(isinstance(op, HashJoinOp) for op in inner)
    assert "hash_join" not in plan.rules_fired


def test_rules_fired_lists_rules_that_fired_only_inside_a_subquery(db):
    text, _binds = NESTED["subquery_in_return"]
    plan = optimize(parse(text), db)
    # No index serves the outer ``c.city == @city``: index selection can
    # only have fired inside the RETURN's subquery.
    assert not any(isinstance(op, IndexScanOp) for op in plan.operations)
    assert "index_selection" in plan.rules_fired
    assert "Rules fired: index_selection" in db.explain(text)


def test_a_for_over_an_enclosing_variable_is_not_an_index_scan(db):
    """``orders`` names a collection with an index on ``customer_id`` —
    and, here, an outer variable, which is what the inner FOR iterates."""
    text = """
    LET orders = [{customer_id: 3, Order_no: 'mine'}]
    FOR c IN customers
      FILTER c.id <= 5
      SORT c.id
      RETURN {id: c.id,
              own: (FOR o IN orders
                      FILTER o.customer_id == c.id RETURN o.Order_no)}
    """
    rows = db.query(text).rows
    assert rows == run_query(db, text, optimize_query=False).rows
    assert [row["own"] for row in rows] == [[], [], ["mine"], [], []]


@pytest.mark.parametrize("query_id", sorted({"Q4", *NESTED_QUERIES}))
def test_nested_scopes_inside_a_transaction_with_uncommitted_writes(
    db, query_id
):
    """Indexes hold committed state only: inside the transaction the
    planned subqueries must see its own feedback and orders."""
    text, binds = ALL_QUERIES[query_id]
    committed = db.query(text, binds).rows
    txn = db.begin()
    try:
        for product in db.query(
            "FOR p IN products FILTER p.category == 'Book' RETURN p.product_no"
        ).rows:
            db.collection("feedback").insert(
                {"_key": f"txn-{product}", "product_no": product,
                 "customer_id": 1, "positive": True, "text": "uncommitted"},
                txn=txn,
            )
        for customer in range(1, 101):
            for extra in range(1 + customer % 4):
                number = f"txn-{customer}-{extra}"
                db.collection("orders").insert(
                    {"_key": number, "Order_no": number,
                     "customer_id": customer, "total": 500, "Orderlines": []},
                    txn=txn,
                )
        inside = db.query(text, binds, txn=txn).rows
        naive = run_query(
            db, text, binds, txn=txn, optimize_query=False
        ).rows
    finally:
        db.abort(txn)
    assert _canon(inside, True) == _canon(naive, True)
    assert _canon(inside, True) != _canon(committed, True), (
        "the uncommitted writes did not reach the statement"
    )
    assert _canon(db.query(text, binds).rows, True) == _canon(committed, True)


def test_drop_index_after_a_cached_run_falls_back_to_the_scan_plan():
    db = _build()
    text, binds = QUERIES_B["Q4"]
    db.query(text, binds)
    cached = db.query(text, binds)
    assert cached.stats["plan_cached"]
    assert "hash:doc:feedback:product_no" in cached.stats["indexes_used"]
    db.context.indexes.drop_index("hash:doc:feedback:product_no")
    replanned = db.query(text, binds)
    assert not replanned.stats["plan_cached"]
    assert replanned.rows == cached.rows
    assert "hash:doc:feedback:product_no" not in replanned.stats["indexes_used"]
    assert "Scan f IN feedback" in db.explain(text)


# ---------------------------------------------------------------------------
# Set-at-a-time lookups: the lookup_join rule, on and off
# ---------------------------------------------------------------------------


def _error_class(db, text, **options):
    try:
        run_query(db, text, {}, **options)
    except Exception as error:
        return type(error).__name__
    return None


@pytest.mark.parametrize("name", sorted(LOOKUP_ERRORS))
@pytest.mark.parametrize("rule", [None, "lookup_join", "index_selection"])
def test_lookup_errors_keep_their_class(db, name, rule):
    """The frame that fails first, and so the error class, is the
    unoptimized statement's whichever lookups gather a batch."""
    text, expected = LOOKUP_ERRORS[name]
    assert _error_class(db, text, optimize_query=False) == expected
    if rule is not None:
        db.optimizer_rules.disable(rule)
    assert _error_class(db, text) == expected


def test_lookup_join_fires_on_its_fixtures_and_not_in_writes(db):
    fired = {
        name: "lookup_join" in optimize(parse(text), db).rules_fired
        for name, (text, _binds) in {
            **LOOKUP_QUERIES, **LOOKUP_SCATTER, **LOOKUP_WRITES, **QUERIES_B
        }.items()
    }
    assert {name for name, on in fired.items() if on} == {
        "lookup_document_keys", "lookup_kv_keys", "lookup_one_hop",
        "lookup_one_hop_any_label", "lookup_document_per_order",
        "lookup_friends_carts", "Q1", "Q3", "Q5",
    }
    # A writing statement keeps its index probes frame by frame too.
    text, _binds = LOOKUP_WRITES["lookup_in_a_writing_statement"]
    plan = optimize(parse(text), db)
    scans = [op for op in plan.operations if isinstance(op, IndexScanOp)]
    assert scans and all(scan.per_frame for scan in scans)
    text, _binds = LOOKUP_QUERIES["lookup_index_keys"]
    scans = [
        op for op in optimize(parse(text), db).operations
        if isinstance(op, IndexScanOp)
    ]
    assert scans and not any(scan.per_frame for scan in scans)


@pytest.mark.parametrize("query_id", sorted(LOOKUP_QUERIES))
def test_lookups_inside_a_transaction_see_its_own_writes(db, query_id):
    """Every store a lookup probes reads the transaction's snapshot, with
    the rule on and off."""
    text, binds = LOOKUP_QUERIES[query_id]
    committed = db.query(text, binds).rows
    txn = db.begin()
    try:
        db.collection("lookup_docs").update("a", {"tag": "txn"}, txn=txn)
        db.table("lookup_table").update(1, {"tag": "txn"}, txn=txn)
        db.bucket("lookup_bucket").put("a", "txn", txn=txn)
        for name in ("lookup_index", "lookup_plain"):
            db.collection(name).insert({"_key": "txn", "k": "a", "w": 0}, txn=txn)
        db.graph("lookup_graph").add_edge("b", "c", "knows", txn=txn)
        inside = db.query(text, binds, txn=txn).rows
        db.optimizer_rules.disable("lookup_join")
        without = db.query(text, binds, txn=txn).rows
        naive = run_query(db, text, binds, txn=txn, optimize_query=False).rows
    finally:
        db.abort(txn)
    assert inside == without == naive
    assert inside != committed, "the uncommitted writes did not reach it"
    assert db.query(text, binds).rows == committed
