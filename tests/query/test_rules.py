"""Rewrite-rule engine tests: registry, toggles, fixpoint, decorrelation,
shared materialization, predicate split, suggestions, and the cardinality
feedback loop."""

import pytest

from repro.core.database import MultiModelDB
from repro.errors import FunctionError
from repro.query import ast
from repro.query.engine import run_query
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.plan import (
    AntiJoinOp,
    HashJoinOp,
    IndexScanOp,
    MaterializeOp,
    SemiJoinOp,
    render_plan,
)
from repro.query.rules import (
    REGISTRY,
    RuleToggles,
    SuggestionLog,
    rule_names,
)
from repro.query.statistics import StatisticsStore, predicate_fingerprint
from repro.query.visit import reads


@pytest.fixture()
def db():
    database = MultiModelDB()
    customers = database.create_collection("customers")
    orders = database.create_collection("orders")
    for i in range(20):
        customers.insert({"_key": f"c{i}", "id": i, "name": f"n{i}"})
    for i in range(0, 20, 2):
        orders.insert({"_key": f"o{i}", "cust": i, "total": i * 10})
    return database


SEMI_INLINE = """
FOR c IN customers
  FILTER LENGTH(FOR o IN orders FILTER o.cust == c.id RETURN o) > 0
  RETURN c.id
"""

ANTI_LET = """
FOR c IN customers
  LET matching = (FOR o IN orders FILTER o.cust == c.id RETURN o)
  FILTER LENGTH(matching) == 0
  RETURN c.id
"""

SHARED_LET = """
FOR c IN customers
  LET bigs = (FOR o IN orders FILTER o.total >= 100 RETURN o.cust)
  FILTER c.id IN bigs
  RETURN c.id
"""

#: Existence tests over a correlated subquery, and the join each becomes.
EXISTENCE = (
    "FOR c IN customers FILTER LENGTH(FOR o IN orders "
    "FILTER o.cust == c.id RETURN o) {test} RETURN c.id"
)
EXISTENCE_TESTS = [
    ("> 0", SemiJoinOp),
    (">= 1", SemiJoinOp),
    ("!= 0", SemiJoinOp),
    ("== 0", AntiJoinOp),
    ("< 1", AntiJoinOp),
    ("<= 0", AntiJoinOp),
]

#: COLLECT … INTO statements, by the tail after :data:`BY_PARITY`.
BY_PARITY = "FOR o IN orders LET even = o.cust % 4 == 0 COLLECT k = even INTO g "

#: Tails that use the members in a way the rule must leave alone.
MEMBER_LIST_TAILS = [
    "RETURN {n: LENGTH(g), s: SUM(g[*].o.total)}",   # LENGTH(m)
    "RETURN {g, s: SUM(g[*].o.total)}",               # m returned whole
    "RETURN {all: g[*].o.total, s: SUM(g[*].o.total)}",  # m[*] bare
    "RETURN SUM(g[*].o.total[0])",                    # not a pure path
    "RETURN SUM(g[*].nobody.total)",                  # not a frame variable
    "RETURN UNIQUE(g[*].o.total)",                    # no running form
    "LET g = 1 RETURN g",                             # rebound
    "RETURN (FOR x IN g RETURN x.o.total)",           # read in a subquery
    # a subquery's own members would show the swap
    "RETURN {s: SUM(g[*].o.total), "
    "inner: (FOR i IN 1..1 COLLECT j = i INTO h RETURN h)}",
    # and so would a later COLLECT … INTO
    "LET s = SUM(g[*].o.total) COLLECT j = s > 0 INTO h RETURN h",
    # aggregates some group may never reach
    "FILTER k RETURN SUM(g[*].o.total)",
    "SORT k LIMIT 1 RETURN MAX(g[*].o.total)",
    "FOR i IN [] RETURN AVG(g[*].o.total)",
    "RETURN k ? SUM(g[*].o.total) : 0",
    "RETURN k AND MIN(g[*].o.total) > 0",
    "RETURN [1, 2][* FILTER SUM(g[*].o.total) > 0]",
]


class TestRegistry:
    def test_registry_order_and_names(self):
        assert [rule.name for rule in REGISTRY] == [
            "constant_folding",
            "predicate_split",
            "filter_pushdown",
            "collect_into_aggregate",
            "decorrelate_subquery",
            "materialize_let",
            "index_selection",
            "hash_join",
            "lookup_join",
        ]
        assert set(rule_names()) == {r.name for r in REGISTRY}

    def test_ast_safe_subset(self):
        safe = {rule.name for rule in REGISTRY if rule.ast_safe}
        assert safe == {
            "constant_folding",
            "predicate_split",
            "filter_pushdown",
            "collect_into_aggregate",
        }

    def test_every_rule_has_description(self):
        assert all(rule.description for rule in REGISTRY)


class TestToggles:
    def test_disable_enable_roundtrip(self):
        toggles = RuleToggles()
        toggles.disable("hash_join")
        assert not toggles.is_enabled("hash_join")
        assert toggles.disabled == frozenset({"hash_join"})
        toggles.enable("hash_join")
        assert toggles.is_enabled("hash_join")

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            RuleToggles().disable("nonsense")

    def test_fingerprint_is_sorted_and_stable(self):
        toggles = RuleToggles()
        toggles.disable("hash_join")
        toggles.disable("constant_folding")
        assert toggles.fingerprint() == ("constant_folding", "hash_join")

    def test_db_toggles_respected(self, db):
        db.optimizer_rules.disable("decorrelate_subquery")
        plan = optimize(parse(SEMI_INLINE), db)
        assert not any(
            isinstance(op, SemiJoinOp) for op in plan.operations
        )
        assert "decorrelate_subquery" not in plan.rules_fired


class TestFixpoint:
    def test_rules_fired_recorded(self, db):
        plan = optimize(parse(SEMI_INLINE), db)
        assert "decorrelate_subquery" in plan.rules_fired

    def test_no_rules_fired_on_trivial_query(self, db):
        plan = optimize(parse("FOR c IN customers RETURN c"), db)
        assert plan.rules_fired == ()

    def test_input_query_never_mutated(self, db):
        query = parse(SEMI_INLINE)
        optimize(query, db)
        assert query.rules_fired == ()

    def test_ast_only_skips_physical_rules(self, db):
        plan = optimize(parse(SEMI_INLINE), db, ast_only=True)
        assert not any(
            isinstance(op, SemiJoinOp) for op in plan.operations
        )

    def test_disabled_argument_composes_with_the_database_toggles(self, db):
        text = (
            "FOR l IN customers FOR r IN orders "
            "FILTER r.cust == l.id RETURN r"
        )
        assert "hash_join" in optimize(parse(text), db).rules_fired
        plan = optimize(parse(text), db, disabled=("hash_join",))
        assert "hash_join" not in plan.rules_fired


class TestDecorrelation:
    def test_inline_semi_join(self, db):
        plan = optimize(parse(SEMI_INLINE), db)
        joins = [op for op in plan.operations if isinstance(op, SemiJoinOp)]
        assert len(joins) == 1
        assert not isinstance(joins[0], AntiJoinOp)
        rows = db.query(SEMI_INLINE).rows
        assert sorted(rows) == list(range(0, 20, 2))

    def test_let_anti_join(self, db):
        plan = optimize(parse(ANTI_LET), db)
        assert any(isinstance(op, AntiJoinOp) for op in plan.operations)
        # The private LET is consumed by the rewrite.
        assert not any(
            isinstance(op, ast.LetOp) for op in plan.operations
        )
        rows = db.query(ANTI_LET).rows
        assert sorted(rows) == list(range(1, 20, 2))

    @pytest.mark.parametrize("test,kind", EXISTENCE_TESTS)
    def test_existence_test_spellings(self, db, test, kind):
        plan = optimize(parse(EXISTENCE.format(test=test)), db)
        joins = [op for op in plan.operations if isinstance(op, SemiJoinOp)]
        assert len(joins) == 1 and type(joins[0]) is kind

    def test_mirrored_literal_first(self, db):
        text = (
            "FOR c IN customers FILTER 0 < LENGTH(FOR o IN orders "
            "FILTER o.cust == c.id RETURN o) RETURN c.id"
        )
        plan = optimize(parse(text), db)
        assert any(
            type(op) is SemiJoinOp for op in plan.operations
        )

    def test_residual_conjunct_preserved(self, db):
        text = (
            "FOR c IN customers FILTER LENGTH(FOR o IN orders "
            "FILTER o.cust == c.id AND o.total >= 100 RETURN o) > 0 "
            "RETURN c.id"
        )
        plan = optimize(parse(text), db)
        joins = [op for op in plan.operations if isinstance(op, SemiJoinOp)]
        assert len(joins) == 1 and joins[0].residual is not None
        assert sorted(db.query(text).rows) == [10, 12, 14, 16, 18]

    def test_dml_subquery_not_decorrelated(self, db):
        text = (
            "FOR c IN customers FILTER LENGTH(FOR o IN orders "
            "FILTER o.cust == c.id "
            "INSERT {cust: o.cust} INTO orders) > 0 RETURN c.id"
        )
        plan = optimize(parse(text), db)
        assert not any(isinstance(op, SemiJoinOp) for op in plan.operations)

    def test_shared_let_not_decorrelated(self, db):
        # The LET variable is read outside the existence test too.
        text = (
            "FOR c IN customers "
            "LET m = (FOR o IN orders FILTER o.cust == c.id RETURN o) "
            "FILTER LENGTH(m) > 0 RETURN {id: c.id, n: LENGTH(m)}"
        )
        plan = optimize(parse(text), db)
        assert not any(isinstance(op, SemiJoinOp) for op in plan.operations)

    def test_unsafe_return_not_decorrelated(self, db):
        # The inner RETURN runs its own subquery — existence of the outer
        # row cannot be decided by a hash lookup.
        text = (
            "FOR c IN customers FILTER LENGTH(FOR o IN orders "
            "FILTER o.cust == c.id "
            "RETURN LENGTH(FOR x IN orders RETURN x)) > 0 RETURN c.id"
        )
        plan = optimize(parse(text), db)
        assert not any(isinstance(op, SemiJoinOp) for op in plan.operations)

    def test_build_index_suggested(self, db):
        optimize(parse(SEMI_INLINE), db)
        assert any(
            suggestion.source == "orders"
            and suggestion.path == ("cust",)
            and suggestion.rule == "decorrelate_subquery"
            for suggestion, _count in db.index_suggestions.entries()
        )


class TestMaterialization:
    def test_uncorrelated_let_materialized(self, db):
        plan = optimize(parse(SHARED_LET), db)
        assert any(
            isinstance(op, MaterializeOp) for op in plan.operations
        )
        assert sorted(db.query(SHARED_LET).rows) == [10, 12, 14, 16, 18]

    def test_computed_once(self, db):
        result = db.query(SHARED_LET)
        assert result.stats["materialized_subqueries"] == 1

    def test_correlated_let_not_materialized(self, db):
        text = (
            "FOR c IN customers "
            "LET m = (FOR o IN orders FILTER o.cust == c.id RETURN o) "
            "RETURN {id: c.id, n: LENGTH(m)}"
        )
        plan = optimize(parse(text), db)
        assert not any(
            isinstance(op, MaterializeOp) for op in plan.operations
        )

    def test_write_query_not_materialized(self, db):
        text = (
            "FOR c IN customers "
            "LET bigs = (FOR o IN orders FILTER o.total >= 100 RETURN o.cust) "
            "FILTER c.id IN bigs "
            "INSERT {id: c.id} INTO customers"
        )
        plan = optimize(parse(text), db)
        assert not any(
            isinstance(op, MaterializeOp) for op in plan.operations
        )

    def test_top_level_let_not_materialized(self, db):
        # No upstream multi-frame op → the LET already runs exactly once.
        text = (
            "LET bigs = (FOR o IN orders FILTER o.total >= 100 RETURN o.cust) "
            "FOR c IN customers FILTER c.id IN bigs RETURN c.id"
        )
        plan = optimize(parse(text), db)
        assert not any(
            isinstance(op, MaterializeOp) for op in plan.operations
        )


class TestPredicateSplit:
    def test_mixed_conjunction_splits(self, db):
        text = (
            "FOR c IN customers FOR o IN orders "
            "FILTER o.cust == c.id AND c.name == 'n4' RETURN o"
        )
        plan = optimize(
            parse(text), db, disabled=("index_selection", "hash_join")
        )
        assert "predicate_split" in plan.rules_fired
        filters = [
            op for op in plan.operations if isinstance(op, ast.FilterOp)
        ]
        assert len(filters) == 2
        # The c-only conjunct was pushed above the orders loop.
        for_index = [
            i
            for i, op in enumerate(plan.operations)
            if isinstance(op, ast.ForOp) and op.var == "o"
        ][0]
        assert any(
            isinstance(op, ast.FilterOp)
            for op in plan.operations[:for_index]
        )

    def test_single_variable_conjunction_not_split(self, db):
        text = (
            "FOR o IN orders "
            "FILTER o.cust == 4 AND o.total >= 40 RETURN o"
        )
        plan = optimize(parse(text), db, disabled=("index_selection",))
        assert "predicate_split" not in plan.rules_fired

    def test_split_feeds_traversal_pushdown(self):
        graph_db = MultiModelDB()
        starts = graph_db.create_collection("starts")
        starts.insert({"_key": "s1", "v": "a", "w": 1})
        starts.insert({"_key": "s2", "v": "b", "w": 9})
        graph = graph_db.create_graph("social")
        for key, age in (("a", 30), ("b", 40), ("c", 50)):
            graph.add_vertex(key, {"age": age})
        graph.add_edge("a", "b", label="knows")
        graph.add_edge("b", "c", label="knows")
        text = (
            "FOR s IN starts "
            "FOR x IN 1..2 OUTBOUND s.v GRAPH social "
            "FILTER x.age >= 50 AND s.w <= 1 RETURN x.age"
        )
        plan = optimize(parse(text), graph_db)
        assert "predicate_split" in plan.rules_fired
        # The s-only conjunct moved above the traversal…
        traversal_index = [
            i
            for i, op in enumerate(plan.operations)
            if isinstance(op, ast.TraversalOp)
        ][0]
        before = [
            op
            for op in plan.operations[:traversal_index]
            if isinstance(op, ast.FilterOp)
        ]
        assert len(before) == 1
        # …and results are unchanged with the rules off.
        rows = graph_db.query(text).rows
        graph_db.optimizer_rules.disable("predicate_split")
        graph_db.optimizer_rules.disable("filter_pushdown")
        assert sorted(rows) == sorted(graph_db.query(text).rows)
        assert rows == [50]


class TestCollectIntoAggregate:
    """``COLLECT … INTO m`` read only through ``AGG(m[*].v.path)`` keeps
    running aggregates; any other use of ``m`` keeps the member lists."""

    BY_PARITY = BY_PARITY

    def _collect(self, plan):
        """The statement's first COLLECT."""
        return next(
            op for op in plan.operations if isinstance(op, ast.CollectOp)
        )

    def _rows(self, db, text):
        rows = db.query(text).rows
        assert rows == run_query(db, text, optimize_query=False).rows
        return rows

    def test_every_running_aggregate_folds_and_the_uses_become_variables(self, db):
        text = self.BY_PARITY + (
            "SORT k RETURN {k, s: SUM(g[*].o.total), lo: MIN(g[*].o.total), "
            "hi: MAX(g[*].o.total), mean: AVG(g[*].o.total), "
            "n: COUNT(g[*].o), again: SUM(g[*].o.total) + 1}"
        )
        plan = optimize(parse(text), db)
        assert "collect_into_aggregate" in plan.rules_fired
        collect = self._collect(plan)
        assert collect.into is None
        # One accumulator per distinct (function, path): ``again`` shares.
        assert [(func, repr(arg)) for _name, func, arg in collect.aggregates] == [
            (func, repr(parse(f"RETURN {path}").operations[0].expr))
            for func, path in [
                ("SUM", "o.total"), ("MIN", "o.total"), ("MAX", "o.total"),
                ("AVG", "o.total"), ("COUNT", "o"),
            ]
        ]
        assert not any("g" in reads(op) for op in plan.operations)
        assert self._rows(db, text) == [
            {"k": False, "s": 500, "lo": 20, "hi": 180, "mean": 100.0, "n": 5,
             "again": 501},
            {"k": True, "s": 400, "lo": 0, "hi": 160, "mean": 80.0, "n": 5,
             "again": 401},
        ]

    def test_explain_shows_the_rule_and_the_aggregates(self, db):
        text = self.BY_PARITY + "RETURN {k, s: SUM(g[*].o.total)}"
        explained = db.explain(text)
        assert "Collect k = even AGGREGATE g_0 = SUM(o.total)" in explained
        assert "Rules fired: collect_into_aggregate" in explained

    def test_let_variable_without_a_path_and_existing_aggregates(self, db):
        text = (
            "FOR o IN orders LET t = o.total "
            "COLLECT k = o.cust % 4 == 0 AGGREGATE top = MAX(o.total) INTO g "
            "SORT k RETURN [k, top, SUM(g[*].t)]"
        )
        collect = self._collect(optimize(parse(text), db))
        assert [name for name, _f, _a in collect.aggregates] == ["top", "g_0"]
        assert self._rows(db, text) == [[False, 180, 500], [True, 160, 400]]

    def test_fresh_name_steps_aside_for_a_user_variable(self, db):
        text = (
            "FOR o IN orders LET g_0 = 7 COLLECT k = o.cust % 4 == 0 INTO g "
            "SORT k RETURN [k, SUM(g[*].o.total), MAX(g[*].g_0)]"
        )
        collect = self._collect(optimize(parse(text), db))
        assert [name for name, _f, _a in collect.aggregates] == ["_g_0", "g_1"]
        assert self._rows(db, text) == [[False, 500, 7], [True, 400, 7]]

    def test_toggle_keeps_the_member_lists(self, db):
        text = self.BY_PARITY + "RETURN SUM(g[*].o.total)"
        db.optimizer_rules.disable("collect_into_aggregate")
        plan = optimize(parse(text), db)
        assert self._collect(plan).into == "g"
        assert "collect_into_aggregate" not in plan.rules_fired

    @pytest.mark.parametrize("tail", MEMBER_LIST_TAILS)
    def test_any_other_use_of_the_members_leaves_the_collect_alone(self, db, tail):
        text = self.BY_PARITY + tail
        plan = optimize(parse(text), db)
        assert "collect_into_aggregate" not in plan.rules_fired
        assert self._collect(plan).into == "g"
        self._rows(db, text)

    def test_a_use_evaluated_for_every_group_folds_wherever_it_stands(self, db):
        text = self.BY_PARITY + (
            "LET s = SUM(g[*].o.total) SORT -MAX(g[*].o.total) "
            "FILTER s + MIN(g[*].o.total) >= 400 "
            "LIMIT 5 RETURN [k, s, COUNT(g[*].o)]"
        )
        plan = optimize(parse(text), db)
        collect = self._collect(plan)
        # LET, SORT and the FILTER's own condition see every group; COUNT
        # cannot fail, so it folds behind the FILTER and the LIMIT too.
        assert [func for _name, func, _arg in collect.aggregates] == [
            "SUM", "MAX", "MIN", "COUNT",
        ]
        assert collect.into is None
        assert self._rows(db, text) == [[False, 500, 5], [True, 400, 5]]

    def test_a_bad_input_in_a_group_the_filter_drops_does_not_fail_the_query(
        self, db
    ):
        db.collection("orders").insert({"_key": "bad", "cust": 99, "total": "n/a"})
        text = (
            "FOR o IN orders COLLECT c = o.cust INTO m FILTER c < 4 SORT c "
            "RETURN {c, s: SUM(m[*].o.total)}"
        )
        assert "collect_into_aggregate" not in optimize(parse(text), db).rules_fired
        assert self._rows(db, text) == [{"c": 0, "s": 0}, {"c": 2, "s": 20}]
        # With nothing between the COLLECT and the use both forms raise.
        unguarded = "FOR o IN orders COLLECT c = o.cust INTO m RETURN SUM(m[*].o.total)"
        assert "collect_into_aggregate" in optimize(parse(unguarded), db).rules_fired
        for optimized in (True, False):
            with pytest.raises(FunctionError, match="SUM: array contains a string"):
                run_query(db, unguarded, optimize_query=optimized).rows

    def test_a_statement_that_writes_is_left_alone(self, db):
        db.create_collection("sums")
        text = self.BY_PARITY + (
            "INSERT {_key: TO_STRING(k), s: SUM(g[*].o.total)} INTO sums"
        )
        plan = optimize(parse(text), db)
        assert "collect_into_aggregate" not in plan.rules_fired
        assert self._collect(plan).into == "g"

    def test_a_later_collect_ends_the_reach_of_the_members(self, db):
        text = self.BY_PARITY + (
            "LET s = SUM(g[*].o.total) COLLECT AGGREGATE all = SUM(s) "
            "RETURN all"
        )
        plan = optimize(parse(text), db)
        assert "collect_into_aggregate" in plan.rules_fired
        assert self._rows(db, text) == [900]

    def test_fires_inside_a_subquery_with_the_enclosing_variables_in_the_frames(
        self, db
    ):
        text = (
            "FOR c IN customers FILTER c.id < 4 SORT c.id "
            "RETURN {id: c.id, mine: (FOR o IN orders FILTER o.cust == c.id "
            "COLLECT k = o.cust INTO g "
            "RETURN {n: COUNT(g[*].o), ids: SUM(g[*].c.id)})}"
        )
        plan = optimize(parse(text), db)
        assert "collect_into_aggregate" in plan.rules_fired
        assert self._rows(db, text) == [
            {"id": 0, "mine": [{"n": 1, "ids": 0}]},
            {"id": 1, "mine": []},
            {"id": 2, "mine": [{"n": 1, "ids": 2}]},
            {"id": 3, "mine": []},
        ]

    def test_coordinator_replan_sees_it_as_text(self):
        from repro.query.unparse import unparse

        text = self.BY_PARITY + "SORT k RETURN {k, s: SUM(g[*].o.total)}"
        plan = optimize(parse(text), None, ast_only=True)
        assert "collect_into_aggregate" in plan.rules_fired
        again = parse(unparse(plan))
        assert again.operations == plan.operations


class TestSuggestionLog:
    def test_dedup_with_counts(self):
        log = SuggestionLog()
        from repro.query.rules import IndexSuggestion

        suggestion = IndexSuggestion("c", ("x",), "index_selection", "why")
        log.record(suggestion)
        log.record(suggestion)
        entries = log.entries()
        assert len(entries) == 1 and entries[0][1] == 2

    def test_capacity_bounded(self):
        log = SuggestionLog(capacity=2)
        from repro.query.rules import IndexSuggestion

        for i in range(5):
            log.record(IndexSuggestion("c", (f"p{i}",), "r", "why"))
        assert len(log) == 2

    def test_scan_near_miss_recorded(self, db):
        optimize(
            parse("FOR c IN customers FILTER c.name == 'n3' RETURN c"), db
        )
        assert any(
            suggestion.source == "customers"
            and suggestion.path == ("name",)
            for suggestion, _count in db.index_suggestions.entries()
        )

    @pytest.mark.parametrize("between", ["", "LET z = 1 "])
    def test_a_near_miss_counts_once_per_planned_statement(self, db, between):
        # Pushdown moves the FILTER over the LET: index selection still
        # looks at the pair once.
        text = f"FOR c IN customers {between}FILTER c.name == 'n3' RETURN c"
        optimize(parse(text), db)
        assert [
            (suggestion.source, suggestion.path, count)
            for suggestion, count in db.index_suggestions.entries()
        ] == [("customers", ("name",), 1)]


class TestFeedbackLoop:
    def test_store_version_bumps_on_new_key(self):
        store = StatisticsStore()
        before = store.version
        store.observe_cardinality("docs", 100)
        assert store.version == before + 1

    def test_version_stable_on_small_moves(self):
        store = StatisticsStore()
        store.observe_cardinality("docs", 100)
        version = store.version
        store.observe_cardinality("docs", 110)
        assert store.version == version

    def test_version_bumps_on_material_move(self):
        store = StatisticsStore()
        store.observe_cardinality("docs", 10)
        version = store.version
        store.observe_cardinality("docs", 10_000)
        assert store.version > version

    def test_ratio_requires_input_rows(self):
        store = StatisticsStore()
        store.observe_ratio("f", 0, 5)
        assert store.ratio("f") is None

    def test_save_load_roundtrip(self, tmp_path):
        store = StatisticsStore()
        store.observe_cardinality("docs", 64)
        store.observe_ratio("docs|x > 1", 10, 5)
        path = tmp_path / "stats.json"
        store.save(path)
        fresh = StatisticsStore()
        fresh.load(path)
        assert fresh.cardinality("docs") == 64
        assert fresh.ratio("docs|x > 1") == 0.5

    def test_analyze_records_feedback(self, db):
        db.query("EXPLAIN ANALYZE FOR c IN customers RETURN c")
        assert db.statistics.cardinality("customers") == 20

    def test_estimates_and_q_error_in_analyzed_plan(self, db):
        result = db.query(
            "EXPLAIN ANALYZE FOR c IN customers "
            "FILTER c.id >= 10 RETURN c"
        )
        assert "est=" in result.analyzed and "q_error=" in result.analyzed
        assert all(
            "est_rows" in entry and "q_error" in entry
            for entry in result.op_stats
        )

    def test_filter_selectivity_learned(self, db):
        text = "FOR c IN customers FILTER c.id >= 10 RETURN c"
        db.query("EXPLAIN ANALYZE " + text)
        condition = parse(text).operations[1].condition
        fingerprint = predicate_fingerprint(condition)
        assert db.statistics.ratio(fingerprint) == 0.5

    def test_feedback_improves_estimates(self, db):
        text = "FOR c IN customers FILTER c.id >= 18 RETURN c"
        first = db.query("EXPLAIN ANALYZE " + text)
        # The filter keeps 2/20 rows; the default guess is 1/3.
        second = db.query("EXPLAIN ANALYZE " + text)
        filter_first = [
            e for e in first.op_stats if e["operator"] == "FilterOp"
        ][0]
        filter_second = [
            e for e in second.op_stats if e["operator"] == "FilterOp"
        ][0]
        assert filter_second["q_error"] <= filter_first["q_error"]
        assert filter_second["est_rows"] == 2

    def test_explain_shows_rules_fired(self, db):
        rendered = db.explain(SEMI_INLINE)
        assert "Rules fired: decorrelate_subquery" in rendered
        rendered = db.explain("FOR c IN customers RETURN c")
        assert "Rules fired: (none)" in rendered


#: One join filter written three ways: two FILTERs in either order, and
#: one AND (which predicate_split cuts into the second form).
RUN_SPELLINGS = (
    "FILTER o.cust == c.id FILTER o.total >= 40",
    "FILTER o.total >= 40 FILTER o.cust == c.id",
    "FILTER o.total >= 40 AND o.cust == c.id",
)
RUN_JOIN = (
    "FOR c IN customers FILTER c.id >= 2 FOR o IN orders {filters} "
    "RETURN {{c: c.name, o: o._key}}"
)


class TestFilterRuns:
    """Index and hash-join selection read every conjunct of the run of
    FILTERs after a FOR, not only the first FILTER's."""

    @staticmethod
    def _inner(plan):
        inner = [
            op for op in plan.operations if getattr(op, "var", None) == "o"
        ]
        return inner[0], plan.operations[plan.operations.index(inner[0]) + 1:]

    def test_every_spelling_plans_the_same_index_scan(self, db):
        db.collection("orders").create_index("cust", kind="hash")
        plans = []
        for filters in RUN_SPELLINGS:
            plan = optimize(parse(RUN_JOIN.format(filters=filters)), db)
            scan, after = self._inner(plan)
            assert isinstance(scan, IndexScanOp), filters
            assert scan.path == ("cust",) and scan.residual is None
            assert [type(op) for op in after] == [ast.FilterOp, ast.ReturnOp]
            plans.append(render_plan(plan))
        assert len(set(plans)) == 1, plans
        rows = [
            sorted(map(repr, db.query(RUN_JOIN.format(filters=filters)).rows))
            for filters in RUN_SPELLINGS
        ]
        assert rows[0] == rows[1] == rows[2] and len(rows[0]) == 8

    def test_every_spelling_plans_the_same_hash_join(self, db):
        plans = []
        for filters in RUN_SPELLINGS:
            plan = optimize(parse(RUN_JOIN.format(filters=filters)), db)
            join, after = self._inner(plan)
            assert isinstance(join, HashJoinOp), filters
            assert join.build_path == ("cust",) and join.residual is None
            assert [type(op) for op in after] == [ast.FilterOp, ast.ReturnOp]
            plans.append(render_plan(plan))
        assert len(set(plans)) == 1, plans

    def test_the_most_selective_index_of_the_run_wins(self, db):
        orders = db.collection("orders")
        for extra in range(10):
            orders.insert({"_key": f"x{extra}", "cust": 4, "total": 0})
        orders.create_index("cust", kind="hash")
        orders.create_index("_key", kind="hash")
        text = (
            "FOR c IN customers FOR o IN orders FILTER o.cust == c.id "
            "FILTER o._key == 'o4' RETURN o._key"
        )
        scan, after = self._inner(optimize(parse(text), db))
        assert isinstance(scan, IndexScanOp) and scan.path == ("_key",)
        assert db.query(text).rows == ["o4"]

    def test_a_near_miss_in_a_later_filter_is_suggested(self, db):
        optimize(parse(
            "FOR o IN orders FILTER o.total >= 40 FILTER o.cust == 4 RETURN o"
        ), db)
        assert ("orders", ("cust",)) in [
            (suggestion.source, suggestion.path)
            for suggestion, _count in db.index_suggestions.entries()
        ]


#: The statement shapes this module plans, over its :func:`db`: the
#: front-end differential suite holds the optimizer to a full fixpoint on
#: each of them.
STATEMENTS = (
    SEMI_INLINE,
    ANTI_LET,
    SHARED_LET,
    *(EXISTENCE.format(test=test) for test, _kind in EXISTENCE_TESTS),
    *(BY_PARITY + tail for tail in MEMBER_LIST_TAILS),
    "FOR c IN customers RETURN c",
    "FOR l IN customers FOR r IN orders FILTER r.cust == l.id RETURN r",
    "FOR c IN customers FILTER 0 < LENGTH(FOR o IN orders "
    "FILTER o.cust == c.id RETURN o) RETURN c.id",
    "FOR c IN customers FILTER LENGTH(FOR o IN orders "
    "FILTER o.cust == c.id AND o.total >= 100 RETURN o) > 0 RETURN c.id",
    "FOR c IN customers FILTER LENGTH(FOR o IN orders FILTER o.cust == c.id "
    "INSERT {cust: o.cust} INTO orders) > 0 RETURN c.id",
    "FOR c IN customers LET m = (FOR o IN orders FILTER o.cust == c.id RETURN o) "
    "FILTER LENGTH(m) > 0 RETURN {id: c.id, n: LENGTH(m)}",
    "FOR c IN customers FILTER LENGTH(FOR o IN orders FILTER o.cust == c.id "
    "RETURN LENGTH(FOR x IN orders RETURN x)) > 0 RETURN c.id",
    "FOR c IN customers LET bigs = (FOR o IN orders FILTER o.total >= 100 "
    "RETURN o.cust) FILTER c.id IN bigs INSERT {id: c.id} INTO customers",
    "LET bigs = (FOR o IN orders FILTER o.total >= 100 RETURN o.cust) "
    "FOR c IN customers FILTER c.id IN bigs RETURN c.id",
    "FOR c IN customers FOR o IN orders "
    "FILTER o.cust == c.id AND c.name == 'n4' RETURN o",
    "FOR o IN orders FILTER o.cust == 4 AND o.total >= 40 RETURN o",
    "FOR s IN starts FOR x IN 1..2 OUTBOUND s.v GRAPH social "
    "FILTER x.age >= 50 AND s.w <= 1 RETURN x.age",
    BY_PARITY + "SORT k RETURN {k, s: SUM(g[*].o.total), lo: MIN(g[*].o.total), "
    "hi: MAX(g[*].o.total), mean: AVG(g[*].o.total), n: COUNT(g[*].o), "
    "again: SUM(g[*].o.total) + 1}",
    "FOR o IN orders LET g_0 = 7 COLLECT k = o.cust % 4 == 0 INTO g "
    "SORT k RETURN [k, SUM(g[*].o.total), MAX(g[*].g_0)]",
    BY_PARITY + "LET s = SUM(g[*].o.total) SORT -MAX(g[*].o.total) "
    "FILTER s + MIN(g[*].o.total) >= 400 LIMIT 5 RETURN [k, s, COUNT(g[*].o)]",
    BY_PARITY + "LET s = SUM(g[*].o.total) COLLECT AGGREGATE all = SUM(s) RETURN all",
    "FOR c IN customers FILTER c.id < 4 SORT c.id "
    "RETURN {id: c.id, mine: (FOR o IN orders FILTER o.cust == c.id "
    "COLLECT k = o.cust INTO g RETURN {n: COUNT(g[*].o), ids: SUM(g[*].c.id)})}",
    "FOR c IN customers LET z = 1 FILTER c.name == 'n3' RETURN c",
    "FOR c IN customers FILTER c.id >= 10 RETURN c",
    # Unsplit (predicate_split off), the residual FILTER decorrelation
    # leaves moves next to its FOR and becomes a hash join a pass later.
    "FOR l IN customers FOR r IN orders FILTER LENGTH(FOR x IN orders "
    "FILTER x.cust == l.id RETURN x) > 0 AND r.cust == l.id RETURN r",
    # Decorrelation turns a subquery's member aggregate into a join probe
    # the COLLECT rule can fold.
    "FOR o IN orders COLLECT k = o.cust INTO g FILTER LENGTH(FOR x IN orders "
    "FILTER x.total == SUM(g[*].o.total) RETURN 1) > 0 RETURN k",
    # The second COLLECT folds first; that frees the first.
    BY_PARITY + "LET s = SUM(g[*].o.total) COLLECT p = s > 50 INTO h "
    "RETURN {p, n: COUNT(h[*].s)}",
    *(RUN_JOIN.format(filters=filters) for filters in RUN_SPELLINGS),
)

