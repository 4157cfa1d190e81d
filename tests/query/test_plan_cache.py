"""Plan cache behaviour: keying, LRU, DDL invalidation, observability."""

import pytest

from repro.core.database import MultiModelDB
from repro.obs import metrics
from repro.query.engine import PlanCache


@pytest.fixture()
def db():
    database = MultiModelDB()
    docs = database.create_collection("docs")
    for value in range(10):
        docs.insert({"_key": f"d{value}", "n": value, "city": "Oslo" if value % 2 else "Brno"})
    return database


QUERY = "FOR d IN docs FILTER d.n >= @low RETURN d.n"


class TestHitsAndMisses:
    def test_repeat_query_hits(self, db):
        before = db.plan_cache.stats()
        db.query(QUERY, {"low": 5})
        db.query(QUERY, {"low": 7})  # different value, same shape → same plan
        after = db.plan_cache.stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_stats_flag_reports_cache_path(self, db):
        first = db.query(QUERY, {"low": 5})
        second = db.query(QUERY, {"low": 5})
        assert first.stats["plan_cached"] is False
        assert second.stats["plan_cached"] is True
        assert first.rows == second.rows

    def test_bind_shape_distinguishes_entries(self, db):
        db.query(QUERY, {"low": 5})
        # Same model type (NUMBER covers int and float) → same shape → hit…
        hits_before = db.plan_cache.stats()["hits"]
        db.query(QUERY, {"low": 5.5})
        assert db.plan_cache.stats()["hits"] == hits_before + 1
        # …but a differently-typed bind value → new shape → miss.
        db.query("FOR d IN docs FILTER d.n >= @low RETURN d", {"low": "5"})
        assert db.plan_cache.stats()["hits"] == hits_before + 1

    def test_optimize_flag_in_key(self, db):
        from repro.query.engine import run_query

        run_query(db, QUERY, {"low": 5})
        hits_before = db.plan_cache.stats()["hits"]
        run_query(db, QUERY, {"low": 5}, optimize_query=False)
        assert db.plan_cache.stats()["hits"] == hits_before

    def test_obs_counters_mirror(self, db):
        metrics.REGISTRY.reset()
        db.query(QUERY, {"low": 5})
        db.query(QUERY, {"low": 5})
        assert metrics.REGISTRY.total("plan_cache_hits_total") == 1
        assert metrics.REGISTRY.total("plan_cache_misses_total") == 1

    def test_a_coordinator_cache_counts_under_its_own_series(self, db):
        from repro.cluster.coordinator import Coordinator
        from repro.cluster.shardmap import ShardMap, demo_placements

        metrics.REGISTRY.reset()
        coordinator = Coordinator(ShardMap(["127.0.0.1:9000"], demo_placements()))
        db.query(QUERY, {"low": 5})
        for low in (5, 6, 7):
            coordinator.plan(QUERY, {"low": low})
        small = PlanCache(capacity=1, name="cluster_plan_cache")
        small.put(("a", (), True), "plan-a", ())
        small.put(("b", (), True), "plan-b", ())
        total = metrics.REGISTRY.total
        assert (total("plan_cache_misses_total"), total("plan_cache_hits_total")) == (1, 0)
        assert (
            total("cluster_plan_cache_misses_total"),
            total("cluster_plan_cache_hits_total"),
        ) == (1, 2)
        assert total("plan_cache_evictions_total") == 0
        assert total("cluster_plan_cache_evictions_total") == 1


class TestInvalidation:
    def test_index_ddl_invalidates(self, db):
        db.query(QUERY, {"low": 5})
        db.context.indexes.create_index("doc:docs", ("n",), kind="btree")
        result = db.query(QUERY, {"low": 5})
        assert result.stats["plan_cached"] is False
        assert db.plan_cache.stats()["invalidations"] >= 1

    def test_catalog_ddl_invalidates(self, db):
        db.query(QUERY, {"low": 5})
        db.create_collection("unrelated")
        result = db.query(QUERY, {"low": 5})
        assert result.stats["plan_cached"] is False

    def test_new_index_actually_used_after_invalidation(self, db):
        point_query = "FOR d IN docs FILTER d.city == @city RETURN d.n"
        before = db.query(point_query, {"city": "Brno"})
        assert before.stats["index_lookups"] == 0
        db.context.indexes.create_index("doc:docs", ("city",), kind="hash")
        after = db.query(point_query, {"city": "Brno"})
        assert after.stats["index_lookups"] == 1
        assert sorted(before.rows) == sorted(after.rows)


class TestLRU:
    def test_eviction_of_least_recently_used(self):
        cache = PlanCache(capacity=2)
        versions = (0, 0)
        cache.put(("a", (), True), "plan-a", versions)
        cache.put(("b", (), True), "plan-b", versions)
        assert cache.get(("a", (), True), versions) == "plan-a"  # refresh a
        cache.put(("c", (), True), "plan-c", versions)           # evicts b
        assert cache.get(("b", (), True), versions) is None
        assert cache.get(("a", (), True), versions) == "plan-a"
        assert cache.stats()["evictions"] == 1

    def test_resize_trims(self):
        cache = PlanCache(capacity=4)
        for name in "abcd":
            cache.put((name, (), True), name, (0, 0))
        cache.resize(2)
        assert len(cache) == 2
        assert cache.get(("d", (), True), (0, 0)) == "d"

    def test_clear(self, db):
        db.query(QUERY, {"low": 5})
        assert len(db.plan_cache) == 1
        db.plan_cache.clear()
        assert len(db.plan_cache) == 0


class TestExplainIndicator:
    def test_explain_reports_cold_then_cached(self, db):
        assert "-- plan: not cached" in db.explain(QUERY)
        db.query(QUERY, {"low": 5})
        db.query(QUERY, {"low": 5})
        assert "-- plan: cached (served 1 time)" in db.explain(QUERY)

    def test_explain_analyze_reports_cache_path(self, db):
        first = db.query("EXPLAIN ANALYZE " + QUERY, {"low": 5})
        second = db.query("EXPLAIN ANALYZE " + QUERY, {"low": 5})
        assert "Plan: parsed + optimized this call" in first.analyzed
        assert "Plan: served from plan cache" in second.analyzed

    def test_explain_does_not_perturb_counters(self, db):
        db.query(QUERY, {"low": 5})
        stats_before = db.plan_cache.stats()
        db.explain(QUERY)
        assert db.plan_cache.stats() == stats_before

    def test_explain_peeks_the_key_the_next_query_uses(self, db):
        join = TestRuleConfigKeying.JOIN
        db.query(join)
        db.query(join)
        assert "-- plan: cached (served 1 time)" in db.explain(join)
        db.optimizer_rules.disable("hash_join")
        assert "-- plan: not cached" in db.explain(join)
        assert db.query(join).stats["plan_cached"] is False

    def test_explain_with_binds_peeks_their_shape(self, db):
        db.query(QUERY, {"low": 5})
        db.query(QUERY, {"low": 5})
        assert "-- plan: cached (served 1 time)" in db.explain(QUERY, {"low": 6})
        assert "-- plan: not cached" in db.explain(QUERY, {"low": "6"})

    def test_explain_sees_the_shared_shape(self, db):
        db.query("FOR d IN docs FILTER d.n >= 3 RETURN d.n")
        db.query("FOR d IN docs FILTER d.n >= 4 RETURN d.n")
        explained = db.explain("FOR d IN docs FILTER d.n >= 9 RETURN d.n")
        assert explained.startswith("-- plan: cached (served 1 time)\n")
        # The plan shown is the literal text's.
        assert "(d.n >= 9)" in explained


class TestShapes:
    """Statements that differ in their value literals share one plan."""

    def test_literals_share_a_plan(self, db):
        rows = [
            db.query(f"FOR d IN docs FILTER d.n >= {low} RETURN d.n")
            for low in (3, 8)
        ]
        assert [result.stats["plan_cached"] for result in rows] == [False, True]
        assert sorted(rows[0].rows) == [3, 4, 5, 6, 7, 8, 9]
        assert sorted(rows[1].rows) == [8, 9]
        assert len(db.plan_cache) == 1

    def test_literal_types_are_part_of_the_key(self, db):
        db.query("FOR d IN docs FILTER d.n >= 3 RETURN d.n")
        result = db.query("FOR d IN docs FILTER d.n >= '3' RETURN d.n")
        assert result.stats["plan_cached"] is False
        assert result.rows == []

    def test_a_zero_capacity_caches_nothing(self):
        database = MultiModelDB(plan_cache_size=0)
        database.create_collection("docs").insert({"n": 1})
        for _round in range(2):
            result = database.query("FOR d IN docs FILTER d.n == 1 RETURN d.n")
            assert result.rows == [1]
            assert result.stats["plan_cached"] is False
        assert database.plan_cache.stats()["misses"] == 0
        assert len(database.plan_cache) == 0

    def test_the_memo_is_bounded_by_the_capacity(self):
        cache = PlanCache(capacity=2)
        for low in range(5):
            cache.statement(f"RETURN {low}")
        assert len(cache._shapes) == 2
        cache.resize(1)
        assert len(cache._shapes) == 1
        cache.clear()
        assert not cache._shapes

    def test_the_skeleton_memo_is_bounded_by_the_capacity(self):
        # Five skeletons (the spacing is part of one), oldest dropped first.
        cache = PlanCache(capacity=2)
        for low in range(5):
            cache.statement(f"RETURN {low}" + " " * low)
        assert list(cache._skeletons) == ["RETURN \x00i   ", "RETURN \x00i    "]
        shape, tokens = cache.statement("RETURN 9    ")
        assert tokens is None and shape.values == {"1": 9}
        cache.resize(1)
        assert len(cache._skeletons) == 1
        cache.clear()
        assert not cache._skeletons
        assert cache.statement("RETURN 9    ")[1] is not None

    def test_plancache_lists_the_normalized_statement(self, db):
        from io import StringIO

        from repro.cli import run_statement

        for low in (3, 4):
            db.query(
                f"FOR d IN docs FILTER d.n >= {low} AND d.city == 'Oslo' "
                "RETURN d.n"
            )
        db.query(QUERY, {"low": 5})
        assert [
            (entry["query"], entry["bind_shape"]) for entry in db.plan_cache.entries()
        ] == [
            ("FOR d IN docs FILTER d.n >= $1 AND d.city == $2 RETURN d.n", []),
            ("FOR d IN docs FILTER d.n >= @low RETURN d.n", ["low"]),
        ]
        out = StringIO()
        run_statement(db, ".plancache", out, {"done": False})
        lines = [line.strip() for line in out.getvalue().splitlines()]
        assert lines == [
            "2/128 entries; 1 hits, 2 misses, 0 evictions, 0 DDL invalidations",
            "0 hits  FOR d IN docs FILTER d.n >= @low RETURN d.n @low",
            "1 hits  FOR d IN docs FILTER d.n >= $1 AND d.city == $2 RETURN d.n",
        ]


class TestRuleConfigKeying:
    """The cache-key bugfix: the optimizer-rule configuration is part of
    the plan-cache key, so toggling a rule never serves a plan built
    under a different configuration."""

    JOIN = (
        "FOR a IN docs FOR b IN docs "
        "FILTER b.n == a.n RETURN {x: a.n, y: b.city}"
    )

    def test_toggle_gets_distinct_entry(self, db):
        from repro.query.plan import HashJoinOp

        db.query(self.JOIN)
        key_default = PlanCache.statement_key(
            db.plan_cache.statement(self.JOIN)[0], None, True, db.optimizer_rules.fingerprint()
        )
        plan_default = db.plan_cache._entries[key_default]["plan"]
        assert any(
            isinstance(op, HashJoinOp) for op in plan_default.operations
        )
        db.optimizer_rules.disable("hash_join")
        db.query(self.JOIN)
        key_disabled = PlanCache.statement_key(
            db.plan_cache.statement(self.JOIN)[0], None, True, db.optimizer_rules.fingerprint()
        )
        assert key_disabled != key_default
        plan_disabled = db.plan_cache._entries[key_disabled]["plan"]
        assert not any(
            isinstance(op, HashJoinOp) for op in plan_disabled.operations
        )
        # Both entries live side by side; re-enabling hits the old one.
        db.optimizer_rules.enable("hash_join")
        before = db.plan_cache.stats()["hits"]
        db.query(self.JOIN)
        assert db.plan_cache.stats()["hits"] == before + 1

    def test_toggled_plan_actually_differs(self, db):
        first = db.query(self.JOIN).rows
        db.optimizer_rules.disable("hash_join")
        second = db.query(self.JOIN).rows
        normalize = lambda rows: sorted(map(repr, rows))  # noqa: E731
        assert normalize(first) == normalize(second)


class TestStatisticsInvalidation:
    def test_stats_version_in_ddl_stamp(self, db):
        from repro.query.engine import _ddl_versions

        before = _ddl_versions(db)
        db.statistics.observe_cardinality("docs", 10)
        after = _ddl_versions(db)
        assert before != after
        assert after[2] == db.statistics.version

    def test_material_stats_move_invalidates_plan(self, db):
        db.query(QUERY, {"low": 5})
        invalidations = db.plan_cache.stats()["invalidations"]
        # A materially different observation bumps the stats version…
        db.statistics.observe_cardinality("docs", 10)
        db.statistics.observe_cardinality("docs", 10_000)
        db.query(QUERY, {"low": 5})
        # …which drops the stale entry on next lookup.
        assert db.plan_cache.stats()["invalidations"] == invalidations + 1

    def test_analyze_feedback_restamps_own_plan(self, db):
        db.query("EXPLAIN ANALYZE " + QUERY, {"low": 5})
        second = db.query("EXPLAIN ANALYZE " + QUERY, {"low": 5})
        # The run that produced the feedback re-stamped its own plan, so
        # the repeat run still hits the cache.
        assert second.stats["plan_cached"] is True


#: Each DML statement runs twice (UPSERT three times) with different bind
#: values; the state after each step must show the later runs' values.
_DML_SCRIPT = [
    (
        "INSERT {_key: @k, v: @v} INTO kv",
        [{"k": "a", "v": 1}, {"k": "b", "v": 2}],
        {"a": 1, "b": 2},
    ),
    (
        "UPDATE @k WITH {v: @v} IN kv",
        [{"k": "a", "v": 10}, {"k": "b", "v": 20}],
        {"a": 10, "b": 20},
    ),
    (
        "REPLACE @k WITH {v: @v} IN kv",
        [{"k": "a", "v": 100}, {"k": "b", "v": 200}],
        {"a": 100, "b": 200},
    ),
    (
        "UPSERT {_key: @k} INSERT {_key: @k, v: @v} UPDATE {v: @v} INTO kv",
        [{"k": "c", "v": 7}, {"k": "c", "v": 8}, {"k": "d", "v": 9}],
        {"a": 100, "b": 200, "c": 8, "d": 9},
    ),
    ("REMOVE @k IN kv", [{"k": "a"}, {"k": "b"}], {"c": 8, "d": 9}),
]


def _run_dml_script(run):
    for text, runs, expected in _DML_SCRIPT:
        for binds in runs:
            run(text, binds)
        state = run("FOR d IN kv RETURN [d._key, d.v]", {})
        assert dict(map(tuple, state)) == expected, text


class TestCachedDml:
    """The DML operators memoize their compiled expressions on the plan, so
    a plan served from the cache must still write each run's own binds."""

    @pytest.fixture()
    def kv_db(self):
        database = MultiModelDB()
        database.create_collection("kv")
        return database

    def test_embedded(self, kv_db):
        cached = []

        def run(text, binds):
            result = kv_db.query(text, binds)
            cached.append(result.stats["plan_cached"])
            return result.rows

        _run_dml_script(run)
        assert cached.count(True) >= len(_DML_SCRIPT)

    def test_in_a_transaction(self, kv_db):
        with kv_db.transaction() as txn:
            _run_dml_script(
                lambda text, binds: kv_db.query(text, binds, txn=txn).rows
            )
        rows = kv_db.query("FOR d IN kv RETURN [d._key, d.v]").rows
        assert dict(map(tuple, rows)) == _DML_SCRIPT[-1][2]

    def test_over_the_wire(self, kv_db):
        from repro.client import ReproClient
        from repro.server import ReproServer

        server = ReproServer(kv_db, port=0)
        server.start_in_thread()
        try:
            with ReproClient(port=server.port, sleep=None) as client:
                _run_dml_script(
                    lambda text, binds: client.query(text, binds).rows
                )
        finally:
            server.stop()
        assert kv_db.plan_cache.stats()["hits"] >= len(_DML_SCRIPT)
