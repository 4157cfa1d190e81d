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
        key_default = PlanCache.key(
            self.JOIN, None, True, db.optimizer_rules.fingerprint()
        )
        plan_default = db.plan_cache._entries[key_default]["plan"]
        assert any(
            isinstance(op, HashJoinOp) for op in plan_default.operations
        )
        db.optimizer_rules.disable("hash_join")
        db.query(self.JOIN)
        key_disabled = PlanCache.key(
            self.JOIN, None, True, db.optimizer_rules.fingerprint()
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
