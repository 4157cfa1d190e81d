"""Coordinator planning: strategies, routing, and honest refusals.

These tests plan against a fake topology without starting servers — the
plan (strategy, fan-out, pinned shard, rendered statements) is a pure
function of the statement, the binds and the shard map.  A plan served
from the coordinator's plan cache must be that same function: every plan
these tests make is also made twice through one cache and once on a fresh
coordinator, and all three must describe alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import Coordinator
from repro.cluster.shardmap import ShardMap, StorePlacement, demo_placements
from repro.errors import ClusterUnsupportedError
from repro.query.parser import parse
from repro.unibench.workloads import QUERIES_B


class _CheckedCoordinator(Coordinator):
    """Plans each statement on a fresh coordinator, then twice through
    its own cache, and insists the three describe byte for byte alike."""

    def plan(self, text, bind_vars=None):
        fresh = Coordinator(self.shard_map).plan(text, bind_vars)
        first = super().plan(text, bind_vars)
        second = super().plan(text, bind_vars)
        assert second.cached
        expected = fresh.describe(self.shard_map)
        assert first.describe(self.shard_map) == expected
        assert second.describe(self.shard_map) == expected
        return second


def _shard_map(num_shards=3, placements=None):
    return ShardMap(
        [f"127.0.0.1:{9000 + index}" for index in range(num_shards)],
        placements or demo_placements(),
    )


def _coordinator(num_shards=3, placements=None):
    shard_map = _shard_map(num_shards, placements)
    return _CheckedCoordinator(shard_map), shard_map


# ---------------------------------------------------------------- reads --


def test_partition_key_equality_takes_the_single_shard_fast_path():
    coordinator, shard_map = _coordinator()
    plan = coordinator.plan(
        "FOR c IN customers FILTER c.id == @id RETURN c.name", {"id": 7}
    )
    assert plan.strategy == "single_shard"
    assert plan.fan_out == 1
    assert plan.segments[0].pinned == shard_map.owner("customers", 7)


def test_fast_path_survives_an_aligned_join():
    coordinator, shard_map = _coordinator()
    plan = coordinator.plan(
        "FOR c IN customers FILTER c.id == @id "
        "FOR o IN orders FILTER o.customer_id == c.id RETURN o",
        {"id": 7},
    )
    assert plan.strategy == "single_shard"
    assert plan.fan_out == 1


def test_unaligned_scan_scatters_to_every_shard():
    coordinator, _ = _coordinator()
    plan = coordinator.plan("FOR c IN customers RETURN c.name", {})
    assert plan.strategy == "scatter"
    assert plan.fan_out == 3
    assert len(plan.segments) == 1


def test_reference_only_statement_runs_on_one_shard():
    coordinator, _ = _coordinator()
    plan = coordinator.plan("RETURN KV_GET('cart', @k)", {"k": "5"})
    assert plan.fan_out == 1


def test_misaligned_join_cuts_the_pipeline():
    # Q1 joins the social graph's friends (reference) against orders
    # hashed by customer_id via a *different* key — the coordinator must
    # cut and re-scatter rather than pretend the join is local.
    coordinator, _ = _coordinator()
    text, binds = QUERIES_B["Q1"]
    plan = coordinator.plan(text, binds)
    assert plan.strategy == "multi_segment"
    assert len(plan.segments) == 2
    assert plan.segments[-1].final


def test_a_variable_read_only_as_a_subquery_for_source_crosses_the_cut():
    """``tags`` is used after the cut, and only as the source of the
    subquery's FOR: it must ship with segment 0's frames."""
    coordinator, _ = _coordinator()
    plan = coordinator.plan(
        "FOR c IN customers LET tags = [c.id, c.credit_limit] "
        "FOR o IN orders FILTER o.total > 0 "
        "RETURN {o: o._key, "
        "n: LENGTH((FOR t IN tags FILTER t > 1 RETURN t))}"
    )
    first, second = plan.segments
    assert first.output_vars == ["tags"]
    assert "RETURN {'tags': tags}" in first.statement
    assert second.input_vars == ["tags"]
    assert "LET tags = __cluster_f.tags" in second.statement


def test_workload_b_strategies_are_pinned():
    coordinator, _ = _coordinator()
    expected = {
        "Q1": "multi_segment",
        "Q2": "scatter",
        "Q3": "scatter",
        "Q4": "scatter",
        "Q5": "scatter",
    }
    for query_id, (text, binds) in QUERIES_B.items():
        plan = coordinator.plan(text, binds)
        assert plan.strategy == expected[query_id], query_id


_FLOATS = ("0.00001", "0.00000015", "10000000000000000.0")


@pytest.mark.parametrize(
    "text, binds",
    [
        (f"FOR o IN orders FILTER o.total > {literal} RETURN o.Order_no", {})
        for literal in _FLOATS
    ]
    + list(QUERIES_B.values()),
    ids=list(_FLOATS) + list(QUERIES_B),
)
def test_every_rendered_shard_statement_parses(text, binds):
    """Shards parse what the coordinator renders, float literals in
    exponent notation included."""
    coordinator, _ = _coordinator()
    for segment in coordinator.plan(text, binds).segments:
        parse(segment.statement)


def test_sorted_scatter_merges_with_a_k_way_merge():
    coordinator, _ = _coordinator()
    text, binds = QUERIES_B["Q4"]
    plan = coordinator.plan(text, binds)
    assert plan.segments[-1].merge["kind"] == "sort"


def test_collect_scatter_combines_partial_aggregates():
    coordinator, _ = _coordinator()
    text, binds = QUERIES_B["Q3"]
    plan = coordinator.plan(text, binds)
    segment = plan.segments[-1]
    assert segment.merge["kind"] == "collect"
    # The members never ship: the shards aggregate.
    assert segment.merge["into"] is None
    assert " INTO " not in segment.statement


def test_only_the_member_uses_the_rule_folds_ship_as_partials():
    """The ``collect_into_aggregate`` rule is the one member elision: what
    it folds ships as AGGREGATE partials, anything it leaves (the group's
    length, a count inside a subquery, a suffix that is not an attribute
    path) ships the members."""
    coordinator, _ = _coordinator()
    plan = coordinator.plan(
        "FOR c IN customers COLLECT city = c.city INTO g SORT city "
        "RETURN {city, high: MAX(g[*].c.credit_limit), n: COUNT(g[*].c)}"
    )
    merge = plan.segments[-1].merge
    assert merge["into"] is None
    assert [entry[1] for entry in merge["aggs"]] == ["MAX", "COUNT"]
    for use in (
        "LENGTH(g)",
        "(FOR i IN [1] RETURN COUNT(g))",
        "SUM(g[*].c['credit_limit'])",
    ):
        plan = coordinator.plan(
            "FOR c IN customers COLLECT city = c.city INTO g SORT city "
            f"RETURN {{city, high: MAX(g[*].c.credit_limit), n: {use}}}"
        )
        merge = plan.segments[-1].merge
        assert merge["into"] == "g", use
        assert merge["aggs"] == [], use
        assert " INTO g " in plan.segments[-1].statement, use


#: ``describe()`` of Workload B on the two-shard demo map, as b_cluster2
#: plans it.  A change to how the coordinator is built must leave it be.
#: Q5's lifted literals reach the shards as ``@__cluster_<n>`` binds.
WORKLOAD_B_PLANS = {
    "Q1": """\
cluster plan [strategy=multi_segment fan_out=2 shards=2 map_version=1]
  segment 0 [scatter(2) merge=frames]
    FOR c IN customers FILTER (c.credit_limit > @min_credit) FOR friend IN 1..1 OUTBOUND c.id GRAPH social LABEL 'knows' LET order_no = KV_GET('cart', friend._key) FILTER (order_no != NULL) RETURN {'order_no': order_no}
  segment 1 [scatter(2) merge=concat]
    FOR __cluster_f IN @__cluster_frames LET order_no = __cluster_f.order_no FOR o IN orders FILTER (o.Order_no == order_no) FOR line IN o.Orderlines RETURN DISTINCT line.Product_no""",
    "Q2": """\
cluster plan [strategy=scatter fan_out=2 shards=2 map_version=1]
  segment 0 [scatter(2) merge=concat]
    FOR c IN customers FILTER (c.city == @city) FOR o IN orders FILTER (o.customer_id == c.id) RETURN {'customer': c.name, 'order': o.Order_no, 'total': o.total}""",
    "Q3": """\
cluster plan [strategy=scatter fan_out=2 shards=2 map_version=1]
  segment 0 [scatter(2) merge=collect]
    FOR o IN orders LET c = DOCUMENT('customers', o.customer_id) COLLECT city = c.city AGGREGATE members_0 = SUM(o.total) RETURN {'__cluster_k': [city], 'members_0': members_0}
    coordinator: SORT city RETURN {'city': city, 'spend': members_0}""",
    "Q4": """\
cluster plan [strategy=scatter fan_out=2 shards=2 map_version=1]
  segment 0 [scatter(2) merge=sort]
    FOR p IN products FILTER (p.category == @category) LET praise = (FOR f IN feedback FILTER ((f.product_no == p.product_no) AND (f.positive == TRUE)) RETURN f._key) FILTER (LENGTH(praise) > 0) SORT p.product_no RETURN {'__cluster_k': [p.product_no], '__cluster_v': {'product': p.product_no, 'reviews': LENGTH(praise)}}""",
    "Q5": """\
cluster plan [strategy=scatter fan_out=2 shards=2 map_version=1]
  segment 0 [scatter(2) merge=concat]
    FOR friend IN 2..2 OUTBOUND @start GRAPH social LABEL 'knows' LET order_no = KV_GET('cart', friend._key) FILTER (order_no != NULL) FOR o IN orders FILTER (o.Order_no == order_no) FOR line IN o.Orderlines FOR triple IN RDF_MATCH('vendors', line.Product_no, @__cluster_1, @__cluster_2) RETURN DISTINCT {'product': line.Product_no, 'vendor': triple[@__cluster_3]}""",
}


@pytest.mark.parametrize("query_id", sorted(QUERIES_B))
def test_workload_b_plans_are_pinned_on_two_shards(query_id):
    coordinator, shard_map = _coordinator(num_shards=2)
    text, binds = QUERIES_B[query_id]
    plan = coordinator.plan(text, binds)
    assert plan.describe(shard_map) == WORKLOAD_B_PLANS[query_id]


@pytest.mark.parametrize(
    "tail",
    [
        "FILTER city != 'x' RETURN SUM(g[*].c.credit_limit)",
        "LIMIT 2 RETURN SUM(g[*].c.credit_limit)",
        "RETURN city == 'x' ? SUM(g[*].c.credit_limit) : null",
        "RETURN city == 'x' OR MIN(g[*].c.credit_limit) > 0",
        "RETURN (FOR i IN [1] FILTER city == 'x' RETURN AVG(g[*].c.credit_limit))",
    ],
)
def test_member_aggregates_some_group_may_not_reach_keep_the_members(tail):
    """An aggregate a shard ran eagerly would fail on a group the
    coordinator's remainder never aggregates (a non-number member)."""
    coordinator, _ = _coordinator()
    plan = coordinator.plan(
        f"FOR c IN customers COLLECT city = c.city INTO g {tail}"
    )
    merge = plan.segments[-1].merge
    assert merge["into"] == "g"
    assert merge["aggs"] == []


def test_describe_mentions_strategy_and_fan_out():
    coordinator, shard_map = _coordinator()
    plan = coordinator.plan("FOR c IN customers RETURN c", {})
    rendered = plan.describe(shard_map)
    assert "strategy=scatter" in rendered
    assert "fan_out=3" in rendered


# ----------------------------------------------------------------- DML --


def test_insert_routes_to_the_owner_shard():
    coordinator, shard_map = _coordinator()
    plan = coordinator.plan(
        "INSERT {id: @id, name: 'x'} INTO customers", {"id": 11}
    )
    assert plan.strategy == "dml_routed"
    assert plan.dml["shard"] == shard_map.owner("customers", 11)


def test_upsert_routes_on_the_partition_key_in_the_search():
    coordinator, shard_map = _coordinator()
    plan = coordinator.plan(
        "UPSERT {id: @id} INSERT {id: @id, name: 'x'} "
        "UPDATE {name: 'x'} INTO customers",
        {"id": 11},
    )
    assert plan.strategy == "dml_routed"
    assert plan.dml["shard"] == shard_map.owner("customers", 11)


def test_by_key_update_broadcasts_when_the_key_is_not_the_partition_key():
    # orders is hashed by customer_id but addressed by _key: the owner is
    # unknowable from the statement, and a missing-key UPDATE is a no-op,
    # so the broadcast is safe.
    coordinator, _ = _coordinator()
    plan = coordinator.plan(
        "UPDATE @k WITH {total: 0} IN orders", {"k": "o1"}
    )
    assert plan.strategy == "dml_broadcast"
    assert plan.dml["shard"] is None


def test_reference_dml_broadcasts_to_every_shard():
    coordinator, _ = _coordinator()
    plan = coordinator.plan("UPDATE @k WITH {v: 1} IN cart", {"k": "5"})
    assert plan.strategy == "dml_broadcast"
    assert plan.dml["reference"] is True


def test_pipeline_update_scatters():
    coordinator, _ = _coordinator()
    plan = coordinator.plan(
        "FOR c IN customers FILTER c.credit_limit < 0 "
        "UPDATE c.id WITH {credit_limit: 0} IN customers",
        {},
    )
    assert plan.strategy == "dml_scatter"
    assert plan.fan_out == 3


# ------------------------------------------------------------- refusals --


@pytest.mark.parametrize(
    "text",
    [
        # pipeline INSERT would re-insert per shard
        "FOR c IN customers INSERT {id: c.id} INTO customers",
        # a write buried in a subquery can't be routed
        "LET n = (FOR c IN customers REMOVE c.id IN customers) RETURN n",
        # FULLTEXT names an index, not a store — placement is unknowable
        "FOR key IN FULLTEXT('feedback_text', 'great') RETURN key",
    ],
)
def test_unroutable_statements_raise_typed_errors(text):
    coordinator, _ = _coordinator()
    with pytest.raises(ClusterUnsupportedError):
        coordinator.plan(text, {})


def test_dml_on_reference_store_driven_by_hash_pipeline_is_refused():
    coordinator, _ = _coordinator()
    with pytest.raises(ClusterUnsupportedError):
        coordinator.plan(
            "FOR c IN customers UPDATE c.id WITH {seen: true} IN cart", {}
        )


def test_unknown_store_gets_a_clear_error():
    placements = {"kv": StorePlacement("hash", "_key", "_key")}
    coordinator, _ = _coordinator(placements=placements)
    plan = coordinator.plan("FOR d IN kv RETURN d", {})
    assert plan.fan_out == 3


# ----------------------------------------------------------- plan cache --


def _plain(num_shards=3):
    shard_map = _shard_map(num_shards)
    return Coordinator(shard_map), shard_map


def test_the_partition_key_fast_path_routes_each_call_by_its_value():
    coordinator, shard_map = _plain()
    text = "FOR c IN customers FILTER c.id == @id RETURN c.name"
    pinned = [coordinator.plan(text, {"id": key}).segments[0].pinned
              for key in (1, 2, 3)]
    assert pinned == [shard_map.owner("customers", key) for key in (1, 2, 3)]
    assert len(set(pinned)) == 3
    assert coordinator.plan_cache.stats()["misses"] == 1


def test_a_document_key_pins_each_call_to_its_owner():
    coordinator, shard_map = _plain()
    text = "RETURN DOCUMENT('customers', @k)"
    for key in (1, 2, 3):
        plan = coordinator.plan(text, {"k": key})
        assert plan.strategy == "single_shard"
        assert plan.segments[0].pinned == shard_map.owner("customers", key)
    assert coordinator.plan_cache.stats()["hits"] == 2


@pytest.mark.parametrize(
    "text",
    [
        "INSERT {id: @id, name: 'x'} INTO customers",
        "UPSERT {id: @id} INSERT {id: @id} UPDATE {name: 'x'} INTO customers",
    ],
)
def test_inserts_and_upserts_route_by_value(text):
    coordinator, shard_map = _plain()
    for key in (1, 2, 3):
        plan = coordinator.plan(text, {"id": key})
        assert plan.strategy == "dml_routed"
        assert plan.dml["shard"] == shard_map.owner("customers", key)
    assert coordinator.plan_cache.stats()["misses"] == 1


def test_an_object_key_routes_a_by_key_write_only_when_it_holds_the_partition_key():
    coordinator, shard_map = _plain()
    text = "UPDATE @k WITH {credit_limit: 0} IN customers"
    routed = coordinator.plan(text, {"k": {"id": 2}})
    broadcast = coordinator.plan(text, {"k": {"name": "x"}})
    again = coordinator.plan(text, {"k": {"id": 3}})
    assert (routed.strategy, routed.fan_out) == ("dml_routed", 1)
    assert routed.dml["shard"] == shard_map.owner("customers", 2)
    assert (broadcast.strategy, broadcast.fan_out) == ("dml_broadcast", 3)
    assert broadcast.dml["shard"] is None
    assert again.dml["shard"] == shard_map.owner("customers", 3)
    # The broadcast call left neither the template nor the first plan routed
    # elsewhere.
    assert routed.dml["shard"] == shard_map.owner("customers", 2)
    assert coordinator.plan_cache.stats()["misses"] == 1


def test_an_upsert_object_without_the_partition_key_is_refused_every_call():
    coordinator, _ = _plain()
    text = "UPSERT @s INSERT {id: 1} UPDATE {name: 'x'} INTO customers"
    assert coordinator.plan(text, {"s": {"id": 1}}).strategy == "dml_routed"
    for _ in range(2):
        with pytest.raises(ClusterUnsupportedError, match="partition key 'id'"):
            coordinator.plan(text, {"s": {"name": "x"}})


def test_keys_on_two_shards_are_refused_on_every_call():
    coordinator, _ = _plain()
    text = "RETURN [DOCUMENT('customers', @a), DOCUMENT('customers', @b)]"
    assert coordinator.plan(text, {"a": 1, "b": 1}).segments[0].pinned == 1
    for _ in range(2):
        with pytest.raises(ClusterUnsupportedError, match="different shards"):
            coordinator.plan(text, {"a": 1, "b": 2})
    assert coordinator.plan_cache.stats()["misses"] == 1


def test_a_bind_of_another_type_or_an_extra_bind_is_planned_on_its_own():
    coordinator, _ = _plain()
    text = "FOR c IN customers FILTER c.id == @id RETURN c.name"
    coordinator.plan(text, {"id": 1})
    coordinator.plan(text, {"id": "1"})
    coordinator.plan(text, {"id": 1, "unused": True})
    coordinator.plan(text, {"id": 2})
    stats = coordinator.plan_cache.stats()
    assert (stats["size"], stats["misses"], stats["hits"]) == (3, 3, 1)
    # Without the bind the partition key is not static: a scatter.
    assert coordinator.plan(text, {}).strategy == "scatter"


def test_a_statement_refused_while_planning_is_refused_again():
    coordinator, _ = _plain()
    text = "FOR key IN FULLTEXT('feedback_text', 'great') RETURN key"
    for _ in range(2):
        with pytest.raises(ClusterUnsupportedError):
            coordinator.plan(text, {})
    stats = coordinator.plan_cache.stats()
    assert (stats["size"], stats["misses"]) == (0, 2)


def test_planning_another_statement_between_two_calls_changes_nothing():
    coordinator, shard_map = _plain()
    a = "FOR c IN customers FILTER c.id == @id RETURN c.name"
    b_text, b_binds = QUERIES_B["Q3"]
    first = coordinator.plan(a, {"id": 1})
    described = first.describe(shard_map)
    statements = [segment.statement for segment in first.segments]
    coordinator.plan(b_text, b_binds)
    later = coordinator.plan(a, {"id": 2})
    assert later.cached and not first.cached
    assert first.describe(shard_map) == described
    assert [segment.statement for segment in later.segments] == statements
    assert later.segments[0] is not first.segments[0]
    assert later.segments[0].pinned == shard_map.owner("customers", 2)


def test_workload_b_plans_once_per_statement():
    coordinator, shard_map = _plain()
    fresh = {}
    for round_ in range(2):
        for query_id, (text, binds) in QUERIES_B.items():
            plan = coordinator.plan(text, binds)
            assert plan.cached == bool(round_)
            described = plan.describe(shard_map)
            assert fresh.setdefault(query_id, described) == described
    stats = coordinator.plan_cache.stats()
    assert (stats["misses"], stats["hits"]) == (5, 5)


#: Statements whose plan depends on a bind value's owner, its type or,
#: for an object, its attributes: the fast path, a key pin, two key pins
#: that may disagree, and every routed write.
_ROUTED_STATEMENTS = [
    "FOR c IN customers FILTER c.id == @v RETURN c.name",
    "FOR o IN orders FILTER o.customer_id == @v "
    "COLLECT s = o.status WITH COUNT INTO n RETURN {s, n}",
    "RETURN DOCUMENT('customers', @v)",
    "RETURN [DOCUMENT('customers', @v), DOCUMENT('customers', @w)]",
    "INSERT @v INTO customers",
    "INSERT {id: @v, name: @w} INTO customers",
    "UPSERT @v INSERT {id: 1} UPDATE {name: 'x'} INTO customers",
    "UPDATE @v WITH {credit_limit: 0} IN customers",
    "REMOVE @v IN orders",
]

_SCALARS = st.one_of(
    st.integers(-50, 50),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
_VALUES = st.one_of(
    _SCALARS,
    st.dictionaries(st.sampled_from(["id", "name"]), _SCALARS, max_size=2),
)


def _outcome(coordinator, text, binds):
    try:
        plan = coordinator.plan(text, binds)
    except ClusterUnsupportedError as error:
        return ("refused", str(error))
    return (
        plan.strategy,
        plan.fan_out,
        [segment.pinned for segment in plan.segments],
        [segment.statement for segment in plan.segments],
        [segment.merge for segment in plan.segments],
        plan.dml,
        plan.describe(coordinator.shard_map),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_ROUTED_STATEMENTS),
            st.fixed_dictionaries({"v": _VALUES, "w": _VALUES}),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_a_cached_plan_is_the_plan_a_fresh_coordinator_makes(calls):
    shard_map = _shard_map()
    cached = Coordinator(shard_map)
    for text, binds in calls:
        expected = _outcome(Coordinator(shard_map), text, binds)
        assert _outcome(cached, text, binds) == expected
