"""Coordinator planning: strategies, routing, and honest refusals.

These tests plan against a fake topology without starting servers — the
plan (strategy, fan-out, pinned shard, rendered statements) is a pure
function of the statement, the binds and the shard map.
"""

import pytest

from repro.cluster.coordinator import Coordinator
from repro.cluster.shardmap import ShardMap, StorePlacement, demo_placements
from repro.errors import ClusterUnsupportedError
from repro.unibench.workloads import QUERIES_B


def _coordinator(num_shards=3, placements=None):
    shard_map = ShardMap(
        [f"127.0.0.1:{9000 + index}" for index in range(num_shards)],
        placements or demo_placements(),
    )
    return Coordinator(shard_map), shard_map


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


def test_sorted_scatter_merges_with_a_k_way_merge():
    coordinator, _ = _coordinator()
    text, binds = QUERIES_B["Q4"]
    plan = coordinator.plan(text, binds)
    assert plan.segments[-1].merge["kind"] == "sort"


def test_collect_scatter_combines_partial_aggregates():
    coordinator, _ = _coordinator()
    text, binds = QUERIES_B["Q3"]
    plan = coordinator.plan(text, binds)
    assert plan.segments[-1].merge["kind"] == "collect"


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
