"""Satellite: scatter-gather equivalence against the embedded engine.

The whole cluster tier stands on one promise: a statement answered by N
shards returns the *same rows* the embedded engine returns on the same
data.  These tests run Workload B (Q1–Q5, the cross-model mix: graph
hop + KV + document join, aggregate pipelines, sorted scans) against an
embedded database, a 1-shard cluster and a 3-shard cluster built from
the identical generated data set, and compare row-for-row.

Ordered queries (Q3 sorts its groups, Q4 k-way-merges on product_no)
must match exactly; unordered queries are compared as multisets — shard
interleaving is allowed to permute them, nothing more.
"""

import json

import pytest

from repro import MultiModelDB
from repro.client import ReproClient
from repro.cluster import start_cluster
from repro.errors import BindError, ParseError
from repro.server import ReproServer
from repro.unibench.generator import generate, load_into_multimodel
from repro.query.engine import run_query
from repro.unibench.workloads import QUERIES_B, workload_b_remote
from tests.query.nested_scopes import (
    COLLECT_QUERIES,
    COLLECT_SCATTER,
    LOOKUP_SCATTER,
)

#: Queries whose statements impose a total order on the result.
ORDERED = {"Q3", "Q4"}


def _canon(rows, ordered):
    if ordered:
        return [json.dumps(row, sort_keys=True, default=str) for row in rows]
    return sorted(
        json.dumps(row, sort_keys=True, default=str) for row in rows
    )


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=1, seed=11)


@pytest.fixture(scope="module")
def embedded(data):
    db = MultiModelDB()
    load_into_multimodel(db, data)
    return db


@pytest.fixture(scope="module", params=[1, 3], ids=["1shard", "3shards"])
def shards(request, data):
    with start_cluster(num_shards=request.param, data=data) as handle:
        yield handle


@pytest.fixture(scope="module")
def cluster(shards):
    with shards.client() as client:
        yield client


@pytest.mark.parametrize("query_id", sorted(QUERIES_B))
def test_cluster_rows_equal_embedded_rows(query_id, embedded, cluster):
    expected = workload_b_remote(embedded, query_id).rows
    got = workload_b_remote(cluster, query_id).rows
    ordered = query_id in ORDERED
    assert _canon(got, ordered) == _canon(expected, ordered), query_id
    assert len(got) > 0, f"{query_id} returned nothing — vacuous equivalence"


#: A second bind set per Workload-B query, of the first one's shape.
OTHER_BINDS = {
    "Q1": {"min_credit": 3000},
    "Q2": {"city": "Brno"},
    "Q3": {},
    "Q4": {"category": "Toy"},
    "Q5": {"start": "13"},
}


@pytest.mark.parametrize("query_id", sorted(QUERIES_B))
def test_a_cached_plan_answers_other_bind_values(query_id, embedded, cluster):
    """Back to back on one client: the second bind set is served from the
    plan the first one cached, and both answer as embedded does."""
    ordered = query_id in ORDERED
    for position, binds in enumerate((None, OTHER_BINDS[query_id])):
        expected = workload_b_remote(embedded, query_id, binds).rows
        got = workload_b_remote(cluster, query_id, binds)
        assert _canon(got.rows, ordered) == _canon(expected, ordered)
        assert len(expected) > 0, "vacuous equivalence"
        if position:
            assert got.stats["plan_cached"] is True


@pytest.mark.parametrize("name", COLLECT_SCATTER)
def test_collect_into_aggregates_equal_unoptimized_embedded_rows(
    name, embedded, cluster
):
    """The coordinator turns ``AGG(members[*].path)`` into per-shard
    partial aggregates with the rule the embedded optimizer uses, and
    only with it: a group a later FILTER or a ternary spares is never
    aggregated, and the shapes the rule leaves ship their members."""
    text, binds = COLLECT_QUERIES[name]
    expected = run_query(embedded, text, binds, optimize_query=False).rows
    assert len(expected) > 0, "vacuous equivalence"
    assert cluster.query(text, binds).rows == expected  # every one SORTs


#: Statements the coordinator finishes itself.  The executor cuts frames
#: with LIMIT before RETURN DISTINCT dedupes what is left, so shards must
#: not dedupe ahead of the coordinator's cut.  The first sort key ties
#: across shards (one run per residue) and the second runs the other way;
#: rows that tie on both are equal rows, so embedded order is the only
#: right answer.  A column NULL in every row makes every MIN/MAX partial
#: NULL and every AVG count zero.
MERGE_QUERIES = {
    "distinct_after_limit": (
        "FOR o IN orders SORT o.customer_id LIMIT 0, 5 "
        "RETURN DISTINCT o.customer_id"
    ),
    "distinct_after_offset_limit": (
        "FOR o IN orders SORT o.customer_id LIMIT 2, 5 "
        "RETURN DISTINCT o.customer_id"
    ),
    "ascending_then_descending_with_ties": (
        "FOR o IN orders SORT o.customer_id % 3, o.total DESC LIMIT 3, 40 "
        "RETURN [o.customer_id % 3, o.total]"
    ),
    "descending_then_ascending_with_ties": (
        "FOR o IN orders SORT o.customer_id % 3 DESC, o.total LIMIT 3, 40 "
        "RETURN [o.customer_id % 3, o.total]"
    ),
    "aggregates_of_null_partials": (
        "FOR c IN customers COLLECT city = c.city "
        "AGGREGATE low = MIN(c.no_such), high = MAX(c.no_such), "
        "mean = AVG(c.no_such) "
        "SORT city RETURN {city, low, high, mean}"
    ),
}


@pytest.mark.parametrize("name", sorted(MERGE_QUERIES))
def test_merged_rows_equal_unoptimized_embedded_rows(name, embedded, cluster):
    text = MERGE_QUERIES[name]
    expected = run_query(embedded, text, {}, optimize_query=False).rows
    assert len(expected) > 0, "vacuous equivalence"
    assert cluster.query(text).rows == expected


@pytest.mark.parametrize("name", sorted(LOOKUP_SCATTER))
def test_lookups_equal_unoptimized_embedded_rows(name, embedded, cluster):
    """Each shard gathers, dedupes and probes its own batches; the merged
    rows are the unoptimized embedded statement's."""
    text, binds = LOOKUP_SCATTER[name]
    expected = run_query(embedded, text, binds, optimize_query=False).rows
    assert len(expected) > 0, "vacuous equivalence"
    assert cluster.query(text, binds).rows == expected  # every one SORTs


#: A COLLECT without group keys emits one frame over no input: on every
#: shard, when no customer passes, and on all shards but one, when the
#: one customer of a name passes (``c.id`` would route to one shard).
GLOBAL_COLLECTS = {
    "with_count": ("COLLECT WITH COUNT INTO n RETURN n", [0]),
    "aggregates": (
        "COLLECT AGGREGATE n = COUNT(c), s = SUM(c.credit_limit), "
        "a = AVG(c.credit_limit), lo = MIN(c.credit_limit), "
        "hi = MAX(c.credit_limit) RETURN {n, s, a, lo, hi}",
        [{"n": 0, "s": None, "a": None, "lo": None, "hi": None}],
    ),
}


@pytest.mark.parametrize("name", sorted(GLOBAL_COLLECTS))
def test_a_global_collect_over_empty_shards(name, embedded, cluster):
    collect, empty = GLOBAL_COLLECTS[name]
    shards = cluster.shard_map.num_shards
    text = f"FOR c IN customers FILTER c.credit_limit < 0 {collect}"
    assert embedded.query(text).rows == empty
    result = cluster.query(text)
    assert result.rows == empty
    assert result.stats["fan_out"] == shards
    (customer,) = embedded.query("FOR c IN customers SORT c.id LIMIT 1 RETURN c.name").rows
    text = f"FOR c IN customers FILTER c.name == @name {collect}"
    expected = embedded.query(text, {"name": customer}).rows
    assert expected != empty
    result = cluster.query(text, {"name": customer})
    assert result.rows == expected
    assert result.stats["fan_out"] == shards


def test_a_variable_read_only_inside_a_subquery_crosses_the_cut(
    embedded, cluster
):
    """``orders`` is not aligned with ``customers`` here, so the pipeline
    is cut before it; ``tags`` is bound before the cut and read after it
    only as the source of the subquery's FOR."""
    text = """
    FOR c IN customers
      FILTER c.id <= 3
      LET tags = [c.id, c.credit_limit]
      FOR o IN orders
        FILTER o.total > 0
        RETURN {c: c.id, o: o._key,
                n: LENGTH((FOR t IN tags FILTER t > 1 RETURN t))}
    """
    expected = embedded.query(text).rows
    assert expected and any(row["n"] for row in expected)
    assert _canon(cluster.query(text).rows, False) == _canon(expected, False)


def test_explain_analyze_surfaces_the_fan_out(cluster):
    text, binds = QUERIES_B["Q2"]
    result = cluster.query("EXPLAIN ANALYZE " + text, binds)
    shards = cluster.shard_map.num_shards
    assert f"fan_out={shards}" in result.analyzed
    assert result.stats["fan_out"] == shards
    # Per-shard execution reports ride along under the cluster header.
    assert result.analyzed.count("segment 0 shard ") == shards


def test_explain_analyze_stats_are_compatible_with_embedded(
    embedded, cluster
):
    text, binds = QUERIES_B["Q2"]
    expected = embedded.query(text, binds)
    result = cluster.query(text, binds, analyze=True)
    # The cluster's scanned total is the sum over shards of partitioned
    # scans — it must equal the embedded engine's scan of the same rows.
    assert result.stats["scanned"] == expected.stats["scanned"]
    assert result.stats["rows_returned"] == len(expected.rows)


def test_partition_key_equality_proves_fan_out_one(cluster):
    plan = cluster.explain(
        "FOR c IN customers FILTER c.id == @id RETURN c.name", {"id": 3}
    )
    assert "fan_out=1" in plan
    result = cluster.query(
        "EXPLAIN ANALYZE FOR c IN customers FILTER c.id == @id "
        "RETURN c.name",
        {"id": 3},
    )
    assert "fan_out=1" in result.analyzed


#: Reads by primary key: each shard probes its own key map.  ``orders``
#: is partitioned on ``customer_id``, not on ``_key``; ``cart`` is
#: replicated.
PRIMARY_KEY_QUERIES = {
    "table_key": ("FOR c IN customers FILTER c.id == @id RETURN c.name", {"id": 7}),
    "document_key": (
        "FOR o IN orders FILTER o._key == @key RETURN o.total", {"key": "o000001"}
    ),
    "bucket_key": ("FOR x IN cart FILTER x._key == @key RETURN x.value", {"key": "3"}),
    "inner_key": (
        "FOR o IN orders FOR c IN customers FILTER c.id == o.customer_id "
        "SORT o._key RETURN {o: o._key, c: c.name}",
        {},
    ),
}


@pytest.mark.parametrize("index_selection", [True, False], ids=["probe", "scan"])
@pytest.mark.parametrize("name", sorted(PRIMARY_KEY_QUERIES))
def test_primary_key_reads_equal_embedded_rows(
    name, index_selection, embedded, shards, cluster
):
    text, binds = PRIMARY_KEY_QUERIES[name]
    expected = run_query(embedded, text, binds, optimize_query=False).rows
    assert len(expected) > 0, "vacuous equivalence"
    dbs = [embedded, *shards.dbs]
    if not index_selection:
        for db in dbs:
            db.optimizer_rules.disable("index_selection")
    try:
        assert embedded.query(text, binds).rows == expected
        result = cluster.query(text, binds, analyze=True)
        assert result.rows == expected
        assert ("USING primary key" in result.analyzed) == index_selection
    finally:
        for db in dbs:
            db.optimizer_rules.enable("index_selection")


@pytest.fixture(scope="module")
def wire(embedded):
    with ReproServer(embedded, port=0) as server:
        with ReproClient(port=server.port, sleep=None) as client:
            yield client


def _through(path, text, binds, analyze, embedded, wire, cluster):
    """*text*'s rows through one of the four ways a statement runs, and
    its annotated plan when *analyze* is on."""
    if path == "query_cursor":
        prefix = "EXPLAIN ANALYZE " if analyze else ""
        with embedded.query_cursor(prefix + text, binds) as cursor:
            return cursor.fetch_all(), cursor.analyzed
    target = {"query": embedded, "wire": wire, "cluster": cluster}[path]
    result = target.query(text, binds, analyze=analyze)
    return result.rows, result.analyzed


PATHS = ["query", "query_cursor", "wire", "cluster"]


@pytest.mark.parametrize("analyze", [False, True], ids=["plain", "analyze"])
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("query_id", sorted(QUERIES_B))
def test_every_path_answers_the_same_rows(
    query_id, path, analyze, embedded, wire, cluster
):
    text, binds = QUERIES_B[query_id]
    ordered = query_id in ORDERED
    expected = _canon(embedded.query(text, binds).rows, ordered)
    rows, analyzed = _through(path, text, binds, analyze, embedded, wire, cluster)
    assert _canon(rows, ordered) == expected
    assert (analyzed is not None) == analyze


@pytest.mark.parametrize("analyze", [False, True], ids=["plain", "analyze"])
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "text,error",
    [
        ("FOR c IN customers RETURN c.id + @missing", BindError),
        ("FOR c IN customers RETURN", ParseError),
    ],
    ids=["bind", "parse"],
)
def test_every_path_answers_the_same_error(
    text, error, path, analyze, embedded, wire, cluster
):
    with pytest.raises(error):
        _through(path, text, {}, analyze, embedded, wire, cluster)
