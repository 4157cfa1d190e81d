"""Scatter-path parity for the rewrite-rule fixtures.

The coordinator applies only the *ast-safe* rules (constant folding,
predicate split, filter pushdown) before unparsing segments for the
shards; physical rules — decorrelation, materialization, index selection,
hash joins — fire shard-locally.  These tests prove the split is sound:
correlated-subquery and shared-LET statements answered by a sharded
cluster return exactly the rows the embedded engine returns on the same
data, and the shard-local plans really do decorrelate.
"""

import json

import pytest

from repro import MultiModelDB
from repro.cluster import start_cluster
from repro.query.engine import run_query
from repro.unibench.generator import generate, load_into_multimodel
from repro.unibench.workloads import QUERIES_B
from tests.query.nested_scopes import ALIGNED, NESTED_QUERIES

#: orders is hash-partitioned on customer_id, customers on id — the
#: correlated subquery is aligned with the enclosing partition value, so
#: the coordinator scatters it and every shard decorrelates locally.
SEMI_INLINE = """
FOR c IN customers
  FILTER LENGTH(FOR o IN orders
                  FILTER o.customer_id == c.id RETURN o) > 0
  RETURN c.id
"""

ANTI_LET = """
FOR c IN customers
  LET mine = (FOR o IN orders FILTER o.customer_id == c.id RETURN o)
  FILTER LENGTH(mine) == 0
  RETURN c.id
"""

#: Mixed-variable conjunction over an aligned join: predicate_split +
#: pushdown happen on the coordinator (ast-safe), the join on the shards.
SPLIT_JOIN = """
FOR c IN customers
  FOR o IN orders
    FILTER o.customer_id == c.id AND c.city == @city
    RETURN {order: o.Order_no, total: o.total}
"""


#: Statements whose subqueries stay in the plan and correlate along the
#: partition keys: every shard plans them locally as nested scopes.
NESTED = {"Q4": QUERIES_B["Q4"], **{name: NESTED_QUERIES[name] for name in ALIGNED}}


def _canon(rows):
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
def cluster(request, data):
    with start_cluster(num_shards=request.param, data=data) as handle:
        with handle.client() as client:
            yield client


@pytest.mark.parametrize(
    "text,binds",
    [
        (SEMI_INLINE, {}),
        (ANTI_LET, {}),
        (SPLIT_JOIN, {"city": "Prague"}),
    ],
    ids=["semi_inline", "anti_let", "split_join"],
)
def test_cluster_rows_equal_embedded_rows(text, binds, embedded, cluster):
    expected = embedded.query(text, binds).rows
    got = cluster.query(text, binds).rows
    assert _canon(got) == _canon(expected)
    assert len(got) > 0, "vacuous equivalence"


def test_shard_local_plans_decorrelate(cluster):
    result = cluster.query("EXPLAIN ANALYZE " + SEMI_INLINE)
    # Every shard's analyzed segment report shows the rewritten operator.
    assert "SemiJoin" in result.analyzed


@pytest.mark.parametrize("name", sorted(NESTED))
def test_nested_scope_rows_equal_unoptimized_embedded_rows(
    name, embedded, cluster
):
    text, binds = NESTED[name]
    expected = run_query(embedded, text, binds, optimize_query=False).rows
    assert len(expected) > 0, "vacuous equivalence"
    # Every nested-scope statement SORTs: the order is part of the answer.
    assert cluster.query(text, binds).rows == expected
    assert embedded.query(text, binds).rows == expected


def test_shard_local_plans_probe_the_index_inside_the_subquery(cluster):
    text, binds = QUERIES_B["Q4"]
    result = cluster.query("EXPLAIN ANALYZE " + text, binds)
    assert "IndexScan f IN feedback USING hash index" in result.analyzed
