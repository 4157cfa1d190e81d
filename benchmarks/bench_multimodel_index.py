"""E18 — the multi-model join index (challenge 4, slide 95).

The recommendation join (graph → key/value → documents) three ways:

* computed per query through the MMQL pipeline;
* computed per query through the model APIs;
* answered by one probe of a materialized :class:`MultiModelJoinIndex`
  (plus its rebuild cost, measured separately — the break-even question).

Expected shape: probe << pipeline; rebuild ≈ one pipeline pass over all
sources, so the index pays off once a source key is queried more often
than its inputs change.
"""

import pytest

from repro.indexes.multimodel import EdgeHop, FieldLookupHop, KvHop, MultiModelJoinIndex
from repro.query.engine import run_query

QUERY = """
FOR f IN 1..1 OUTBOUND @start GRAPH social LABEL 'knows'
  LET order_no = KV_GET('cart', f._key)
  FILTER order_no != NULL
  FOR o IN orders FILTER o.Order_no == order_no
    RETURN o._key
"""

START = "10"


@pytest.fixture(scope="module")
def join_index(mm_db):
    index = MultiModelJoinIndex(
        mm_db.context.log,
        mm_db.context.rows,
        source_namespace=mm_db.graph("social").vertex_namespace,
        hops=[
            EdgeHop(mm_db.graph("social").edge_namespace, "outbound"),
            KvHop(mm_db.bucket("cart").namespace),
            FieldLookupHop(mm_db.collection("orders").namespace, "Order_no"),
        ],
        name="friend-orders",
    )
    index.rebuild()
    return index


def _expected(mm_db):
    return set(run_query(mm_db, QUERY, {"start": START}).rows)


def test_pipeline_per_query(benchmark, mm_db):
    result = benchmark(run_query, mm_db, QUERY, {"start": START})
    assert set(result.rows) == _expected(mm_db)


def test_api_per_query(benchmark, mm_db):
    def by_hand():
        found = set()
        for friend in mm_db.graph("social").neighbors(START, label="knows"):
            order_no = mm_db.bucket("cart").get(friend)
            if order_no is None:
                continue
            for order in mm_db.collection("orders").find_path_equals(
                "Order_no", order_no
            ):
                found.add(order["_key"])
        return found

    assert benchmark(by_hand) == _expected(mm_db)


def test_index_probe(benchmark, mm_db, join_index):
    result = benchmark(join_index.lookup, START)
    assert set(result) == _expected(mm_db)


def test_index_rebuild_cost(benchmark, mm_db, join_index):
    benchmark(join_index.rebuild)
    assert len(join_index) == mm_db.graph("social").vertex_count()


def test_index_agrees_everywhere(benchmark, mm_db, join_index):
    """Full-surface correctness sweep, timed as the verification pass."""

    def sweep():
        mismatches = 0
        for vertex in list(mm_db.graph("social").scan_cursor())[:50]:
            key = vertex["_key"]
            expected = set(run_query(mm_db, QUERY, {"start": key}).rows)
            if set(join_index.lookup(key)) != expected:
                mismatches += 1
        return mismatches

    assert benchmark.pedantic(sweep, rounds=1, iterations=1) == 0
