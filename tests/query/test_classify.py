"""Verdict pinning for the statement classification.

The replica-set router and the server's replica and semi-sync gates
route on a statement's ``writes`` (:meth:`StatementMemo.classify`).
These tests pin the verdict for every DML form (including writes buried
in subqueries) so a parser or classifier change that flips one shows up
as a routing regression here, not as a write silently landing on a
replica or the wrong shard.  The replica router also picks a read's
consistency level from the stores the statement names, so those are
pinned too: a store the classifier misses is a store read at the wrong
level.
"""

import pytest

from repro.query.shapes import StatementMemo
from repro.unibench.workloads import QUERIES_B


def classify(text):
    return StatementMemo().classify(text)


def statement_writes(text):
    return classify(text).writes

WRITES = [
    "INSERT {_key: 'a', v: 1} INTO kv",
    "UPDATE 'a' WITH {v: 2} IN kv",
    "REMOVE 'a' IN kv",
    "REPLACE 'a' WITH {v: 3} IN kv",
    "UPSERT {_key: 'a'} INSERT {_key: 'a', v: 4} UPDATE {v: 4} INTO kv",
    "FOR d IN kv FILTER d.v > 1 UPDATE d._key WITH {v: 0} IN kv",
    "FOR d IN kv REMOVE d._key IN kv",
    "FOR d IN kv REPLACE d._key WITH {v: d.v} IN kv",
    "FOR c IN customers INSERT {name: c.name} INTO audit",
    # A write buried in a subquery is still a write — the routers must
    # send the whole statement to the primary / owning shards.
    "LET moved = (FOR d IN kv INSERT {v: d.v} INTO archive) RETURN moved",
    "FOR c IN customers LET n = (FOR d IN kv REMOVE d._key IN kv) RETURN c",
    # EXPLAIN ANALYZE runs the statement, so a replica must refuse it.
    "EXPLAIN ANALYZE INSERT {_key: 'b'} INTO kv",
]

READS = [
    "RETURN 1",
    "FOR d IN kv RETURN d",
    "FOR c IN customers FILTER c.id == 1 RETURN c",
    "FOR o IN orders COLLECT c = o.customer_id WITH COUNT INTO n "
    "RETURN {c, n}",
    "FOR c IN customers LET friends = (FOR f IN 1..1 OUTBOUND c._key "
    "GRAPH 'social' RETURN f) RETURN friends",
]


@pytest.mark.parametrize("text", WRITES)
def test_writes_classify_as_writes(text):
    assert statement_writes(text) is True


@pytest.mark.parametrize("text", READS)
def test_reads_classify_as_reads(text):
    assert statement_writes(text) is False


@pytest.mark.parametrize("query_id", sorted(QUERIES_B))
def test_workload_b_is_read_only(query_id):
    text, _ = QUERIES_B[query_id]
    assert statement_writes(text) is False


def test_unparseable_text_is_treated_as_a_read():
    # The engine raises the real parse error with position info; the
    # routing layer must not pre-empt it with a guess.
    assert statement_writes("THIS IS NOT MMQL (") is False



@pytest.mark.parametrize(
    "text, stores, unnamed",
    [
        ("RETURN 1", set(), False),
        ("FOR c IN customers RETURN c", {"customers"}, False),
        ("explain analyze FOR c IN customers RETURN c", {"customers"}, False),
        # A FOR over a bound variable or a bind reads no store.
        ("LET xs = [1, 2] FOR x IN xs RETURN x", set(), False),
        ("FOR x IN @rows RETURN x", set(), False),
        ("FOR v IN 1..2 OUTBOUND 'a' GRAPH social RETURN v", {"social"}, False),
        ("RETURN KV_GET('carts', 'k')", {"carts"}, False),
        # Subqueries at any depth, and an outer variable is not a store.
        (
            "FOR c IN customers LET f = (FOR o IN orders "
            "FILTER o.cid == c.id RETURN NEIGHBORS('social', o.k)) RETURN f",
            {"customers", "orders", "social"},
            False,
        ),
        # The text does not say which store these read.
        ("RETURN DOCUMENT(@coll, 1)", set(), True),
        ("LET n = 'carts' RETURN KV_GET(n, 'k')", set(), True),
        ("RETURN FULLTEXT('bio_idx', 'graph')", set(), True),
        ("THIS IS NOT MMQL (", set(), False),
    ],
)
def test_stores_a_statement_names(text, stores, unnamed):
    statement = classify(text)
    assert statement.stores == stores
    assert statement.unnamed is unnamed
