"""E11 (materialization) + E17 — virtual vs materialized columns.

HPE Vertica flex tables (slide 43: "promoting virtual columns to real
columns improves query performance") and Sinew's partially materialized
universal relation (slide 36).

Expected shape: a promoted column is read from its map; a virtual column
re-scans and re-flattens every document.
"""

import random

import pytest

from repro.core.context import EngineContext
from repro.document.store import DocumentCollection
from repro.evolution.sinew import UniversalRelation

N = 1500


def _build():
    context = EngineContext()
    collection = DocumentCollection(context, "events")
    relation = UniversalRelation(context.log, context.rows, collection.namespace)
    rng = random.Random(5)
    for i in range(N):
        collection.insert(
            {
                "_key": str(i),
                "user": f"user{rng.randint(1, 50)}",
                "meta": {"ip": f"10.0.0.{rng.randint(1, 254)}",
                         "score": rng.randint(0, 100)},
            }
        )
    return collection, relation


COLLECTION, RELATION = _build()
RELATION_PROMOTED_BUILT = False


def test_virtual_column_scan(benchmark):
    RELATION.demote("meta.score")
    total = benchmark(
        lambda: sum(value for _key, value in RELATION.column_values("meta.score"))
    )
    assert total > 0


def test_materialized_column_scan(benchmark):
    RELATION.promote("meta.score")
    total = benchmark(
        lambda: sum(value for _key, value in RELATION.column_values("meta.score"))
    )
    assert total == sum(
        value for _key, value in UniversalRelationReadBack()
    )


def UniversalRelationReadBack():
    for document in COLLECTION.scan_cursor():
        yield document["_key"], document["meta"]["score"]


def test_promotion_cost(benchmark):
    """The one-time price of materializing (Vertica's column promotion)."""

    def promote():
        RELATION.demote("meta.ip")
        return RELATION.promote("meta.ip")

    covered = benchmark(promote)
    assert covered == N


def test_universal_relation_select(benchmark):
    rows = benchmark(
        RELATION.select,
        lambda row: (row["meta.score"] or 0) > 95,
    )
    assert all(row["meta.score"] > 95 for row in rows)
