"""E16 — model evolution: legacy relation + new documents (slide 94).

Measures the three access strategies for a half-migrated entity set:

* hybrid view (query both eras in place, no migration);
* lazy migration (upgrade on read, storage mixed-version);
* eager migration (rewrite everything once, then read clean).

Expected shape: hybrid/lazy reads pay a per-read translation tax; the
eager rewrite is a one-time cost after which reads are cheapest.
"""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.evolution import (
    HybridEntityView,
    LazyMigrator,
    MigrationPlan,
    RenameField,
)

N = 500


def _build_hybrid():
    db = MultiModelDB()
    db.create_table(
        TableSchema(
            "legacy",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("fullname", ColumnType.STRING),
            ],
            primary_key="id",
        )
    )
    for i in range(N // 2):
        db.table("legacy").insert({"id": i, "fullname": f"legacy-{i}"})
    modern = db.create_collection("modern")
    for i in range(N // 2, N):
        modern.insert({"_key": str(i), "fullname": f"modern-{i}"})
    return db, HybridEntityView(db.table("legacy"), modern)


def test_hybrid_view_scan(benchmark):
    _db, view = _build_hybrid()
    count = benchmark(view.count)
    assert count == N


def test_hybrid_view_find(benchmark):
    _db, view = _build_hybrid()
    hits = benchmark(view.find, lambda e: e["fullname"].endswith("7"))
    assert hits


def test_incremental_migration_cost(benchmark):
    def migrate_all():
        _db, view = _build_hybrid()
        moved = 0
        while True:
            batch = view.migrate(batch_size=100)
            if batch == 0:
                return moved
            moved += batch

    moved = benchmark.pedantic(migrate_all, rounds=3, iterations=1)
    assert moved == N // 2


def _build_versioned():
    db = MultiModelDB()
    collection = db.create_collection("people")
    for i in range(N):
        collection.insert({"_key": str(i), "fullname": f"p{i}"})
    plan = MigrationPlan()
    plan.add_version([RenameField("fullname", "name")])
    return collection, plan


def test_lazy_migration_reads(benchmark):
    collection, plan = _build_versioned()
    migrator = LazyMigrator(collection, plan)
    names = benchmark(lambda: sum(1 for doc in migrator.all() if doc["name"]))
    assert names == N
    assert migrator.pending_count() == N  # storage untouched


def test_eager_migration_then_reads(benchmark):
    collection, plan = _build_versioned()
    plan.apply_all(collection)

    def read():
        return sum(1 for doc in collection.scan_cursor() if doc["name"])

    assert benchmark(read) == N


def test_eager_rewrite_cost(benchmark):
    def rewrite():
        collection, plan = _build_versioned()
        return plan.apply_all(collection)

    rewritten = benchmark.pedantic(rewrite, rounds=3, iterations=1)
    assert rewritten == N
