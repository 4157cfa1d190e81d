"""Schema & model evolution (challenge 3, slide 94) in practice.

Scenario: a shop's customers started life as a relational table (legacy);
new customers are JSON documents.  This example shows:

1. one :class:`HybridEntityView` over both eras (query without migrating);
2. incremental migration of the legacy rows;
3. schema inference over the merged collection and a versioned
   :class:`MigrationPlan` applied lazily on read, then settled;
4. a Sinew universal relation with a promoted (materialized) column.

Run:  python examples/model_evolution.py
"""

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.evolution import (
    AddField,
    HybridEntityView,
    LazyMigrator,
    MigrationPlan,
    NestFields,
    RenameField,
    UniversalRelation,
    infer_schema,
    schema_diff,
)


def main() -> None:
    db = MultiModelDB()

    # Legacy era: the relational table.
    db.create_table(
        TableSchema(
            "customers_v1",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("fullname", ColumnType.STRING),
                Column("city", ColumnType.STRING),
            ],
            primary_key="id",
        )
    )
    db.table("customers_v1").insert_many(
        [
            {"id": 1, "fullname": "Mary Novak", "city": "Prague"},
            {"id": 2, "fullname": "John Virtanen", "city": "Helsinki"},
        ]
    )

    # New era: the document collection (richer, nested, schemaless).
    new_era = db.create_collection("customers_v2")
    new_era.insert(
        {"_key": "3", "fullname": "Anne Svoboda",
         "contact": {"city": "Brno", "email": "anne@example.com"}}
    )

    # 1. Query both eras through one view, no migration needed.
    view = HybridEntityView(db.table("customers_v1"), new_era)
    print("Unified entity count:", view.count())
    for entity in view.all():
        print("  ", entity["fullname"])

    # 2. Migrate incrementally (one batch here).
    moved = view.migrate(batch_size=10)
    print(f"migrated {moved} legacy rows; legacy left: {view.legacy_count}")

    # 3. Infer the merged schema, then evolve it with a plan.
    schema = infer_schema(new_era.scan_cursor())
    print("inferred fields:", sorted(schema["fields"]))

    plan = MigrationPlan()
    plan.add_version([RenameField("fullname", "name")])
    plan.add_version(
        [
            AddField("active", default=True),
            NestFields("address", ["city"]),
        ]
    )
    migrator = LazyMigrator(new_era, plan)
    print("latest-version read:", migrator.get("1"))
    print("pending upgrades in storage:", migrator.pending_count())
    migrator.settle()
    print("after settle, pending:", migrator.pending_count())

    after = infer_schema(new_era.scan_cursor())
    print("schema diff legacy→latest:", schema_diff(schema, after))

    # 4. A Sinew universal relation over the evolved collection.
    relation = UniversalRelation(
        db.context.log, db.context.rows, new_era.namespace
    )
    print("universal relation columns:", relation.columns())
    relation.promote("name")
    rows = relation.select(lambda row: row["address.city"] == "Prague",
                           columns=["name", "address.city"])
    print("Prague customers via universal relation:", rows)


if __name__ == "__main__":
    main()
