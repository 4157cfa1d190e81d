"""Evolution tests: inference, Sinew universal relation, mapping, migrations."""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.core.context import EngineContext
from repro.document import DocumentCollection
from repro.errors import SchemaError
from repro.evolution import (
    AddField,
    DropField,
    FlattenField,
    HybridEntityView,
    LazyMigrator,
    MigrationPlan,
    NestFields,
    RenameField,
    TransformField,
    UniversalRelation,
    collection_to_graph,
    collection_to_table,
    document_to_row,
    flatten_document,
    infer_schema,
    required_fields_of,
    row_to_document,
    schema_diff,
    table_to_collection,
)
from repro.graph import Direction, PropertyGraph


class TestInference:
    DOCS = [
        {"name": "Mary", "age": 30, "tags": ["vip"]},
        {"name": "John", "age": 25, "address": {"city": "Helsinki"}},
        {"name": "Anne", "age": "unknown"},
    ]

    def test_field_catalog(self):
        schema = infer_schema(self.DOCS)
        assert schema["count"] == 3
        assert set(schema["fields"]) == {"name", "age", "tags", "address"}

    def test_optionality_and_presence(self):
        schema = infer_schema(self.DOCS)
        assert schema["fields"]["name"]["optional"] is False
        assert schema["fields"]["tags"]["optional"] is True
        assert schema["fields"]["tags"]["presence"] == pytest.approx(1 / 3)

    def test_type_unions(self):
        schema = infer_schema(self.DOCS)
        assert schema["fields"]["age"]["types"] == ["number", "string"]

    def test_nested_fields(self):
        schema = infer_schema(self.DOCS)
        assert "city" in schema["fields"]["address"]["fields"]

    def test_array_item_types(self):
        schema = infer_schema(self.DOCS)
        assert schema["fields"]["tags"]["items"] == ["string"]

    def test_required_fields(self):
        schema = infer_schema(self.DOCS)
        assert required_fields_of(schema) == {"name": "string"}

    def test_diff(self):
        old = infer_schema([{"a": 1, "b": "x"}])
        new = infer_schema([{"b": 2, "c": True}])
        diff = schema_diff(old, new)
        assert diff["added"] == ["c"]
        assert diff["removed"] == ["a"]
        assert diff["changed"]["b"] == {"from": ["string"], "to": ["number"]}

    def test_empty(self):
        assert infer_schema([])["count"] == 0


class TestUniversalRelation:
    @pytest.fixture()
    def setup(self):
        context = EngineContext()
        collection = DocumentCollection(context, "events")
        relation = UniversalRelation(context.log, context.rows, collection.namespace)
        collection.insert({"_key": "1", "user": "mary", "meta": {"ip": "1.1.1.1"}})
        collection.insert({"_key": "2", "user": "john", "score": 7})
        return collection, relation

    def test_flatten(self):
        flat = flatten_document({"a": {"b": 1, "c": {"d": 2}}, "xs": [1, 2]})
        assert flat == {"a.b": 1, "a.c.d": 2, "xs": [1, 2]}

    def test_columns_grow_with_data(self, setup):
        _collection, relation = setup
        assert relation.columns() == ["_key", "meta.ip", "score", "user"]

    def test_virtual_column_read(self, setup):
        _collection, relation = setup
        assert dict(relation.column_values("user")) == {"1": "mary", "2": "john"}
        assert relation.virtual_reads == 1

    def test_promote_and_incremental_maintenance(self, setup):
        collection, relation = setup
        covered = relation.promote("user")
        assert covered == 2
        collection.insert({"_key": "3", "user": "anne"})
        assert dict(relation.column_values("user"))["3"] == "anne"
        assert relation.materialized_reads == 1
        collection.delete("1")
        assert "1" not in dict(relation.column_values("user"))

    def test_promote_unknown_column(self, setup):
        _collection, relation = setup
        with pytest.raises(SchemaError):
            relation.promote("nope")

    def test_demote(self, setup):
        _collection, relation = setup
        relation.promote("user")
        relation.demote("user")
        assert not relation.is_materialized("user")

    def test_select_universal_rows(self, setup):
        _collection, relation = setup
        rows = relation.select(lambda row: row["score"] is not None)
        assert len(rows) == 1
        assert rows[0]["user"] == "john"
        assert rows[0]["meta.ip"] is None  # universal relation semantics

    def test_row(self, setup):
        _collection, relation = setup
        row = relation.row("1")
        assert row["meta.ip"] == "1.1.1.1"
        assert relation.row("zz") is None


class TestRowDocumentMapping:
    def test_row_to_document(self):
        document = row_to_document({"id": 7, "name": "Mary"})
        assert document["_key"] == "7"
        assert document["name"] == "Mary"

    def test_document_to_row(self):
        row = document_to_row({"_key": "7", "name": "M", "a": {"b": 1}})
        assert row == {"name": "M", "a.b": 1}

    def test_document_to_row_projection(self):
        row = document_to_row({"_key": "7", "x": 1}, columns=["x", "y"])
        assert row == {"x": 1, "y": None}


class TestBulkCopies:
    @pytest.fixture()
    def db(self):
        db = MultiModelDB()
        db.create_table(
            TableSchema(
                "legacy",
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("name", ColumnType.STRING),
                ],
                primary_key="id",
            )
        )
        db.table("legacy").insert_many(
            [{"id": 1, "name": "Mary"}, {"id": 2, "name": "John"}]
        )
        return db

    def test_table_to_collection(self, db):
        collection = db.create_collection("modern")
        copied = table_to_collection(db.table("legacy"), collection)
        assert copied == 2
        assert collection.get("1")["name"] == "Mary"

    def test_collection_to_table_infers_types(self, db):
        collection = db.create_collection("events")
        collection.insert({"_key": "a", "n": 1, "s": "x", "flag": True})
        collection.insert({"_key": "b", "n": 2, "s": "y", "flag": False})
        table = collection_to_table(collection, db, "events_rel")
        assert table.get("a")["n"] == 1
        assert table.schema.column("n").type == ColumnType.FLOAT
        assert table.schema.column("s").type == ColumnType.STRING
        assert table.schema.column("flag").type == ColumnType.BOOLEAN

    def test_collection_to_graph(self, db):
        collection = db.create_collection("people")
        collection.insert({"_key": "1", "name": "Mary", "friends": ["2"]})
        collection.insert({"_key": "2", "name": "John", "friends": []})
        graph = db.create_graph("net")
        vertices, edges = collection_to_graph(collection, graph, {"friends": "knows"})
        assert (vertices, edges) == (2, 1)
        assert graph.neighbors("1", Direction.OUTBOUND, label="knows") == ["2"]
        assert graph.vertex("1")["name"] == "Mary"
        assert "friends" not in graph.vertex("1")


class TestHybridEntityView:
    @pytest.fixture()
    def view(self):
        db = MultiModelDB()
        db.create_table(
            TableSchema(
                "customers_v1",
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("name", ColumnType.STRING),
                ],
                primary_key="id",
            )
        )
        db.table("customers_v1").insert_many(
            [{"id": 1, "name": "Mary"}, {"id": 2, "name": "John"}]
        )
        collection = db.create_collection("customers_v2")
        collection.insert({"_key": "3", "name": "Anne", "loyalty": {"tier": "gold"}})
        return HybridEntityView(db.table("customers_v1"), collection)

    def test_unified_get(self, view):
        assert view.get(1)["name"] == "Mary"       # legacy era
        assert view.get("3")["loyalty"]["tier"] == "gold"  # new era

    def test_unified_iteration_and_count(self, view):
        assert view.count() == 3
        names = sorted(entity["name"] for entity in view.all())
        assert names == ["Anne", "John", "Mary"]

    def test_find_spans_eras(self, view):
        hits = view.find(lambda entity: entity["name"].startswith("M"))
        assert [entity["name"] for entity in hits] == ["Mary"]

    def test_writes_go_to_new_era(self, view):
        view.insert({"_key": "9", "name": "Eve"})
        assert view.migrated_count == 2
        assert view.legacy_count == 2

    def test_incremental_migration(self, view):
        moved = view.migrate(batch_size=1)
        assert moved == 1
        assert view.legacy_count == 1
        assert view.count() == 3
        view.migrate()
        assert view.legacy_count == 0
        assert view.count() == 3
        assert view.migrate() == 0


class TestMigrationPlan:
    def _plan(self):
        plan = MigrationPlan()
        plan.add_version([RenameField("fullname", "name")])
        plan.add_version(
            [
                AddField("active", default=True),
                TransformField("age", lambda age: int(age)),
            ]
        )
        plan.add_version([NestFields("profile", ["age", "active"])])
        return plan

    def test_stepwise_upgrade(self):
        plan = self._plan()
        document = {"_key": "1", "fullname": "Mary", "age": "30"}
        upgraded = plan.upgrade(document)
        assert upgraded == {
            "_key": "1",
            "name": "Mary",
            "profile": {"age": 30, "active": True},
            "_schema_version": 3,
        }

    def test_partial_upgrade(self):
        plan = self._plan()
        document = {"_key": "1", "fullname": "M", "age": "1"}
        v1 = plan.upgrade(document, to_version=1)
        assert v1["name"] == "M"
        assert v1["_schema_version"] == 1
        v3 = plan.upgrade(v1)
        assert v3["_schema_version"] == 3

    def test_cannot_downgrade_or_overshoot(self):
        plan = self._plan()
        with pytest.raises(SchemaError):
            plan.upgrade({"_schema_version": 9})
        with pytest.raises(SchemaError):
            plan.upgrade({}, to_version=99)

    def test_flatten_and_drop(self):
        plan = MigrationPlan()
        plan.add_version([FlattenField("meta"), DropField("legacy")])
        upgraded = plan.upgrade({"meta": {"a": 1}, "legacy": 0, "b": 2})
        assert upgraded == {"a": 1, "b": 2, "_schema_version": 1}

    def test_apply_all(self):
        collection = DocumentCollection(EngineContext(), "c")
        collection.insert({"_key": "1", "fullname": "Mary", "age": "30"})
        collection.insert({"_key": "2", "fullname": "John", "age": "25"})
        plan = self._plan()
        assert plan.apply_all(collection) == 2
        assert collection.get("1")["profile"]["age"] == 30
        # Idempotent: nothing left to rewrite.
        assert plan.apply_all(collection) == 0


class TestLazyMigrator:
    def test_lazy_reads_upgrade_without_writing(self):
        collection = DocumentCollection(EngineContext(), "c")
        collection.insert({"_key": "1", "fullname": "Mary"})
        plan = MigrationPlan()
        plan.add_version([RenameField("fullname", "name")])
        migrator = LazyMigrator(collection, plan)
        assert migrator.get("1")["name"] == "Mary"
        assert migrator.lazy_upgrades == 1
        # Storage still holds the old shape.
        assert "fullname" in collection.get("1")
        assert migrator.pending_count() == 1

    def test_settle_persists(self):
        collection = DocumentCollection(EngineContext(), "c")
        for i in range(5):
            collection.insert({"_key": str(i), "fullname": f"u{i}"})
        plan = MigrationPlan()
        plan.add_version([RenameField("fullname", "name")])
        migrator = LazyMigrator(collection, plan)
        assert migrator.settle(batch_size=3) == 3
        assert migrator.pending_count() == 2
        migrator.settle()
        assert migrator.pending_count() == 0
        assert all("name" in doc for doc in collection.scan_cursor())

    def test_mixed_version_iteration(self):
        collection = DocumentCollection(EngineContext(), "c")
        collection.insert({"_key": "old", "fullname": "Mary"})
        plan = MigrationPlan()
        plan.add_version([RenameField("fullname", "name")])
        collection.insert(
            {"_key": "new", "name": "John", "_schema_version": 1}
        )
        migrator = LazyMigrator(collection, plan)
        names = sorted(doc["name"] for doc in migrator.all())
        assert names == ["John", "Mary"]
