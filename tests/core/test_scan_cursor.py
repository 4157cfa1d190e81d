"""The unified ScanCursor protocol: all nine model stores speak it, and
the batching semantics (width, termination, close, snapshots) hold
everywhere.
"""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.core.cursor import (
    DEFAULT_BATCH_SIZE,
    IteratorScanCursor,
    ScanCursor,
    open_scan_cursor,
)
from repro.errors import UnknownCollectionError
from repro.widecolumn import CqlColumn

ROWS_PER_STORE = 5

#: catalog name of every model store the fixture creates — the nine models.
ALL_STORES = [
    "people",  # relational
    "orders",  # document
    "cart",  # key/value
    "social",  # graph
    "events",  # wide-column
    "docs",  # xml/tree
    "facts",  # rdf/triple
    "places",  # spatial
    "objects",  # object
]


@pytest.fixture()
def full_db():
    db = MultiModelDB()
    db.create_table(
        TableSchema(
            "people",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.STRING),
            ],
            primary_key="id",
        )
    )
    for index in range(ROWS_PER_STORE):
        db.table("people").insert({"id": index, "name": f"p{index}"})
    orders = db.create_collection("orders")
    for index in range(ROWS_PER_STORE):
        orders.insert({"_key": f"o{index}", "n": index})
    cart = db.create_bucket("cart")
    for index in range(ROWS_PER_STORE):
        cart.put(f"k{index}", index)
    graph = db.create_graph("social")
    for key in ("a", "b", "c", "d", "e"):
        graph.add_vertex(key, {"name": key})
    graph.add_edge("a", "b", label="knows")
    events = db.create_wide_table(
        "events",
        [CqlColumn("id", "text"), CqlColumn("kind", "text")],
        primary_key="id",
    )
    for index in range(ROWS_PER_STORE):
        events.insert({"id": f"e{index}", "kind": "click"})
    trees = db.create_tree_store("docs")
    for index in range(ROWS_PER_STORE):
        trees.insert_json(f"/d{index}.json", {"n": index})
    facts = db.create_triple_store("facts")
    for index in range(ROWS_PER_STORE):
        facts.add(f"s{index}", "knows", f"t{index}")
    places = db.create_spatial("places")
    for index in range(ROWS_PER_STORE):
        places.put_point(f"pt{index}", index, index, {"n": index})
    objects = db.create_object_store()
    objects.define_class("Person", {"name": "string"})
    for index in range(ROWS_PER_STORE):
        objects.create("Person", {"name": f"x{index}"})
    return db


class TestProtocolAcrossAllStores:
    @pytest.mark.parametrize("name", ALL_STORES)
    def test_scan_cursor_yields_every_frame(self, full_db, name):
        store = full_db.resolve(name)
        cursor = store.scan_cursor()
        assert isinstance(cursor, ScanCursor)
        assert len(list(cursor)) == ROWS_PER_STORE

    @pytest.mark.parametrize("name", ALL_STORES)
    def test_next_batch_respects_width_and_terminates(self, full_db, name):
        cursor = full_db.resolve(name).scan_cursor()
        sizes = []
        while True:
            batch = cursor.next_batch(2)
            if not batch:
                break
            sizes.append(len(batch))
        assert sizes == [2, 2, 1]
        # Exhausted cursors keep answering [] — no StopIteration surprises.
        assert cursor.next_batch(2) == []

    @pytest.mark.parametrize("name", ALL_STORES)
    def test_batches_view_matches_row_view(self, full_db, name):
        store = full_db.resolve(name)
        rows = list(store.scan_cursor())
        batched = [
            frame
            for batch in store.scan_cursor().batches(3)
            for frame in batch
        ]
        assert batched == rows

    @pytest.mark.parametrize("name", ALL_STORES)
    def test_open_scan_cursor_resolves_by_catalog_name(self, full_db, name):
        with open_scan_cursor(full_db, name) as cursor:
            assert len(list(cursor)) == ROWS_PER_STORE

    @pytest.mark.parametrize("name", ALL_STORES)
    def test_close_is_idempotent_and_stops_iteration(self, full_db, name):
        cursor = full_db.resolve(name).scan_cursor()
        assert len(cursor.next_batch(1)) == 1
        cursor.close()
        cursor.close()
        assert cursor.next_batch(10) == []
        assert list(cursor) == []

    def test_context_manager_closes(self, full_db):
        with full_db.collection("orders").scan_cursor() as cursor:
            assert len(cursor.next_batch(2)) == 2
        assert cursor.next_batch(10) == []

    def test_unknown_name_raises(self, full_db):
        with pytest.raises(UnknownCollectionError):
            open_scan_cursor(full_db, "no_such_store")


class TestVisibilitySemantics:
    def test_open_cursor_is_snapshot_isolated(self, full_db):
        orders = full_db.collection("orders")
        cursor = orders.scan_cursor()
        orders.insert({"_key": "late", "n": 99})
        # The write landed ...
        assert len(list(orders.scan_cursor())) == ROWS_PER_STORE + 1
        # ... but the already-open cursor reads its point-in-time snapshot.
        assert len(list(cursor)) == ROWS_PER_STORE

    def test_txn_cursor_sees_its_own_writes(self, full_db):
        orders = full_db.collection("orders")
        txn = full_db.begin()
        orders.insert({"_key": "mine", "n": 100}, txn=txn)
        inside = {frame["_key"] for frame in orders.scan_cursor(txn=txn)}
        outside = {frame["_key"] for frame in orders.scan_cursor()}
        full_db.abort(txn)
        assert "mine" in inside
        assert "mine" not in outside

    def test_bucket_prefix_narrowing(self, full_db):
        cart = full_db.bucket("cart")
        cart.put("other:1", "x")
        keys = [f["_key"] for f in cart.scan_cursor(prefix="k")]
        assert sorted(keys) == [f"k{i}" for i in range(ROWS_PER_STORE)]


class TestFrameShapes:
    """What the per-store iteration methods used to return is what the
    cursor's frames carry."""

    def test_cursor_frames_are_the_stored_records(self, full_db):
        orders = full_db.collection("orders")
        assert list(orders.scan_cursor()) == [
            orders.get(f"o{index}") for index in range(ROWS_PER_STORE)
        ]
        assert list(full_db.table("people").scan_cursor()) == [
            {"id": index, "name": f"p{index}"}
            for index in range(ROWS_PER_STORE)
        ]
        assert [
            (frame["_key"], frame["value"])
            for frame in full_db.bucket("cart").scan_cursor()
        ] == [(f"k{index}", index) for index in range(ROWS_PER_STORE)]


class TestIteratorScanCursor:
    def test_default_batch_size_is_the_engine_default(self):
        cursor = IteratorScanCursor(iter(range(1000)))
        assert len(cursor.next_batch()) == DEFAULT_BATCH_SIZE

    def test_width_floor_is_one(self):
        cursor = IteratorScanCursor(iter(range(5)))
        assert cursor.next_batch(0) == [0]
        assert cursor.next_batch(-3) == [1]

    def test_exhaustion_closes(self):
        cursor = IteratorScanCursor(iter(range(3)))
        assert cursor.next_batch(10) == [0, 1, 2]
        assert cursor.next_batch(10) == []
        assert cursor._closed is True
