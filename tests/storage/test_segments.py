"""Columnar segment storage: typed arrays, null sets, zone maps, tail
appends, copy-on-write row patches at commit, lazy rebuilds after a
delete, and the conservative ``segment_may_match`` pruning predicate."""

import random
import sys
import threading
import time

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.storage.segments import (
    SEGMENT_ROWS,
    ColumnBatch,
    ColumnSegment,
    segment_may_match,
)


def _rows(values, name="v"):
    return [{name: value} for value in values]


class TestColumnSegmentLayout:
    def test_int_column_is_a_typed_array(self):
        segment = ColumnSegment(_rows([3, 1, 2]), ["v"])
        assert segment.kinds["v"] == "q"
        assert list(segment.columns["v"]) == [3, 1, 2]
        assert segment.nulls == {}
        assert segment.zone_min["v"] == 1
        assert segment.zone_max["v"] == 3

    def test_float_column_is_a_typed_array(self):
        segment = ColumnSegment(_rows([0.5, 2.25]), ["v"])
        assert segment.kinds["v"] == "d"
        assert list(segment.columns["v"]) == [0.5, 2.25]

    def test_strings_and_mixed_numerics_stay_object_lists(self):
        strings = ColumnSegment(_rows(["a", "b"]), ["v"])
        assert strings.kinds["v"] == "obj"
        # Mixed int/float must not coerce: 1 stays int, 1.0 stays float.
        mixed = ColumnSegment(_rows([1, 1.0]), ["v"])
        assert mixed.kinds["v"] == "obj"
        assert mixed.columns["v"] == [1, 1.0]
        assert type(mixed.columns["v"][0]) is int
        assert type(mixed.columns["v"][1]) is float

    def test_nulls_use_sentinel_plus_null_set(self):
        segment = ColumnSegment(_rows([7, None, 9]), ["v"])
        assert segment.kinds["v"] == "q"
        assert list(segment.columns["v"]) == [7, 0, 9]
        assert segment.nulls["v"] == {1}
        # NULL sorts lowest in the model total order, so it owns zone_min.
        assert segment.zone_min["v"] is None
        assert segment.zone_max["v"] == 9

    @pytest.mark.parametrize(
        "values",
        [
            [-7.5, None, 3.25, -0.0, None, 0.0],  # float with NULLs
            [-4, 9, -11, 0],                      # int, no NULL
            [None, -2**63, 2**63 - 1],            # the array's own limits
            [-1, None, 2.5],                      # mixed: an object column
            [1, 2**70, None],                     # overflow: an object column
        ],
    )
    def test_typed_zone_maps_equal_the_total_order_ones(self, values):
        """Typed columns take plain min/max; the answer is the one
        ``SortKey`` gives (NULL lowest, negatives, floats, first of equals)."""
        from repro.core.datamodel import SortKey

        segment = ColumnSegment(_rows(values), ["v"])
        for got, want in (
            (segment.zone_min["v"], min(values, key=SortKey)),
            (segment.zone_max["v"], max(values, key=SortKey)),
        ):
            assert got == want and type(got) is type(want)
            assert repr(got) == repr(want)  # -0.0 is not 0.0

    def test_out_of_range_int_falls_back_to_objects(self):
        big = 2**70
        segment = ColumnSegment(_rows([1, big]), ["v"])
        assert segment.kinds["v"] == "obj"
        assert segment.columns["v"] == [1, big]

    def test_missing_wide_column_values_count_as_null(self):
        segment = ColumnSegment([{"a": 1}, {"a": 2, "b": 5}], ["a", "b"])
        assert segment.nulls["b"] == {0}
        assert segment.zone_min["b"] is None
        assert segment.zone_max["b"] == 5


class TestColumnSegmentAppend:
    def test_append_maintains_columns_nulls_and_zones(self):
        segment = ColumnSegment(_rows([5]), ["v"])
        segment.append({"v": 2})
        segment.append({"v": None})
        segment.append({"v": 11})
        assert len(segment) == 4
        assert list(segment.columns["v"]) == [5, 2, 0, 11]
        assert segment.nulls["v"] == {2}
        assert segment.zone_min["v"] is None
        assert segment.zone_max["v"] == 11

    def test_append_degrades_typed_column_on_type_change(self):
        segment = ColumnSegment(_rows([1, None, 3]), ["v"])
        segment.append({"v": "surprise"})
        assert segment.kinds["v"] == "obj"
        # The degraded list restores the real values (including the NULL
        # that was a 0 sentinel in the typed array).
        assert segment.columns["v"] == [1, None, 3, "surprise"]

    def test_append_degrades_on_overflow(self):
        segment = ColumnSegment(_rows([1]), ["v"])
        segment.append({"v": 2**70})
        assert segment.kinds["v"] == "obj"
        assert segment.columns["v"] == [1, 2**70]


class TestZoneMapPruning:
    SEGMENT = ColumnSegment(_rows([10, 20, 30]), ["v"])

    @pytest.mark.parametrize(
        ("op", "value", "may_match"),
        [
            ("==", 5, False),
            ("==", 10, True),
            ("==", 25, True),
            ("==", 31, False),
            (">", 30, False),
            (">", 29, True),
            (">=", 30, True),
            (">=", 31, False),
            ("<", 10, False),
            ("<", 11, True),
            ("<=", 10, True),
            ("<=", 9, False),
            ("!=", 10, True),  # never pruned: any other value qualifies
        ],
    )
    def test_truth_table(self, op, value, may_match):
        assert segment_may_match(self.SEGMENT, "v", op, value) is may_match

    def test_null_zone_min_keeps_segment_alive_for_less_than(self):
        segment = ColumnSegment(_rows([None, 50]), ["v"])
        # NULL < 10 under the model order, so `< 10` must NOT prune even
        # though every non-null value is above the bound.
        assert segment_may_match(segment, "v", "<", 10) is True
        # But `> 60` can still prune through the NULL.
        assert segment_may_match(segment, "v", ">", 60) is False

    def test_unknown_column_never_prunes(self):
        assert segment_may_match(self.SEGMENT, "w", "==", 999) is True


class TestColumnBatch:
    def test_to_rows_reuses_stored_dicts(self):
        stored = _rows([1, 2, 3])
        segment = ColumnSegment(stored, ["v"])
        batch = ColumnBatch("m", {}, segment, len(segment))
        frames = batch.to_rows()
        assert frames == [{"m": row} for row in stored]
        assert all(frame["m"] is row for frame, row in zip(frames, stored))

    def test_selection_restricts_pivot_and_length(self):
        segment = ColumnSegment(_rows([1, 2, 3, 4]), ["v"])
        batch = ColumnBatch("m", {}, segment, 4).with_selection([1, 3])
        assert len(batch) == 2
        assert [frame["m"]["v"] for frame in batch] == [2, 4]

    def test_base_frame_is_copied_per_row(self):
        segment = ColumnSegment(_rows([1, 2]), ["v"])
        batch = ColumnBatch("m", {"outer": "x"}, segment, 2)
        frames = batch.to_rows()
        assert frames[0] == {"outer": "x", "m": {"v": 1}}
        frames[0]["extra"] = True
        assert "extra" not in frames[1]

    def test_captured_length_shields_from_tail_growth(self):
        segment = ColumnSegment(_rows([1, 2]), ["v"])
        batch = ColumnBatch("m", {}, segment, 2)
        segment.append({"v": 3})
        assert len(batch) == 2
        assert [frame["m"]["v"] for frame in batch] == [1, 2]


def _fresh_table(db, name="t", value_type=ColumnType.INTEGER):
    db.create_table(
        TableSchema(
            name,
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("v", value_type),
            ],
            primary_key="id",
        )
    )
    return db.table(name)


class TestSegmentManagerMaintenance:
    def test_namespace_starts_dirty_and_first_scan_builds(self):
        db = MultiModelDB()
        table = _fresh_table(db)
        manager = db.context.segments
        assert manager.registered(table.namespace)
        for index in range(5):
            table.insert({"id": index, "v": index * 10})
        pairs = manager.segments_for_scan(table.namespace)
        assert sum(count for _segment, count in pairs) == 5
        assert manager.stats()["rebuilds"] >= 1

    def test_clean_inserts_append_to_tail_without_rebuild(self):
        db = MultiModelDB()
        table = _fresh_table(db)
        manager = db.context.segments
        table.insert({"id": 0, "v": 0})
        manager.segments_for_scan(table.namespace)  # first build
        rebuilds = manager.stats()["rebuilds"]
        table.insert({"id": 1, "v": 10})
        table.insert({"id": 2, "v": 20})
        pairs = manager.segments_for_scan(table.namespace)
        assert sum(count for _segment, count in pairs) == 3
        assert manager.stats()["rebuilds"] == rebuilds
        assert manager.stats()["appends"] >= 2

    def test_update_patches_its_segment_without_a_rebuild(self):
        db = MultiModelDB()
        table = _fresh_table(db)
        manager = db.context.segments
        for index in range(4):
            table.insert({"id": index, "v": index})
        manager.segments_for_scan(table.namespace)
        before = manager.stats()
        table.update(1, {"v": 99})
        pairs = manager.segments_for_scan(table.namespace)
        after = manager.stats()
        assert after["rebuilds"] == before["rebuilds"]
        assert after["patches"] == before["patches"] + 1
        (segment, count), = pairs
        assert [segment.rows[i]["v"] for i in range(count)] == [0, 99, 2, 3]
        assert list(segment.columns["v"]) == [0, 99, 2, 3]
        assert segment.zone_max["v"] == 99

    def test_delete_rebuilds_lazily(self):
        db = MultiModelDB()
        table = _fresh_table(db)
        manager = db.context.segments
        for index in range(4):
            table.insert({"id": index, "v": index})
        manager.segments_for_scan(table.namespace)
        before = manager.stats()["rebuilds"]
        table.delete(3)
        assert manager.stats()["rebuilds"] == before  # not until a scan
        pairs = manager.segments_for_scan(table.namespace)
        assert manager.stats()["rebuilds"] == before + 1
        values = [
            segment.rows[position]["v"]
            for segment, count in pairs
            for position in range(count)
        ]
        assert values == [0, 1, 2]

    def test_delete_and_reinsert_in_one_transaction_counts_once(self):
        # The commit logs one INSERT for a key the segments already hold;
        # it must replace that row, not append a second copy.
        db = MultiModelDB()
        table = _fresh_table(db)
        for index in range(5):
            table.insert({"id": index, "v": index})
        text = "FOR r IN t COLLECT AGGREGATE n = COUNT(r), s = SUM(r.v) " \
            "RETURN {n, s}"
        assert db.query(text).rows == [{"n": 5, "s": 10}]
        txn = db.begin()
        table.delete(1, txn=txn)
        table.insert({"id": 1, "v": 100}, txn=txn)
        db.commit(txn)
        assert db.query(text, columnar=True).rows == [{"n": 5, "s": 109}]
        assert db.query(text, columnar=False).rows == [{"n": 5, "s": 109}]

    def test_scan_snapshot_sees_none_of_a_later_commit(self):
        db = MultiModelDB()
        table = _fresh_table(db, value_type=ColumnType.JSON)
        manager = db.context.segments
        manager.segment_rows = 4
        for index in range(10):
            table.insert({"id": index, "v": None if index == 2 else index})
        pairs = manager.segments_for_scan(table.namespace)

        def frozen():
            return [
                (
                    [id(row) for row in segment.rows[:count]],
                    {
                        name: list(column[:count])
                        for name, column in segment.columns.items()
                    },
                    dict(segment.kinds),
                    {
                        name: {p for p in nulls if p < count}
                        for name, nulls in segment.nulls.items()
                    },
                )
                for segment, count in pairs
            ]

        before = frozen()
        table.update(2, {"v": 2.5})  # type change: degrades a column
        table.update(5, {"v": 2**70})  # int overflow
        table.update(9, {"v": None})
        txn = db.begin()
        table.delete(6, txn=txn)
        table.insert({"id": 6, "v": "six"}, txn=txn)
        db.commit(txn)
        for index in range(10, 14):  # tail appends
            table.insert({"id": index, "v": index})
        assert frozen() == before
        current = manager.segments_for_scan(table.namespace)
        assert all(
            new is not old
            for (new, _n), (old, _o) in zip(current, pairs)
        )
        assert manager.stats()["rebuilds"] == 1

    def test_segments_split_at_configured_width(self):
        db = MultiModelDB()
        table = _fresh_table(db)
        manager = db.context.segments
        manager.segment_rows = 4
        for index in range(10):
            table.insert({"id": index, "v": index})
        pairs = manager.segments_for_scan(table.namespace)
        assert [count for _segment, count in pairs] == [4, 4, 2]
        assert manager.segment_rows != SEGMENT_ROWS  # this test overrode it

    def test_register_over_existing_rows_rebuilds_from_row_view(self):
        # The WAL-recovery story: after a replay the row view is
        # authoritative; a (re)registered namespace rebuilds from it on
        # the first scan instead of trusting any prior segment state.
        db = MultiModelDB()
        table = _fresh_table(db)
        for index in range(6):
            table.insert({"id": index, "v": index})
        manager = db.context.segments
        manager.segments_for_scan(table.namespace)
        manager.register(table.namespace, ["id", "v"])  # forget everything
        pairs = manager.segments_for_scan(table.namespace)
        assert sum(count for _segment, count in pairs) == 6

    def test_unregistered_namespace_returns_none(self):
        db = MultiModelDB()
        orders = db.create_collection("orders")
        orders.insert({"_key": "a", "n": 1})
        assert db.context.segments.segments_for_scan(orders.namespace) is None
        assert (
            db.context.segments.segments_for_scan("no/such/namespace") is None
        )


#: What an updated ``v`` walks through: int -> float -> string -> NULL,
#: past the 64-bit range, and back to an int.
TYPE_WALK = [7, 7.5, "seven", None, 2**63 + 1, 8]
#: Values fresh rows and plain updates draw from.
VALUES = [0, 1, -3, 2**40, 0.5, -1.25, "a", "b", None, True, [1], {"a": 1}]


def _assert_matches_a_fresh_build(segment, count, column_names):
    fresh = ColumnSegment(segment.rows[:count], column_names)
    assert segment.kinds == fresh.kinds
    assert segment.nulls == fresh.nulls
    for name in column_names:
        column = segment.columns[name]
        assert type(column) is type(fresh.columns[name])
        assert repr(column[:count]) == repr(fresh.columns[name])
        for row in segment.rows[:count]:
            value = row.get(name)
            for op in ("==", "<=", ">="):
                assert segment_may_match(segment, name, op, value), (
                    name, op, value)


class TestSeededMaintenanceDifferential:
    """Random inserts, updates, same-transaction re-inserts, deletes and
    type-changing updates interleaved with scans, over four-row segments.
    After every step the columnar rows equal the row path's, every segment
    equals a fresh build over its rows (zone maps aside, which may only be
    wider), and only a delete ever costs a rebuild."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_columnar_tracks_the_row_view(self, seed):
        rng = random.Random(seed)
        db = MultiModelDB()
        table = _fresh_table(db, value_type=ColumnType.JSON)
        manager = db.context.segments
        manager.segment_rows = 4
        names = ["id", "v"]
        walks: dict = {}
        next_id = 0
        for _ in range(6):
            table.insert({"id": next_id, "v": rng.choice(VALUES)})
            next_id += 1
        rebuilds = None
        texts = [
            "FOR r IN t RETURN r",
            "FOR r IN t FILTER r.v >= 0 RETURN r.id",
            "FOR r IN t COLLECT AGGREGATE n = COUNT(r) RETURN n",
        ]
        for step in range(160):
            keys = [row["id"] for row in table.select()]
            action = rng.choice(
                ["insert", "insert", "update", "update", "walk", "walk",
                 "reinsert", "delete"]
            )
            if action == "insert" or not keys:
                table.insert({"id": next_id, "v": rng.choice(VALUES)})
                next_id += 1
            elif action == "update":
                table.update(rng.choice(keys), {"v": rng.choice(VALUES)})
            elif action == "walk":
                key = rng.choice(keys[:3])
                walks[key] = (walks.get(key, -1) + 1) % len(TYPE_WALK)
                table.update(key, {"v": TYPE_WALK[walks[key]]})
            elif action == "reinsert":
                key = rng.choice(keys)
                txn = db.begin()
                table.delete(key, txn=txn)
                table.insert({"id": key, "v": rng.choice(VALUES)}, txn=txn)
                db.commit(txn)
            else:
                table.delete(rng.choice(keys))
            for text in texts:
                assert (
                    db.query(text, columnar=True).rows
                    == db.query(text, columnar=False).rows
                ), (step, action, text)
            stats = manager.stats()
            if rebuilds is not None and action != "delete":
                assert stats["rebuilds"] == rebuilds, (step, action)
            rebuilds = stats["rebuilds"]
            for segment, count in manager.segments_for_scan(table.namespace):
                _assert_matches_a_fresh_build(segment, count, names)
        assert manager.stats()["patches"] > 0


class TestConcurrentPatchesAndScans:
    def test_scans_see_whole_segments_while_updates_commit(self):
        """Two columnar readers against one updating writer, with a short
        switch interval: every scan counts every row exactly once (a scan
        works on the segments its snapshot captured, never on one being
        patched), and the end state matches the row path."""
        db = MultiModelDB()
        table = _fresh_table(db)
        manager = db.context.segments
        manager.segment_rows = 16
        for index in range(200):
            table.insert({"id": index, "v": index})
        text = "FOR r IN t COLLECT AGGREGATE n = COUNT(r) RETURN n"
        assert db.query(text).rows == [200]
        stop = threading.Event()
        errors: list = []

        def writer():
            rng = random.Random(7)
            try:
                while not stop.is_set():
                    table.update(rng.randrange(200), {"v": rng.randrange(999)})
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        def reader():
            try:
                while not stop.is_set():
                    counts = db.query(text, columnar=True).rows
                    if counts != [200]:
                        errors.append(AssertionError(counts))
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert manager.stats()["rebuilds"] == 1
        assert manager.stats()["patches"] > 0
        full = "FOR r IN t RETURN r"
        assert (
            db.query(full, columnar=True).rows
            == db.query(full, columnar=False).rows
        )

    def test_scans_read_only_captured_rows_while_inserts_grow_the_tail(self):
        """Columnar aggregates over object columns of the tail segment
        while inserts append to it: a scan reads each column over the rows
        it captured and no further.  Every row adds 1 (or 1.0) to ``v``, so
        each result's SUM equals its COUNT whatever the scan captured; a
        kernel that read a column past the captured count would break the
        equality, or fail."""
        db = MultiModelDB()
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("g", ColumnType.STRING),
                    Column("v", ColumnType.JSON),
                ],
                primary_key="id",
            )
        )
        table = db.table("t")
        manager = db.context.segments
        manager.segment_rows = 1 << 20  # every row in one, growing, segment

        def row(index):
            # Mixed int / float values keep ``v`` an object list.
            return {"id": index, "g": f"g{index % 5}",
                    "v": 1 if index % 2 else 1.0}

        for index in range(50):
            table.insert(row(index))
        grouped = (
            "FOR r IN t COLLECT g = r.g "
            "AGGREGATE n = COUNT(r), s = SUM(r.v) RETURN {g, n, s}"
        )
        overall = (
            "FOR r IN t COLLECT AGGREGATE n = COUNT(r), s = SUM(r.v) "
            "RETURN {n, s}"
        )
        assert db.query(overall).rows == [{"n": 50, "s": 50}]
        stop = threading.Event()
        errors: list = []

        def writer():
            index = 50
            try:
                while not stop.is_set() and index < 20_000:
                    table.insert(row(index))
                    index += 1
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        def reader(text):
            try:
                while not stop.is_set():
                    for result in db.query(text, columnar=True).rows:
                        if result["s"] != result["n"] or (
                            "g" in result and result["g"] not in
                            {f"g{k}" for k in range(5)}
                        ):
                            errors.append(AssertionError(result))
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(text,))
            for text in (grouped, overall)
        ]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert manager.stats()["rebuilds"] == 1
        assert manager.stats()["appends"] > 0
        for text in (grouped, overall):
            assert (
                db.query(text, columnar=True).rows
                == db.query(text, columnar=False).rows
            )
