"""Columnar segment storage: typed arrays, null sets, zone maps, tail
appends, lazy rebuilds and the conservative ``segment_may_match`` pruning
predicate (PR 7)."""

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


def _fresh_table(db, name="t"):
    db.create_table(
        TableSchema(
            name,
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("v", ColumnType.INTEGER),
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

    def test_update_and_delete_trigger_lazy_rebuild(self):
        db = MultiModelDB()
        table = _fresh_table(db)
        manager = db.context.segments
        for index in range(4):
            table.insert({"id": index, "v": index})
        manager.segments_for_scan(table.namespace)
        before = manager.stats()["rebuilds"]
        table.update(1, {"v": 99})
        table.delete(3)
        pairs = manager.segments_for_scan(table.namespace)
        assert manager.stats()["rebuilds"] == before + 1
        values = sorted(
            segment.rows[position]["v"]
            for segment, count in pairs
            for position in range(count)
        )
        assert values == [0, 2, 99]

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
