"""Columnar execution through the query engine: zone-map pruning, the
EXPLAIN ANALYZE surface, NULL comparison semantics, vectorized kernel
equivalence, obs counters, and the transaction fallback (PR 7)."""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.obs import metrics as obs_metrics

ROWS = 5000  # five segments at the default SEGMENT_ROWS=1024


@pytest.fixture(scope="module")
def db():
    db = MultiModelDB()
    db.create_table(
        TableSchema(
            "readings",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("city", ColumnType.STRING),
                Column("value", ColumnType.FLOAT),
            ],
            primary_key="id",
        )
    )
    table = db.table("readings")
    cities = ["oslo", "lima", None, "pune"]
    for index in range(ROWS):
        table.insert(
            {
                "id": index,  # clustered: zone maps partition the id range
                "city": cities[index % 4],
                "value": None if index % 7 == 0 else (index % 40) * 0.25,
            }
        )
    return db


class TestZoneMapPruningThroughTheEngine:
    def test_selective_range_prunes_segments(self, db):
        result = db.query(
            "FOR r IN readings FILTER r.id >= 100 AND r.id < 200 "
            "COLLECT AGGREGATE n = COUNT(r.id) RETURN n"
        )
        assert result.rows == [100]
        assert result.stats["segments_pruned"] >= 3
        assert result.stats["segments_scanned"] >= 1
        # Pruning means the scan volume is bounded by one segment, not
        # the table.
        assert result.stats["scanned"] < ROWS

    def test_unselective_scan_prunes_nothing(self, db):
        result = db.query(
            "FOR r IN readings COLLECT AGGREGATE n = COUNT(r.id) RETURN n"
        )
        assert result.rows == [ROWS]
        assert result.stats["segments_pruned"] == 0
        assert result.stats["scanned"] == ROWS

    def test_equality_on_the_clustered_key_prunes_to_one_segment(self, db):
        # ``id`` is the primary key: index selection makes the equality a
        # keyed read, which reads no segment.  The scan is what the zone
        # maps prune.
        text = "FOR r IN readings FILTER r.id == 4999 RETURN r.city"
        db.optimizer_rules.disable("index_selection")
        try:
            result = db.query(text)
        finally:
            db.optimizer_rules.enable("index_selection")
        assert result.rows == ["pune"]
        assert result.stats["segments_scanned"] == 1
        assert result.stats["segments_pruned"] >= 4
        probed = db.query(text)
        assert probed.rows == ["pune"]
        assert probed.stats["segments_scanned"] == 0
        assert probed.stats["index_lookups"] == 1

    def test_row_path_never_prunes(self, db):
        on = db.query(
            "FOR r IN readings FILTER r.id < 50 RETURN r.id", columnar=True
        )
        off = db.query(
            "FOR r IN readings FILTER r.id < 50 RETURN r.id", columnar=False
        )
        assert on.rows == off.rows
        assert on.stats["segments_pruned"] >= 1
        assert off.stats["segments_pruned"] == 0
        assert off.stats["scanned"] == ROWS


class TestExplainAnalyzeSurface:
    def test_annotations_present_when_columnar(self, db):
        result = db.query(
            "EXPLAIN ANALYZE FOR r IN readings "
            "FILTER r.id >= 4000 AND r.id < 4100 "
            "COLLECT AGGREGATE total = SUM(r.value) RETURN total"
        )
        assert " columnar=yes" in result.analyzed
        assert "segments_pruned=" in result.analyzed
        assert "kernel_rows=" in result.analyzed
        entries = {p["operator"]: p for p in result.op_stats}
        assert entries["ForOp"]["columnar_batches"] >= 1
        assert entries["FilterOp"]["columnar_batches"] >= 1

    def test_annotations_absent_on_the_row_path(self, db):
        result = db.query(
            "FOR r IN readings FILTER r.id < 10 RETURN r.id",
            analyze=True,
            columnar=False,
        )
        assert " columnar=yes" not in result.analyzed
        assert "segments_pruned=" not in result.analyzed
        assert all(p["columnar_batches"] == 0 for p in result.op_stats)


class TestNullComparisonSemantics:
    """NULL sorts below every number in the model total order; the
    vectorized comparison kernels and the zone maps must both honor it."""

    @pytest.mark.parametrize(
        "condition",
        [
            "r.value < 1",  # keeps NULL rows
            "r.value <= 0",  # keeps NULL rows
            "r.value == 0",  # drops NULL rows
            "r.value != 0",  # keeps NULL rows
            "r.value > 9",  # drops NULL rows
            "r.value >= 9.75",  # drops NULL rows
        ],
    )
    def test_kernels_match_row_predicates(self, db, condition):
        text = f"FOR r IN readings FILTER {condition} RETURN r.id"
        on = db.query(text, columnar=True)
        off = db.query(text, columnar=False)
        assert on.rows == off.rows, condition

    def test_null_rows_survive_less_than(self, db):
        rows = db.query(
            "FOR r IN readings FILTER r.value < 0.25 "
            "RETURN {id: r.id, value: r.value}"
        ).rows
        assert any(row["value"] is None for row in rows)
        assert any(row["value"] == 0.0 for row in rows)
        assert all(
            row["value"] is None or row["value"] < 0.25 for row in rows
        )


class TestKernelEquivalence:
    @pytest.mark.parametrize(
        "text",
        [
            # projection kernel: RETURN var.column straight off the array
            "FOR r IN readings FILTER r.id < 30 RETURN r.value",
            # projection of the stored row dicts
            "FOR r IN readings FILTER r.id < 30 RETURN r",
            # conjunctive filter kernel chain
            "FOR r IN readings FILTER r.id >= 10 AND r.id < 40 "
            "AND r.value > 2 RETURN r.id",
            # grouped aggregate kernel over a NULL-bearing string column
            "FOR r IN readings COLLECT city = r.city "
            "AGGREGATE total = SUM(r.value), hi = MAX(r.value) "
            "RETURN {city, total, hi}",
        ],
    )
    def test_columnar_equals_row_path(self, db, text):
        assert (
            db.query(text, columnar=True).rows
            == db.query(text, columnar=False).rows
        )

    def test_non_columnar_operators_pivot_exactly(self, db):
        # SORT and LIMIT are row-path operators: the ColumnBatch pivots
        # lazily and the result must match the pure row path.
        text = (
            "FOR r IN readings FILTER r.id < 100 "
            "SORT r.value DESC LIMIT 7 RETURN {id: r.id, value: r.value}"
        )
        assert (
            db.query(text, columnar=True).rows
            == db.query(text, columnar=False).rows
        )


class TestObsCounters:
    def test_pruning_and_kernel_counters_advance(self, db):
        pruned = obs_metrics.counter("columnar_segments_pruned_total")
        kernel = obs_metrics.counter(
            "columnar_kernel_rows_total", kernel="filter"
        )
        pruned_before, kernel_before = pruned.value, kernel.value
        db.query("FOR r IN readings FILTER r.id >= 4500 RETURN r.id")
        assert pruned.value > pruned_before
        assert kernel.value > kernel_before

    def test_rebuild_counter_advances(self):
        rebuilds = obs_metrics.counter("columnar_segment_rebuilds_total")
        before = rebuilds.value
        db = MultiModelDB()
        db.create_table(
            TableSchema(
                "tiny",
                [Column("id", ColumnType.INTEGER, nullable=False)],
                primary_key="id",
            )
        )
        db.table("tiny").insert({"id": 1})
        db.query("FOR t IN tiny RETURN t.id")
        assert rebuilds.value > before


class TestTransactionFallback:
    def test_txn_reads_use_the_row_path(self, db):
        txn = db.begin()
        try:
            result = db.query(
                "FOR r IN readings FILTER r.id < 10 RETURN r.id", txn=txn
            )
            assert result.rows == list(range(10))
            assert result.stats["segments_scanned"] == 0
            assert result.stats["columnar_batches"] == 0
        finally:
            db.abort(txn)

    def test_txn_sees_its_own_uncommitted_writes(self, db):
        txn = db.begin()
        try:
            db.table("readings").insert(
                {"id": 999999, "city": "mine", "value": 1.0}, txn=txn
            )
            inside = db.query(
                "FOR r IN readings FILTER r.id == 999999 RETURN r.city",
                txn=txn,
            )
            outside = db.query(
                "FOR r IN readings FILTER r.id == 999999 RETURN r.city"
            )
            assert inside.rows == ["mine"]
            assert outside.rows == []
        finally:
            db.abort(txn)

    def test_committed_writes_reach_the_columnar_path(self):
        db = MultiModelDB()
        db.create_table(
            TableSchema(
                "ledger",
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("amount", ColumnType.INTEGER),
                ],
                primary_key="id",
            )
        )
        txn = db.begin()
        db.table("ledger").insert({"id": 1, "amount": 10}, txn=txn)
        db.table("ledger").insert({"id": 2, "amount": 32}, txn=txn)
        db.commit(txn)
        result = db.query(
            "FOR l IN ledger COLLECT AGGREGATE s = SUM(l.amount) RETURN s"
        )
        assert result.rows == [42]
        assert result.stats["segments_scanned"] >= 1


class TestSessionKnob:
    def test_database_level_toggle(self):
        db = MultiModelDB(columnar=False)
        db.create_table(
            TableSchema(
                "knob",
                [Column("id", ColumnType.INTEGER, nullable=False)],
                primary_key="id",
            )
        )
        db.table("knob").insert({"id": 1})
        off = db.query("FOR k IN knob RETURN k.id")
        assert off.stats["segments_scanned"] == 0
        # Per-query override beats the session default, both directions.
        on = db.query("FOR k IN knob RETURN k.id", columnar=True)
        assert on.stats["segments_scanned"] == 1
        db.columnar = True
        assert (
            db.query("FOR k IN knob RETURN k.id", columnar=False).stats[
                "segments_scanned"
            ]
            == 0
        )


#: Group keys under the model's equality: 1, 1.0 and 1.5-free integral
#: floats share a group, True stays apart from 1, '1' from 1, and the
#: containers group by value.
KEYS = [1, 1.0, True, None, "1", [1], {"a": 1}, 2, 2.0, "x", [1], {"a": 1}, 3]


@pytest.fixture(scope="module")
def mixed_db():
    """Four-row segments (so several per scan) over key and input columns
    of every kind: JSON keys of mixed types, a typed float column with
    NULLs, a typed int column, a mixed int/float object column, and two
    columns whose one non-number sits in the same segment."""
    db = MultiModelDB()
    db.context.segments.segment_rows = 4
    db.create_table(
        TableSchema(
            "mixed",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("k", ColumnType.JSON),
                Column("tag", ColumnType.STRING),
                Column("f", ColumnType.FLOAT),
                Column("n", ColumnType.INTEGER),
                Column("v", ColumnType.JSON),
                Column("bad1", ColumnType.JSON),
                Column("bad2", ColumnType.JSON),
            ],
            primary_key="id",
        )
    )
    table = db.table("mixed")
    for index in range(30):
        table.insert(
            {
                "id": index,
                "k": KEYS[index % len(KEYS)],
                "tag": ["p", "q", None][index % 3],
                "f": None if index % 5 == 0 else index * 0.1,
                "n": index * 3 - 20,
                "v": [1, 2.5, None, 7, -4.25][index % 5],
                "bad1": "six" if index == 6 else index,
                "bad2": [5] if index == 5 else index,
            }
        )
    return db


def _both(db, text):
    columnar = db.query(text, columnar=True)
    rows = db.query(text, columnar=False).rows
    assert columnar.stats["segments_scanned"] > 1
    return columnar.rows, rows


class TestGroupedKernelEquivalence:
    """The column-at-a-time grouped COLLECT against the row path: equal
    rows, the first-seen key value of each group (repr tells 1 from 1.0
    and True), and the first-appearance group order before any SORT."""

    @pytest.mark.parametrize(
        "text",
        [
            # mixed-type keys, every streamable aggregate
            "FOR r IN mixed COLLECT k = r.k AGGREGATE c = COUNT(r), "
            "s = SUM(r.n), lo = MIN(r.f), hi = MAX(r.f), m = AVG(r.f) "
            "RETURN {k, c, s, lo, hi, m}",
            # multi-key groups, NULLs in a string key
            "FOR r IN mixed COLLECT k = r.k, tag = r.tag "
            "AGGREGATE s = SUM(r.f), c = COUNT(r.f) RETURN {k, tag, s, c}",
            # a selection vector from the FILTER kernel
            "FOR r IN mixed FILTER r.id >= 3 AND r.id < 23 "
            "COLLECT tag = r.tag AGGREGATE s = SUM(r.n), m = AVG(r.v), "
            "hi = MAX(r.v) RETURN {tag, s, m, hi}",
            # typed int and float keys
            "FOR r IN mixed COLLECT n = r.n AGGREGATE s = SUM(r.v) "
            "RETURN {n, s}",
            "FOR r IN mixed COLLECT f = r.f AGGREGATE c = COUNT(r) "
            "RETURN {f, c}",
            # NULL and missing inputs: a column no row has
            "FOR r IN mixed COLLECT tag = r.tag AGGREGATE "
            "s = SUM(r.missing), lo = MIN(r.missing), m = AVG(r.missing), "
            "c = COUNT(r.missing), v = SUM(r.v) RETURN {tag, s, lo, m, c, v}",
            # a key column no row has: one NULL group
            "FOR r IN mixed COLLECT k = r.missing AGGREGATE s = SUM(r.n) "
            "RETURN {k, s}",
            # library aggregates without a running form still buffer
            "FOR r IN mixed COLLECT tag = r.tag AGGREGATE u = UNIQUE(r.f) "
            "RETURN {tag, u}",
        ],
    )
    def test_columnar_equals_row_path(self, mixed_db, text):
        columnar, rows = _both(mixed_db, text)
        assert columnar == rows
        assert repr(columnar) == repr(rows)

    def test_first_seen_key_value_and_order(self, mixed_db):
        columnar, rows = _both(
            mixed_db,
            "FOR r IN mixed COLLECT k = r.k AGGREGATE c = COUNT(r) "
            "RETURN {k, c}",
        )
        assert repr(columnar) == repr(rows)
        keys = [row["k"] for row in columnar]
        # 1 then 1.0: one group keyed 1; True and '1' are groups apart.
        assert keys[:6] == [1, True, None, "1", [1], {"a": 1}]
        assert type(keys[0]) is int
        assert type(keys[6]) is int and keys[6] == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "FOR r IN mixed COLLECT tag = r.tag "
                "AGGREGATE s = SUM(r.tag) RETURN s",
                "SUM: array contains a string",
            ),
            (
                "FOR r IN mixed COLLECT AGGREGATE s = SUM(r.tag) RETURN s",
                "SUM: array contains a string",
            ),
            # Both non-numbers sit in one segment: the row path meets
            # bad2's array (row 5) before bad1's string (row 6).
            (
                "FOR r IN mixed COLLECT tag = r.tag "
                "AGGREGATE a = SUM(r.bad1), b = MAX(r.bad2) RETURN a",
                "MAX: array contains a array",
            ),
            (
                "FOR r IN mixed COLLECT AGGREGATE a = MIN(r.bad1), "
                "b = AVG(r.bad2) RETURN a",
                "AVG: array contains a array",
            ),
        ],
    )
    def test_non_numbers_raise_the_row_path_error(
        self, mixed_db, text, message
    ):
        from repro.errors import FunctionError

        with pytest.raises(FunctionError) as row_error:
            mixed_db.query(text, columnar=False)
        with pytest.raises(FunctionError) as columnar_error:
            mixed_db.query(text, columnar=True)
        assert str(row_error.value) == message
        assert str(columnar_error.value) == message
