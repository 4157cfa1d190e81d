"""Differential suite: batched *and columnar* execution are
*optimizations*, never a semantics change.

Every UniBench workload query must return identical rows — and
stats-compatible EXPLAIN ANALYZE profiles — at batch_size 1 (fully
degraded), 2 (constant batch churn) and 256 (the default); and with
columnar segment scans on (the default) versus off (plain row batches),
including over NULL-bearing and mixed-type columns.
"""

import pytest

from repro.cli import make_demo_db
from repro.query.engine import run_query
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.unibench.workloads import QUERIES_B, workload_b_api
from repro.widecolumn.table import CqlColumn
from tests.query.nested_scopes import (
    COLLECT_QUERIES,
    LOOKUP_ERRORS,
    LOOKUP_QUERIES,
    LOOKUP_SCATTER,
    LOOKUP_WRITES,
    NESTED_QUERIES,
    PROBE_QUERY,
    WRITING_SUBQUERIES,
    load_lookup_collections,
    load_probe_collections,
    load_write_collections,
)

WIDTHS = [1, 2, 256]

#: Workload B plus the nested-scope statements: a planned subquery runs
#: its own pipeline per outer frame, at the same width as the statement.
#: The lookups dedupe per batch, so width 2 splits their repeated keys
#: across batch boundaries.
QUERIES = {
    **QUERIES_B,
    **NESTED_QUERIES,
    **COLLECT_QUERIES,
    "probe_keys": (PROBE_QUERY, {}),
    **WRITING_SUBQUERIES,
    **LOOKUP_QUERIES,
    **LOOKUP_WRITES,
    **LOOKUP_SCATTER,
}


@pytest.fixture(scope="module")
def db():
    db = make_demo_db(scale_factor=1)
    load_probe_collections(db)
    load_write_collections(db)
    load_lookup_collections(db)
    return db


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_workload_b_rows_invariant_under_batch_size(db, name):
    text, binds = QUERIES[name]
    baseline = db.query(text, binds, batch_size=1)
    if name not in QUERIES_B:
        naive = run_query(db, text, binds, optimize_query=False, batch_size=1)
        assert baseline.rows == naive.rows, f"{name} diverged from the naive plan"
        assert baseline.rows, f"{name} returned nothing"
    for width in WIDTHS[1:]:
        result = db.query(text, binds, batch_size=width)
        assert result.rows == baseline.rows, (
            f"{name} diverged at batch_size={width}"
        )
        # The same work was done: identical scan volume at every width.
        assert result.stats["scanned"] == baseline.stats["scanned"]


@pytest.mark.parametrize("name", sorted(LOOKUP_ERRORS))
def test_lookup_errors_invariant_under_batch_size_and_columnar(db, name):
    text, expected = LOOKUP_ERRORS[name]
    for width in WIDTHS:
        for columnar in (True, False):
            with pytest.raises(Exception) as raised:
                db.query(text, batch_size=width, columnar=columnar)
            assert type(raised.value).__name__ == expected, (width, columnar)


def test_recommendation_matches_handwritten_at_every_width(db):
    expected = sorted(workload_b_api(db, min_credit=5000))
    text, binds = QUERIES_B["Q1"]
    for width in WIDTHS:
        assert sorted(db.query(text, binds, batch_size=width).rows) == expected


@pytest.mark.parametrize("name", sorted(QUERIES_B))
def test_explain_analyze_profiles_are_stats_compatible(db, name):
    """Same operators, same per-operator row counts at every width — only
    the batch counts (and timings) may differ."""
    text, binds = QUERIES_B[name]
    profiles = {
        width: db.query(text, binds, analyze=True, batch_size=width)
        for width in WIDTHS
    }
    baseline = profiles[1]
    assert baseline.op_stats, f"{name}: EXPLAIN ANALYZE produced no probes"
    for width in WIDTHS[1:]:
        probes = profiles[width].op_stats
        assert [(p["operator"], p["label"]) for p in probes] == [
            (p["operator"], p["label"]) for p in baseline.op_stats
        ], f"{name}: operator pipeline changed at batch_size={width}"
        assert [(p["rows_in"], p["rows_out"]) for p in probes] == [
            (p["rows_in"], p["rows_out"]) for p in baseline.op_stats
        ], f"{name}: per-operator row counts changed at batch_size={width}"
        for probe in probes:
            if probe["rows_out"]:
                assert probe["batches_out"] >= 1


def test_wider_batches_mean_fewer_batches(db):
    text, binds = QUERIES_B["Q3"]
    narrow = db.query(text, binds, analyze=True, batch_size=1)
    wide = db.query(text, binds, analyze=True, batch_size=256)
    narrow_batches = sum(p["batches_out"] for p in narrow.op_stats)
    wide_batches = sum(p["batches_out"] for p in wide.op_stats)
    assert wide_batches < narrow_batches


# ---------------------------------------------------------------------------
# Columnar on/off differential (PR 7: segments + zone maps + kernels)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_workload_b_rows_invariant_under_columnar(db, name):
    text, binds = QUERIES[name]
    columnar = db.query(text, binds, columnar=True)
    rows = db.query(text, binds, columnar=False)
    assert columnar.rows == rows.rows, f"{name} diverged with columnar scans"
    # The row path never touches the segment store.
    assert rows.stats["segments_scanned"] == 0
    assert rows.stats["columnar_kernel_rows"] == 0


def test_recommendation_matches_handwritten_with_columnar(db):
    expected = sorted(workload_b_api(db, min_credit=5000))
    text, binds = QUERIES_B["Q1"]
    for columnar in (True, False):
        assert (
            sorted(db.query(text, binds, columnar=columnar).rows) == expected
        )


@pytest.mark.parametrize("name", sorted(QUERIES_B))
def test_explain_analyze_profiles_are_stats_compatible_under_columnar(db, name):
    """Same operators, same per-operator row counts with columnar scans on
    or off — only batch shapes (and timings) may differ."""
    text, binds = QUERIES_B[name]
    baseline = db.query(text, binds, analyze=True, columnar=False)
    columnar = db.query(text, binds, analyze=True, columnar=True)
    assert [(p["operator"], p["label"]) for p in columnar.op_stats] == [
        (p["operator"], p["label"]) for p in baseline.op_stats
    ], f"{name}: operator pipeline changed under columnar execution"
    assert [(p["rows_in"], p["rows_out"]) for p in columnar.op_stats] == [
        (p["rows_in"], p["rows_out"]) for p in baseline.op_stats
    ], f"{name}: per-operator row counts changed under columnar execution"
    assert all(p["columnar_batches"] == 0 for p in baseline.op_stats)


class TestColumnarNullsAndMixedTypes:
    """Grouped COLLECT over NULL-bearing and mixed-type columns: the
    columnar fast paths (typed-array kernels, running accumulators,
    group-token hashing) must agree with the row path bit for bit."""

    @pytest.fixture(scope="class")
    def tricky_db(self):
        from repro import MultiModelDB

        db = MultiModelDB()
        db.create_table(
            TableSchema(
                "measurements",
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("station", ColumnType.STRING),
                    Column("reading", ColumnType.FLOAT),  # ints AND floats
                    Column("tag", ColumnType.JSON),  # mixed str/int/bool/null
                ],
                primary_key="id",
            )
        )
        table = db.table("measurements")
        stations = ["north", "south", None, "east"]
        tags = ["a", 1, 1.0, True, False, None, "b"]
        for index in range(1, 401):
            reading = None
            if index % 5:
                # Quarters sum exactly in binary floating point, so the
                # row path's single fold and the columnar per-segment
                # partials agree exactly.
                reading = index if index % 3 else index * 0.25
            table.insert(
                {
                    "id": index,
                    "station": stations[index % 4],
                    "reading": reading,
                    "tag": tags[index % 7],
                }
            )
        db.create_wide_table(
            "sparse_events",
            [
                CqlColumn("key", "text"),
                CqlColumn("kind", "text"),
                CqlColumn("weight", "int"),
            ],
            primary_key="key",
        )
        wide = db.resolve("sparse_events")
        for index in range(1, 201):
            row = {"key": f"e{index}"}
            if index % 3:
                row["kind"] = "click" if index % 2 else "view"
            if index % 4:
                row["weight"] = index
            wide.insert(row)
        return db

    QUERIES = {
        "grouped_aggregates_with_nulls": (
            "FOR m IN measurements "
            "COLLECT station = m.station "
            "AGGREGATE total = SUM(m.reading), n = COUNT(m.reading), "
            "lo = MIN(m.reading), hi = MAX(m.reading), mean = AVG(m.reading) "
            "RETURN {station, total, n, lo, hi, mean}"
        ),
        "group_by_mixed_type_column": (
            "FOR m IN measurements COLLECT tag = m.tag WITH COUNT INTO n "
            "RETURN {tag, n}"
        ),
        "global_aggregate_with_nulls": (
            "FOR m IN measurements "
            "COLLECT AGGREGATE total = SUM(m.reading), n = COUNT(m.id), "
            "mean = AVG(m.reading) "
            "RETURN {total, n, mean}"
        ),
        "buffered_aggregate_unique": (
            "FOR m IN measurements COLLECT station = m.station "
            "AGGREGATE tags = UNIQUE(m.tag) RETURN {station, tags}"
        ),
        "filter_keeps_nulls_below_range": (
            "FOR m IN measurements FILTER m.reading < 10 "
            "RETURN {id: m.id, reading: m.reading}"
        ),
        "filter_drops_nulls_above_range": (
            "FOR m IN measurements FILTER m.reading >= 10 "
            "COLLECT AGGREGATE n = COUNT(m.id) RETURN n"
        ),
        "sparse_wide_rows_group": (
            "FOR e IN sparse_events COLLECT kind = e.kind "
            "AGGREGATE w = SUM(e.weight), n = COUNT(e.key) "
            "RETURN {kind, w, n}"
        ),
        "collect_into_members": (
            "FOR m IN measurements FILTER m.id <= 12 "
            "COLLECT station = m.station INTO members "
            "RETURN {station, n: LENGTH(members)}"
        ),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_columnar_rows_match_row_path(self, tricky_db, name):
        text = self.QUERIES[name]
        columnar = tricky_db.query(text, columnar=True)
        rows = tricky_db.query(text, columnar=False)
        assert columnar.rows == rows.rows, f"{name} diverged"

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_columnar_rows_invariant_under_batch_size(self, tricky_db, name):
        text = self.QUERIES[name]
        baseline = tricky_db.query(text, batch_size=1)
        for width in WIDTHS[1:]:
            assert tricky_db.query(text, batch_size=width).rows == baseline.rows

    def test_columnar_path_actually_ran(self, tricky_db):
        result = tricky_db.query(
            self.QUERIES["grouped_aggregates_with_nulls"], columnar=True
        )
        assert result.stats["segments_scanned"] >= 1
        assert result.stats["columnar_kernel_rows"] >= 400


def test_dml_invariant_under_batch_size(db):
    """Write paths run through the same batched pipeline: an INSERT-per-row
    statement lands the same documents at any width."""
    for width in WIDTHS:
        sink = f"equiv_sink_{width}"
        db.create_collection(sink)
        db.query(
            "FOR c IN customers FILTER c.credit_limit > @m "
            f"INSERT {{name: c.name}} INTO {sink}",
            {"m": 5000},
            batch_size=width,
        )
    counts = {
        width: len(db.query(f"FOR s IN equiv_sink_{width} RETURN s").rows)
        for width in WIDTHS
    }
    assert counts[1] >= 1
    assert counts[2] == counts[1]
    assert counts[256] == counts[1]
