"""A COLLECT without group keys emits one frame, even over no input.

As in AQL and SQL: ``WITH COUNT`` and COUNT give 0, SUM, AVG, MIN and MAX
give null, and a buffered aggregate (UNIQUE) its function of ``[]``.  A
grouped COLLECT over no input still emits nothing.  Pinned on the row
path and the columnar path at batch widths 1 and 256; the cluster's merge
is pinned in ``tests/cluster/test_scatter_equivalence.py``.
"""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema

COUNT = "COLLECT WITH COUNT INTO n RETURN n"
AGGREGATES = (
    "COLLECT AGGREGATE n = COUNT(r), s = SUM(r.v), a = AVG(r.v), "
    "lo = MIN(r.v), hi = MAX(r.v), u = UNIQUE(r.v) "
    "RETURN {n, s, a, lo, hi, u}"
)
EMPTY_AGGREGATES = {"n": 0, "s": None, "a": None, "lo": None, "hi": None, "u": []}

#: name -> the FOR (and FILTER) that yields no frames.
EMPTY_INPUTS = {
    "empty_table": "FOR r IN empty",
    "nothing_passes": "FOR r IN readings FILTER r.v == 0.25",  # zone maps keep it
    "empty_array": "FOR r IN []",
}


@pytest.fixture(scope="module")
def db():
    db = MultiModelDB()
    for name in ("empty", "readings"):
        db.create_table(
            TableSchema(
                name,
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("v", ColumnType.FLOAT),
                ],
                primary_key="id",
            )
        )
    for index in range(300):
        db.table("readings").insert({"id": index, "v": None if index % 3 else index * 0.5})
    return db


@pytest.fixture(params=[(1, False), (1, True), (256, False), (256, True)],
                ids=["w1-rows", "w1-columnar", "w256-rows", "w256-columnar"])
def run(request, db):
    batch_size, columnar = request.param

    def run(text):
        return db.query(text, batch_size=batch_size, columnar=columnar).rows

    return run


@pytest.mark.parametrize("source", sorted(EMPTY_INPUTS))
def test_with_count_over_no_input_is_zero(run, source):
    assert run(f"{EMPTY_INPUTS[source]} {COUNT}") == [0]


@pytest.mark.parametrize("source", sorted(EMPTY_INPUTS))
def test_aggregates_over_no_input(run, source):
    assert run(f"{EMPTY_INPUTS[source]} {AGGREGATES}") == [EMPTY_AGGREGATES]


@pytest.mark.parametrize("source", sorted(EMPTY_INPUTS))
def test_a_grouped_collect_over_no_input_emits_nothing(run, source):
    assert run(f"{EMPTY_INPUTS[source]} COLLECT k = r.v WITH COUNT INTO n RETURN n") == []


def test_the_columnar_path_folds_the_empty_batches(db):
    result = db.query(f"{EMPTY_INPUTS['nothing_passes']} {COUNT}", columnar=True)
    assert result.rows == [0]
    assert result.stats["columnar_batches"] > 0


def test_operations_after_the_collect_see_its_frame(run):
    text = EMPTY_INPUTS["empty_table"]
    assert run(f"{text} COLLECT WITH COUNT INTO n FILTER n > 0 RETURN n") == []
    assert run(f"{text} COLLECT AGGREGATE s = SUM(r.v) RETURN s == null") == [True]


def test_sum_over_inputs_that_are_all_null_is_zero(run):
    # The group has inputs, so SUM is 0 as SUM(list) of nulls is: only a
    # group nothing was folded into has a null SUM.
    assert run("FOR r IN readings FILTER r.id == 1 COLLECT AGGREGATE s = SUM(r.v) RETURN s") == [0]
    assert run("FOR r IN readings FILTER r.id < 3 " + AGGREGATES) == [
        {"n": 3, "s": 0.0, "a": 0.0, "lo": 0.0, "hi": 0.0, "u": [0.0, None]}
    ]


def test_into_sum_keeps_its_value_over_no_input(db):
    # SUM(g[*]...) is SUM([]) = 0 on the one empty group, so the
    # collect_into_aggregate rule may not fold it into a null AGGREGATE.
    text = (
        "FOR r IN empty COLLECT AGGREGATE n = COUNT(r) INTO g "
        "RETURN {s: SUM(g[*].r.v), hi: MAX(g[*].r.v)}"
    )
    expected = [{"s": 0, "hi": None}]
    assert db.query(text).rows == expected
    db.optimizer_rules.disable("collect_into_aggregate")
    try:
        assert db.query(text).rows == expected
    finally:
        db.optimizer_rules.enable("collect_into_aggregate")
