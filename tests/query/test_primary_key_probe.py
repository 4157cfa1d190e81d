"""A read by key is a probe: the primary key as an access path.

``index_selection`` treats a store's own key map — a table's primary key,
a collection's ``_key``, a bucket's ``_key`` — as a unique point access
path that is always there.  The probe is one keyed read per distinct key,
through the visibility rule inside a transaction, each record rechecked
against the full predicate under the model's equality.  Every statement
here answers what the plan with the rule off answers.
"""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.errors import SerializationError
from repro.obs import metrics
from repro.query import advisor
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.plan import IndexScanOp

POINT_REL = "FOR c IN customers FILTER c.id == @id RETURN c.name"


def _customers(rows: int) -> MultiModelDB:
    db = MultiModelDB()
    db.create_table(
        TableSchema(
            "customers",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.STRING),
                Column("city", ColumnType.STRING),
            ],
            primary_key="id",
        )
    )
    table = db.table("customers")
    txn = db.begin()
    for index in range(1, rows + 1):
        table.insert(
            {"id": index, "name": f"c{index}", "city": ("Oslo", "Rome")[index % 2]},
            txn=txn,
        )
    db.commit(txn)
    orders = db.create_collection("orders")
    for index in range(1, 13):
        orders.insert({"_key": f"o{index}", "customer_id": index % 9 + 1, "total": index})
    orders.insert({"_key": "o99", "customer_id": 7.0, "total": 0})
    orders.insert({"_key": "o98", "customer_id": "7", "total": 0})
    orders.insert({"_key": "o97", "customer_id": None, "total": 0})
    cart = db.create_bucket("cart")
    cart.put("3", "o3")
    cart.put("nothing", None)
    db.create_collection("audit")
    return db


@pytest.fixture
def db():
    return _customers(10)


def _both(db, text, binds=None, txn=None):
    """``(rows, error class)`` of *text* with index selection on, then
    off."""
    answers = []
    for off in (False, True):
        if off:
            db.optimizer_rules.disable("index_selection")
        try:
            answers.append((db.query(text, binds or {}, txn=txn).rows, None))
        except Exception as error:  # compared, not raised
            answers.append((None, type(error)))
        finally:
            db.optimizer_rules.enable("index_selection")
    return answers


def test_point_rel_plans_a_primary_key_probe(db):
    plan = optimize(parse(POINT_REL), db)
    (scan,) = [op for op in plan.operations if isinstance(op, IndexScanOp)]
    assert (scan.index_kind, scan.index_name) == ("primary", "primary:rel:customers:id")
    explained = db.explain(POINT_REL)
    assert "IndexScan c IN customers USING primary key ON id == @id" in explained
    analyzed = db.query("EXPLAIN ANALYZE " + POINT_REL, {"id": 7}).analyzed
    assert "USING primary key ON id == @id  [rows in=1 out=1 est=1 " in analyzed


@pytest.mark.parametrize("rows", [10, 20_000])
def test_a_key_read_reads_one_row_at_any_table_size(rows):
    db = _customers(rows)
    result = db.query(POINT_REL, {"id": 7}, analyze=True)
    assert result.rows == ["c7"]
    assert result.stats["scanned"] == 0
    assert result.stats["index_lookups"] == 1
    assert result.stats["indexes_used"] == ["primary:rel:customers:id"]
    index_scan = result.op_stats[0]
    assert (index_scan["rows_out"], index_scan["est_rows"]) == (1, 1)


def test_the_lookup_counter_names_the_primary_key(db):
    if not metrics.ENABLED:
        pytest.skip("metrics disabled")
    counter = metrics.counter("index_lookups_total", index="primary:rel:customers:id")
    before = counter.value
    db.query(POINT_REL, {"id": 3})
    assert counter.value == before + 1


def test_a_document_key_and_a_bucket_key_are_probes(db):
    text = "FOR o IN orders FILTER o._key == @key RETURN o.total"
    result = db.query(text, {"key": "o5"})
    assert result.rows == [5]
    assert (result.stats["scanned"], result.stats["index_lookups"]) == (0, 1)
    assert "IndexScan o IN orders USING primary key ON _key == @key" in db.explain(text)
    text = "FOR x IN cart FILTER x._key == @key RETURN x"
    for key, expected in (("3", [{"_key": "3", "value": "o3"}]),
                          ("nothing", [{"_key": "nothing", "value": None}]),
                          ("absent", [])):
        result = db.query(text, {"key": key})
        assert result.rows == expected, key
        assert result.stats["scanned"] == 0
        assert _both(db, text, {"key": key})[1] == (expected, None)


@pytest.mark.parametrize(
    "probe", [True, 7.0, "7", None, [7], {"id": 7}, 7, -0.0, 99],
    ids=["true", "float", "string", "null", "array", "object", "int", "zero", "absent"],
)
def test_probe_values_answer_what_a_scan_answers(db, probe):
    probed, scanned = _both(db, POINT_REL, {"id": probe})
    assert probed == scanned
    text = "FOR o IN orders FILTER o._key == @key RETURN o.total"
    probed, scanned = _both(db, text, {"key": probe})
    assert probed == scanned


def test_a_residual_and_a_filter_run_recheck_the_record(db):
    for text in (
        "FOR c IN customers FILTER c.id == @id AND c.city == 'Rome' RETURN c.name",
        "FOR c IN customers FILTER c.city == 'Rome' FILTER c.id == @id RETURN c.name",
        "FOR c IN customers FILTER @id == c.id FILTER c.name != 'c7' RETURN c.name",
    ):
        for probe in (7, 8):
            probed, scanned = _both(db, text, {"id": probe})
            assert probed == scanned, (text, probe)


def test_a_correlated_inner_probe_answers_what_the_rule_off_plan_answers(db):
    text = """
    FOR o IN orders
      FOR c IN customers
        FILTER c.id == o.customer_id
        SORT o._key
        RETURN {o: o._key, c: c.name}
    """
    plan = optimize(parse(text), db)
    assert [op.index_kind for op in plan.operations if isinstance(op, IndexScanOp)] == [
        "primary"
    ]
    probed, scanned = _both(db, text)
    assert probed == scanned
    rows = probed[0]
    assert {"o": "o99", "c": "c7"} in rows  # 7.0 meets key 7
    assert not any(row["o"] in ("o98", "o97") for row in rows)


def test_a_writing_statement_probes_frame_by_frame(db):
    text = """
    FOR o IN orders
      FILTER o.total > 0
      FOR c IN customers
        FILTER c.id == o.customer_id
        UPDATE c WITH {city: o._key} IN customers
    """
    plan = optimize(parse(text), db)
    (scan,) = [op for op in plan.operations if isinstance(op, IndexScanOp)]
    assert scan.per_frame
    on = _customers(10)
    off = _customers(10)
    off.optimizer_rules.disable("index_selection")
    on.query(text)
    off.query(text)
    read = "FOR c IN customers SORT c.id RETURN [c.id, c.city]"
    assert on.query(read).rows == off.query(read).rows


def test_a_snapshot_probe_sees_its_own_write_and_not_a_rivals_commit(db):
    txn = db.begin()
    db.table("customers").update(7, {"name": "mine"}, txn=txn)
    rival = db.begin()
    db.table("customers").update(8, {"name": "theirs"}, txn=rival)
    db.commit(rival)
    for probe, name in ((7, "mine"), (8, "c8")):
        answers = _both(db, POINT_REL, {"id": probe}, txn=txn)
        assert answers == [([name], None)] * 2, probe
        result = db.query(POINT_REL, {"id": probe}, txn=txn)
        assert result.stats["index_lookups"] == 1
    db.abort(txn)
    assert db.query(POINT_REL, {"id": 8}).rows == ["theirs"]


@pytest.mark.parametrize("rival_key,aborts", [(8, False), (7, True)])
def test_a_serializable_probe_records_the_key_not_the_table(db, rival_key, aborts):
    txn = db.begin("serializable")
    assert db.query(POINT_REL, {"id": 7}, txn=txn).rows == ["c7"]
    db.collection("audit").insert({"read": 7}, txn=txn)
    db.table("customers").update(rival_key, {"name": "rival"})
    if aborts:
        with pytest.raises(SerializationError):
            db.commit(txn)
    else:
        db.commit(txn)
        assert db.query("FOR a IN audit RETURN a.read").rows == [7]


def test_the_advisor_reports_no_near_miss_for_a_primary_key(db):
    db.query(POINT_REL, {"id": 7})
    db.query("FOR c IN customers FILTER c.city == 'Oslo' RETURN c.id")
    workload = [POINT_REL, "FOR o IN orders FILTER o._key == 'o1' RETURN o"]
    recommended = {(r.source_name, r.path) for r in advisor.advise(db, workload)}
    assert recommended == {("customers", ("city",))}
