"""MMQL execution semantics across all models."""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.errors import BindError, ExecutionError, FunctionError


@pytest.fixture()
def db():
    db = MultiModelDB()
    db.create_table(
        TableSchema(
            "customers",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.STRING),
                Column("city", ColumnType.STRING),
                Column("credit_limit", ColumnType.INTEGER),
            ],
            primary_key="id",
        )
    )
    db.table("customers").insert_many(
        [
            {"id": 1, "name": "Mary", "city": "Prague", "credit_limit": 5000},
            {"id": 2, "name": "John", "city": "Helsinki", "credit_limit": 3000},
            {"id": 3, "name": "Anne", "city": "Prague", "credit_limit": 2000},
        ]
    )
    orders = db.create_collection("orders")
    orders.insert(
        {
            "_key": "0c6df508",
            "Order_no": "0c6df508",
            "customer": 1,
            "Orderlines": [
                {"Product_no": "2724f", "Product_Name": "Toy", "Price": 66},
                {"Product_no": "3424g", "Product_Name": "Book", "Price": 40},
            ],
        }
    )
    orders.insert(
        {
            "_key": "0c6df511",
            "Order_no": "0c6df511",
            "customer": 2,
            "Orderlines": [
                {"Product_no": "2454f", "Product_Name": "Computer", "Price": 34}
            ],
        }
    )
    cart = db.create_bucket("cart")
    cart.put("1", "34e5e759")
    cart.put("2", "0c6df508")
    graph = db.create_graph("social")
    for key in ("1", "2", "3"):
        graph.add_vertex(key, {"name": {"1": "Mary", "2": "John", "3": "Anne"}[key]})
    graph.add_edge("1", "2", label="knows")
    graph.add_edge("3", "1", label="knows")
    return db


class TestBasics:
    def test_scan_return(self, db):
        result = db.query("FOR c IN customers RETURN c.name")
        assert sorted(result.rows) == ["Anne", "John", "Mary"]

    def test_filter(self, db):
        result = db.query("FOR c IN customers FILTER c.city == 'Prague' RETURN c.id")
        assert sorted(result.rows) == [1, 3]

    def test_sort_multi_key(self, db):
        result = db.query(
            "FOR c IN customers SORT c.city ASC, c.credit_limit DESC RETURN c.name"
        )
        assert result.rows == ["John", "Mary", "Anne"]

    def test_limit_offset(self, db):
        result = db.query("FOR c IN customers SORT c.id LIMIT 1, 2 RETURN c.id")
        assert result.rows == [2, 3]

    def test_let_and_subquery(self, db):
        result = db.query(
            """
            LET rich = (FOR c IN customers FILTER c.credit_limit >= 3000 RETURN c.id)
            RETURN LENGTH(rich)
            """
        )
        assert result.rows == [2]

    def test_range_loop(self, db):
        assert db.query("FOR i IN 2..4 RETURN i * i").rows == [4, 9, 16]

    def test_object_construction(self, db):
        result = db.query(
            "FOR c IN customers FILTER c.id == 1 RETURN {name: c.name, c0: c.city}"
        )
        assert result.rows == [{"name": "Mary", "c0": "Prague"}]

    def test_distinct(self, db):
        result = db.query("FOR c IN customers RETURN DISTINCT c.city")
        assert sorted(result.rows) == ["Helsinki", "Prague"]

    def test_distinct_keeps_model_equality_across_types(self, db):
        """Strings dedup through a plain set, everything else through the
        model hash: 1 == 1.0, but '1' != 1 != true, and NULL, arrays and
        objects equal only their like.  First occurrences survive, in
        order, at any batch width."""
        values = [
            "a", 1, "1", 1.0, True, "a", None, [1], [1.0], {"k": "a"},
            "", None, {"k": "a"}, False, 0, "1", ["a"], "true",
        ]
        expected = [
            "a", 1, "1", True, None, [1], {"k": "a"}, "", False, 0, ["a"],
            "true",
        ]
        for width in (1, 3, 256):
            result = db.query(
                "FOR v IN @values RETURN DISTINCT v",
                bind_vars={"values": values},
                batch_size=width,
            )
            assert [(type(row), row) for row in result.rows] == [
                (type(row), row) for row in expected
            ]

    def test_bind_vars(self, db):
        result = db.query(
            "FOR c IN customers FILTER c.credit_limit > @floor RETURN c.name",
            bind_vars={"floor": 2500},
        )
        assert sorted(result.rows) == ["John", "Mary"]

    def test_missing_bind_var(self, db):
        with pytest.raises(BindError):
            db.query("RETURN @nope")

    def test_unknown_variable(self, db):
        with pytest.raises(BindError):
            db.query("RETURN mystery")

    def test_missing_attribute_is_null(self, db):
        result = db.query("FOR c IN customers FILTER c.id == 1 RETURN c.ghost")
        assert result.rows == [None]


class TestExpressions:
    def test_arithmetic_and_precedence(self, db):
        assert db.query("RETURN 2 + 3 * 4").rows == [14]

    def test_division_by_zero(self, db):
        with pytest.raises(ExecutionError):
            db.query("RETURN 1 / (1 - 1)")

    def test_arithmetic_rejects_strings(self, db):
        with pytest.raises(ExecutionError):
            db.query("RETURN 'a' + 1")

    def test_in_operator(self, db):
        assert db.query("RETURN 2 IN [1, 2, 3]").rows == [True]
        assert db.query("RETURN 9 IN [1, 2, 3]").rows == [False]

    def test_like(self, db):
        assert db.query("RETURN 'Prague' LIKE 'Pra%'").rows == [True]
        assert db.query("RETURN 'Prague' LIKE 'P_ague'").rows == [True]
        assert db.query("RETURN 'Prague' LIKE 'Z%'").rows == [False]

    def test_logic_short_circuit(self, db):
        # The right side would fail, but the left decides.
        assert db.query("RETURN false AND (1 / 0)").rows == [False]
        assert db.query("RETURN true OR (1 / 0)").rows == [True]

    def test_cross_type_comparison(self, db):
        assert db.query("RETURN 1 < 'a'").rows == [True]  # number < string

    def test_expansion(self, db):
        result = db.query(
            "FOR o IN orders FILTER o.Order_no == '0c6df508' "
            "RETURN o.Orderlines[*].Product_no"
        )
        assert result.rows == [["2724f", "3424g"]]

    def test_inline_filter_slide_74(self, db):
        # Oracle NoSQL: [c.orders.orderlines[$element.price > 35]]
        result = db.query(
            "FOR o IN orders FILTER o.Order_no == '0c6df508' "
            "RETURN o.Orderlines[* FILTER $CURRENT.Price > 35][*].Product_Name"
        )
        assert result.rows == [["Toy", "Book"]]

    def test_nested_index_access_slide_74(self, db):
        # SELECT … WHERE c.orders.orderlines[0].price > 50
        result = db.query(
            "FOR o IN orders FILTER o.Orderlines[0].Price > 50 RETURN o.Order_no"
        )
        assert result.rows == ["0c6df508"]

    def test_functions(self, db):
        assert db.query("RETURN SUM([1, 2, 3])").rows == [6]
        assert db.query("RETURN UNIQUE([1, 1.0, 2])").rows == [[1, 2]]
        assert db.query("RETURN CONCAT('a', 1, NULL, 'b')").rows == ["a1b"]
        assert db.query("RETURN TO_STRING(42)").rows == ["42"]

    def test_unknown_function(self, db):
        with pytest.raises(FunctionError):
            db.query("RETURN WHATEVER(1)")


class TestCollect:
    def test_group_with_count(self, db):
        result = db.query(
            "FOR c IN customers COLLECT city = c.city WITH COUNT INTO n "
            "SORT city RETURN {city, n}"
        )
        assert result.rows == [
            {"city": "Helsinki", "n": 1},
            {"city": "Prague", "n": 2},
        ]

    def test_group_into_members(self, db):
        result = db.query(
            "FOR c IN customers COLLECT city = c.city INTO members "
            "SORT city RETURN {city: city, names: members[*].c.name}"
        )
        assert result.rows[1]["names"] == ["Mary", "Anne"]


class TestCrossModel:
    def test_kv_get(self, db):
        assert db.query("RETURN KV_GET('cart', '2')").rows == ["0c6df508"]
        assert db.query("RETURN KV_GET('cart', 'zzz')").rows == [None]

    def test_bucket_iteration(self, db):
        result = db.query("FOR entry IN cart SORT entry._key RETURN entry.value")
        assert result.rows == ["34e5e759", "0c6df508"]

    def test_traversal_op(self, db):
        result = db.query(
            "FOR f IN 1..1 OUTBOUND '3' GRAPH social LABEL 'knows' RETURN f.name"
        )
        assert result.rows == ["Mary"]

    def test_traversal_from_numeric_id(self, db):
        result = db.query(
            "FOR c IN customers FILTER c.name == 'Anne' "
            "FOR f IN 1..1 OUTBOUND c.id GRAPH social RETURN f.name"
        )
        assert result.rows == ["Mary"]

    def test_neighbors_function(self, db):
        assert db.query("RETURN NEIGHBORS('social', '1', 'inbound')").rows == [["3"]]

    def test_shortest_path_function(self, db):
        assert db.query("RETURN SHORTEST_PATH('social', '3', '2', 'any')").rows == [
            ["3", "1", "2"]
        ]

    def test_document_function(self, db):
        assert db.query("RETURN DOCUMENT('customers', 2).name").rows == ["John"]
        assert db.query("RETURN DOCUMENT('orders', '0c6df511').customer").rows == [2]

    def test_recommendation_query_e1(self, db):
        """Experiment E1 — the running example, expected ['2724f','3424g']."""
        result = db.query(
            """
            LET rich = (FOR c IN customers FILTER c.credit_limit > 3000 RETURN c.id)
            FOR cid IN rich
              FOR friend IN 1..1 OUTBOUND cid GRAPH social LABEL 'knows'
                LET order_no = KV_GET('cart', friend._key)
                FILTER order_no != NULL
                FOR o IN orders
                  FILTER o.Order_no == order_no
                  RETURN o.Orderlines[*].Product_no
            """
        )
        assert result.rows == [["2724f", "3424g"]]


class TestDml:
    def test_insert(self, db):
        db.query("INSERT {id: 9, name: 'Eve', city: 'Oslo', credit_limit: 1} INTO customers")
        assert db.table("customers").get(9)["name"] == "Eve"

    def test_insert_per_frame(self, db):
        result = db.query(
            "FOR i IN 10..12 INSERT {id: i, name: CONCAT('u', i)} INTO customers"
        )
        assert len(result.rows) == 3
        assert db.table("customers").count() == 6

    def test_update(self, db):
        db.query(
            "FOR c IN customers FILTER c.city == 'Prague' "
            "UPDATE c WITH {city: 'Brno'} IN customers"
        )
        assert len(db.table("customers").where_equals("city", "Brno")) == 2

    def test_remove(self, db):
        db.query("REMOVE 3 IN customers")
        assert db.table("customers").count() == 2

    def test_dml_in_transaction_rolls_back(self, db):
        txn = db.begin()
        db.query("REMOVE 3 IN customers", txn=txn)
        assert db.table("customers").count(txn=txn) == 2
        db.abort(txn)
        assert db.table("customers").count() == 3

    def test_stats_track_writes(self, db):
        result = db.query("INSERT {id: 99, name: 'Z'} INTO customers")
        assert result.stats["writes"] == 1


class TestSnapshotQueries:
    def test_query_in_snapshot_ignores_later_commits(self, db):
        txn = db.begin()
        db.table("customers").insert({"id": 50, "name": "Late"})
        rows = db.query("FOR c IN customers RETURN c.id", txn=txn).rows
        assert 50 not in rows
        db.commit(txn)
        rows = db.query("FOR c IN customers RETURN c.id").rows
        assert 50 in rows
