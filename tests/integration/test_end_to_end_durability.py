"""End-to-end: UniBench workload C under WAL + crash + recovery, and
threaded new-order traffic against the full engine."""

import random
import threading

import pytest

from repro import MultiModelDB
from repro.errors import SerializationError
from repro.unibench.generator import generate, load_into_multimodel
from repro.unibench.workloads import new_order_transaction


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=1, seed=42)


class TestWorkloadCWithCrash:
    def test_crash_mid_workload_recovers_consistently(self, tmp_path, data):
        wal_path = str(tmp_path / "engine.wal")

        db = MultiModelDB()
        db.attach_wal(wal_path)
        load_into_multimodel(db, data, with_indexes=False)
        committed_orders = []
        rng = random.Random(5)
        for index in range(30):
            customer_id = rng.randint(1, 20)
            order = {
                "_key": f"cr{index:04d}",
                "Order_no": f"cr{index:04d}",
                "customer_id": customer_id,
                "total": rng.randint(1, 20),
                "Orderlines": [],
            }
            txn = db.begin()
            try:
                new_order_transaction(db, customer_id, order, txn=txn)
                db.commit(txn)
                committed_orders.append(order)
            except SerializationError:
                pass
        # One transaction in flight when the process dies:
        txn = db.begin()
        new_order_transaction(
            db,
            1,
            {"_key": "in-flight", "Order_no": "in-flight", "customer_id": 1,
             "total": 5, "Orderlines": []},
            txn=txn,
        )
        db.close()  # crash (no commit)

        # Recovery into a fresh engine.
        recovered = MultiModelDB()
        recovered.recover(wal_path)
        load_shadow = MultiModelDB()
        load_into_multimodel(load_shadow, data, with_indexes=False)
        # Re-register the catalog objects over recovered state.
        from repro.relational.schema import Column, ColumnType, TableSchema

        recovered.create_table(
            TableSchema(
                "customers",
                [
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("name", ColumnType.STRING, nullable=False),
                    Column("city", ColumnType.STRING),
                    Column("credit_limit", ColumnType.INTEGER),
                ],
                primary_key="id",
            )
        )
        orders = recovered.create_collection("orders")
        cart = recovered.create_bucket("cart")

        # Every committed order is fully wired; the in-flight one is gone.
        assert orders.get("in-flight") is None
        for order in committed_orders:
            assert orders.get(order["_key"]) is not None
        # Cart pointers: each affected customer's cart points at their most
        # recently committed order.
        latest = {}
        for order in committed_orders:
            latest[str(order["customer_id"])] = order["_key"]
        for customer_id, expected in latest.items():
            assert cart.get(customer_id) == expected
        # Credit debits survived exactly for committed orders.
        debit = {}
        for order in committed_orders:
            debit[order["customer_id"]] = (
                debit.get(order["customer_id"], 0) + order["total"]
            )
        for customer_id, total_debit in debit.items():
            original = next(
                row for row in data.customers if row["id"] == customer_id
            )
            assert (
                recovered.table("customers").get(customer_id)["credit_limit"]
                == original["credit_limit"] - total_debit
            )


class TestThreadedNewOrders:
    def test_concurrent_new_orders_keep_invariants(self, data):
        db = MultiModelDB()
        load_into_multimodel(db, data, with_indexes=False)
        committed = []
        committed_lock = threading.Lock()
        errors = []

        def worker(worker_id):
            rng = random.Random(worker_id)
            try:
                for index in range(25):
                    customer_id = rng.randint(1, 10)
                    order = {
                        "_key": f"w{worker_id}-{index:03d}",
                        "Order_no": f"w{worker_id}-{index:03d}",
                        "customer_id": customer_id,
                        "total": rng.randint(1, 10),
                        "Orderlines": [],
                    }
                    txn = db.begin()
                    try:
                        new_order_transaction(db, customer_id, order, txn=txn)
                        db.commit(txn)
                        with committed_lock:
                            committed.append(order)
                    except SerializationError:
                        pass
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        orders = db.collection("orders")
        # 1. Every committed order exists; none were lost or duplicated.
        stored = {
            doc["_key"]
            for doc in orders.scan_cursor()
            if doc["_key"].startswith("w")
        }
        assert stored == {order["_key"] for order in committed}
        # 2. Credit conservation: per customer, debits equal committed totals.
        debit = {}
        for order in committed:
            debit[order["customer_id"]] = (
                debit.get(order["customer_id"], 0) + order["total"]
            )
        for customer_id, total_debit in debit.items():
            original = next(
                row for row in data.customers if row["id"] == customer_id
            )
            assert (
                db.table("customers").get(customer_id)["credit_limit"]
                == original["credit_limit"] - total_debit
            )
