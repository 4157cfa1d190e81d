"""``c_txn_wal``: UniBench Workload C, embedded, one thread, WAL attached
with ``sync=True`` — the stated flush policy: every WAL append is flushed
and fsynced before the call returns.

70 % ``new_order_transaction`` (document insert + key/value put +
relational update, one commit) on a hot pool of 10 % of the customers,
retried up to three times on ``SerializationError``; a fixed four of the
fourteen new-orders in a round meet a rival commit on the same customer's
cart between their writes and their commit (the single-threaded interleave
of ``workload_c_multimodel``), so abort counts repeat exactly.  20 %
in-transaction point reads.  10 % ``COLLECT AGGREGATE`` over ``customers``
outside any transaction — the table the transactions keep dirtying, so
every scan pays a columnar segment rebuild.

``txn.manager``, ``txn.locks``, ``storage.wal``, ``storage.log`` and the
commit-time maintenance of ``storage.segments`` do the work.  This is the
writes-beside-reads case: read cost, write cost and space trade here and
nowhere else.

The driver keeps its own model of the state (single thread, so it is
exact) and checks every read against it.  After the window the WAL is
copied as it stands — every byte in it was fsynced — and recovered into a
fresh database; every acknowledged commit must be there.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro.core.database import MultiModelDB
from repro.errors import SerializationError
from repro.obs import metrics as obs_metrics
from repro.unibench.generator import generate, load_into_multimodel
from repro.unibench.workloads import _audit_multimodel, new_order_transaction

import layers
import workloads
from embedded import TracedQueries

RIVAL_VALUE = "rival-order"


class TxnWal:
    name = "c_txn_wal"

    def __init__(self, paths):
        self._paths = paths
        self.db = None
        self.data = None
        self._dir = None
        self._durability = None

    # -- sequence ---------------------------------------------------------

    def sequences(self, data, seed: int, smoke: bool) -> list:
        rounds = 2 if smoke else workloads.TXN_CYCLE_ROUNDS
        return [workloads.txn_sequence(data, seed, rounds)]

    def warmup_rounds(self, sequences: list) -> list:
        return [rounds[:1] for rounds in sequences]

    def trace_rounds(self, sequences: list, smoke: bool) -> list:
        return [workloads.cycled(rounds, 2 if smoke else 96)
                for rounds in sequences]

    # -- system under test ------------------------------------------------

    def setup(self) -> None:
        self.data = generate(workloads.SCALE_FACTOR, workloads.DATA_SEED)
        self.db = MultiModelDB()
        load_into_multimodel(self.db, self.data)
        self._dir = tempfile.mkdtemp(
            prefix="wal-", dir=self._paths.ensure_out())
        self.wal_path = os.path.join(self._dir, "wal.log")
        self.db.attach_wal(self.wal_path, sync=True)
        self._customers = self.db.table("customers")
        self._orders = self.db.collection("orders")
        self._cart = self.db.bucket("cart")
        # The driver's model of the committed state.
        self._credit = {
            row["id"]: row["credit_limit"] for row in self.data.customers}
        self._city = {row["id"]: row["city"] for row in self.data.customers}
        self._pointer = dict(self.data.carts)
        self._by_city: dict = {}
        for row in self.data.customers:
            entry = self._by_city.setdefault(row["city"], [0, 0])
            entry[0] += row["credit_limit"]
            entry[1] += 1
        self._committed: dict = {}
        self._order_seq = 0
        self._retries = 0
        self._payload_bytes = 0
        self._durability = None

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def children(self) -> list:
        return []

    def _new_order(self, op) -> dict:
        self._order_seq += 1
        key = f"wc{self._order_seq:07d}"
        binds = op.binds
        return {
            "_key": key,
            "Order_no": key,
            "customer_id": binds["customer_id"],
            "total": binds["total"],
            "Orderlines": [{"Product_no": binds["product_no"],
                            "Price": binds["total"], "Quantity": 1}],
        }

    def execute(self, op, thread: int):
        db = self.db
        if op.cls == "agg_scan":
            return db.query(op.text).rows
        customer_id = op.binds["customer_id"]
        if op.cls == "txn_read":
            txn = db.begin()
            row = self._customers.get(customer_id, txn=txn)
            pointer = self._cart.get(str(customer_id), txn=txn)
            order = (None if pointer is None
                     else self._orders.get(pointer, txn=txn))
            db.commit(txn)
            return row, pointer, order
        order = self._new_order(op)
        for attempt in range(1 + workloads.TXN_MAX_RETRIES):
            txn = db.begin()
            try:
                new_order_transaction(db, customer_id, order, txn=txn)
                if op.binds["rival"] and attempt == 0:
                    rival = db.begin()
                    self._cart.put(str(customer_id), RIVAL_VALUE, txn=rival)
                    db.commit(rival)
                db.commit(txn)
                return order, attempt
            except SerializationError:
                continue
        raise RuntimeError(f"{order['_key']}: retries exhausted")

    def verify(self, op, result, thread: int):
        if op.cls == "agg_scan":
            expected = [
                {"city": city, "total": total, "n": count}
                for city, (total, count) in sorted(self._by_city.items())
            ]
            return None if result == expected else (
                f"aggregate {result} differs from the model {expected}")
        customer_id = op.binds["customer_id"]
        if op.cls == "txn_read":
            row, pointer, order = result
            if row is None or row["credit_limit"] != self._credit[customer_id]:
                return f"credit read {row}, model {self._credit[customer_id]}"
            if pointer != self._pointer.get(str(customer_id)):
                return (f"cart read {pointer!r}, model "
                        f"{self._pointer.get(str(customer_id))!r}")
            if pointer not in (None, RIVAL_VALUE) and (
                    order is None or order["Order_no"] != pointer):
                return f"cart points at {pointer!r} but the order is {order}"
            return None
        order, attempts = result
        if attempts != int(op.binds["rival"]):
            return f"{attempts} retries, rival={op.binds['rival']}"
        total = order["total"]
        self._retries += attempts
        self._credit[customer_id] -= total
        self._by_city[self._city[customer_id]][0] -= total
        self._pointer[str(customer_id)] = order["_key"]
        self._committed[order["_key"]] = order
        # What the application asked to be stored, as JSON: the order, the
        # cart pointer, the new credit limit (and the rival's pointer).
        self._payload_bytes += (
            len(json.dumps(order)) + len(json.dumps(order["_key"]))
            + len(json.dumps({"credit_limit": self._credit[customer_id]}))
            + (len(json.dumps(RIVAL_VALUE)) if op.binds["rival"] else 0)
        )
        return None

    # -- after the window -------------------------------------------------

    def _check_durability(self) -> dict:
        """Recover a copy of the WAL into a fresh database and compare."""
        if self._durability is not None:
            return self._durability
        problems = []
        copy = os.path.join(self._dir, "wal.crashed")
        # Taken before close(): nothing here relies on a shutdown fsync.
        shutil.copyfile(self.wal_path, copy)
        recovered = MultiModelDB()
        load_into_multimodel(recovered, self.data)
        started = time.perf_counter()
        recovered.recover(copy)
        recover_s = time.perf_counter() - started
        orders = recovered.collection("orders")
        for key, order in self._committed.items():
            if orders.get(key) != self._orders.get(key) or orders.get(key) is None:
                problems.append(f"order {key} was acknowledged but is "
                                "missing or different after recovery")
                break
        customers = recovered.table("customers")
        cart = recovered.bucket("cart")
        for customer_id, credit in self._credit.items():
            live = self._customers.get(customer_id)
            if customers.get(customer_id) != live or live["credit_limit"] != credit:
                problems.append(
                    f"customer {customer_id}: recovered "
                    f"{customers.get(customer_id)}, live {live}, model {credit}")
                break
        for key, pointer in self._pointer.items():
            if cart.get(key) != pointer or self._cart.get(key) != pointer:
                problems.append(
                    f"cart {key}: recovered {cart.get(key)!r}, live "
                    f"{self._cart.get(key)!r}, model {pointer!r}")
                break
        violations = _audit_multimodel(self.db) + _audit_multimodel(recovered)
        if violations:
            problems.append(f"{violations} atomicity violations in the audit")
        spent = sum(order["total"] for order in self._committed.values())
        initial = sum(row["credit_limit"] for row in self.data.customers)
        if sum(self._credit.values()) != initial - spent:
            problems.append("credit limits are not conserved")
        self._durability = {"problems": problems, "recover_s": recover_s}
        return self._durability

    def finish(self) -> list:
        return self._check_durability()["problems"]

    # -- traced pass ------------------------------------------------------

    def begin_trace(self) -> None:
        self._queries = TracedQueries(self.db)
        self._wal_append = obs_metrics.histogram("wal_append_seconds")
        self._counters = {
            "appends": obs_metrics.counter("wal_appends_total"),
            "fsyncs": obs_metrics.counter("wal_fsyncs_total"),
        }
        self._own = layers.Accumulator(self._snapshot)
        self.counters = self

    def _snapshot(self) -> dict:
        transactions = self.db.stats()["transactions"]
        return {
            "appends": self._counters["appends"].value,
            "fsyncs": self._counters["fsyncs"].value,
            "append_sum": self._wal_append.sum,
            "append_count": self._wal_append.count,
            "wal_bytes": os.path.getsize(self.wal_path),
            "commits": transactions["commits"],
            "conflicts": transactions["conflicts"],
            "retries": self._retries,
            "orders": len(self._committed),
            "payload": self._payload_bytes,
        }

    def resume(self) -> None:
        self._queries.counters.resume()
        self._own.resume()

    def pause(self) -> None:
        self._queries.counters.pause()
        self._own.pause()

    def _commit(self, tracer, op_id, parent_id, txn) -> None:
        """``db.commit`` in a span, with the WAL appends it made as its
        child (the WAL times its own appends)."""
        before = self._wal_append.sum
        span = tracer.open(op_id, parent_id, "txn.manager.commit")
        try:
            self.db.commit(txn)
        finally:
            tracer.close(span)
            tracer.place_children(span, [(
                "storage.wal.append",
                int((self._wal_append.sum - before) * 1e9))])

    def execute_traced(self, op, thread: int, tracer, op_id: int):
        db = self.db
        root = tracer.open(op_id, None, f"driver.op.{op.cls}")
        parent = root["span_id"]
        timed = tracer.timed
        if op.cls == "agg_scan":
            result = self._queries.run(op, tracer, root)
            tracer.close(root)
            self._queries.after(op, result, tracer)
            return result.rows, (root["end_ns"] - root["start_ns"]) / 1e9
        customer_id = op.binds["customer_id"]
        key = str(customer_id)
        if op.cls == "txn_read":
            txn = timed(op_id, parent, "txn.manager.begin", db.begin)
            row = timed(op_id, parent, "relational.table.get",
                        self._customers.get, customer_id, txn=txn)
            pointer = timed(op_id, parent, "keyvalue.store.get",
                            self._cart.get, key, txn=txn)
            order = None if pointer is None else timed(
                op_id, parent, "document.store.get",
                self._orders.get, pointer, txn=txn)
            self._commit(tracer, op_id, parent, txn)
            tracer.close(root)
            return (row, pointer, order), (
                root["end_ns"] - root["start_ns"]) / 1e9
        # new_order_transaction, call by call (keep in step with
        # repro.unibench.workloads.new_order_transaction).
        order = self._new_order(op)
        result = None
        for attempt in range(1 + workloads.TXN_MAX_RETRIES):
            txn = timed(op_id, parent, "txn.manager.begin", db.begin)
            try:
                order_no = timed(op_id, parent, "document.store.insert",
                                 self._orders.insert, order, txn=txn)
                timed(op_id, parent, "keyvalue.store.put",
                      self._cart.put, key, order_no, txn=txn)
                row = timed(op_id, parent, "relational.table.get",
                            self._customers.get, customer_id, txn=txn)
                timed(op_id, parent, "relational.table.update",
                      self._customers.update, customer_id,
                      {"credit_limit": row["credit_limit"] - order["total"]},
                      txn=txn)
                if op.binds["rival"] and attempt == 0:
                    rival = timed(op_id, parent, "txn.manager.begin", db.begin)
                    timed(op_id, parent, "keyvalue.store.put",
                          self._cart.put, key, RIVAL_VALUE, txn=rival)
                    self._commit(tracer, op_id, parent, rival)
                self._commit(tracer, op_id, parent, txn)
                result = (order, attempt)
                break
            except SerializationError:
                continue
        tracer.close(root)
        if result is None:
            raise RuntimeError(f"{order['_key']}: retries exhausted")
        return result, (root["end_ns"] - root["start_ns"]) / 1e9

    def layer_counts(self) -> dict:
        delta = self._own.total
        ratio = layers.ratio
        out = self._queries.metrics()
        out.update({
            "txn.manager.abort_ratio":
                ratio(delta["conflicts"], delta["commits"] + delta["conflicts"]),
            "txn.manager.conflicts": delta["conflicts"],
            "txn.manager.retries_per_commit":
                ratio(delta["retries"], delta["orders"]),
            "storage.wal.append_us":
                1e6 * ratio(delta["append_sum"], delta["append_count"]),
            "storage.wal.bytes_per_commit":
                ratio(delta["wal_bytes"], delta["commits"]),
            "storage.wal.appends_per_commit":
                ratio(delta["appends"], delta["commits"]),
            "storage.wal.fsyncs_per_commit":
                ratio(delta["fsyncs"], delta["commits"]),
            "storage.wal.write_amplification":
                ratio(delta["wal_bytes"], delta["payload"]),
            "storage.wal.recover_s": self._check_durability()["recover_s"],
        })
        return out
