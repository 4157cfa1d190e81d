"""MVCC transaction manager tests: isolation, conflicts, atomicity."""

import pytest

from repro.core.context import BaseStore, EngineContext
from repro.errors import (
    InvalidTransactionStateError,
    SerializationError,
)
from repro.storage.log import CentralLog
from repro.storage.views import RowView
from repro.txn.manager import IsolationLevel, TransactionManager


@pytest.fixture()
def setup():
    log = CentralLog()
    rows = RowView(log)
    manager = TransactionManager(log, rows)
    return log, rows, manager


class TestBasicLifecycle:
    def test_commit_publishes_to_views(self, setup):
        _log, rows, manager = setup
        txn = manager.begin()
        manager.write(txn, "t", "k", {"v": 1})
        assert rows.get("t", "k") is None  # not visible before commit
        manager.commit(txn)
        assert rows.get("t", "k") == {"v": 1}

    def test_abort_discards_writes(self, setup):
        _log, rows, manager = setup
        txn = manager.begin()
        manager.write(txn, "t", "k", {"v": 1})
        manager.abort(txn)
        assert rows.get("t", "k") is None
        assert manager.aborts == 1

    def test_operations_on_finished_txn_raise(self, setup):
        _log, _rows, manager = setup
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(InvalidTransactionStateError):
            manager.write(txn, "t", "k", 1)
        with pytest.raises(InvalidTransactionStateError):
            manager.commit(txn)

    def test_read_own_writes(self, setup):
        _log, _rows, manager = setup
        txn = manager.begin()
        manager.write(txn, "t", "k", {"v": 1})
        assert manager.read(txn, "t", "k") == {"v": 1}
        manager.delete(txn, "t", "k")
        assert manager.read(txn, "t", "k") is None

    def test_atomic_multi_model_commit(self, setup):
        """The cross-model atomicity claim of slide 23: one txn over four
        namespaces commits everywhere or nowhere."""
        _log, rows, manager = setup
        txn = manager.begin()
        manager.write(txn, "rel:customers", 1, {"name": "Mary"})
        manager.write(txn, "kv:cart", "1", "order-1")
        manager.write(txn, "doc:orders", "order-1", {"total": 66})
        manager.write(txn, "graph:knows", "e1", {"_from": "1", "_to": "2"})
        manager.abort(txn)
        for namespace in ("rel:customers", "kv:cart", "doc:orders", "graph:knows"):
            assert rows.count(namespace) == 0


class TestSnapshotIsolation:
    def test_repeatable_reads(self, setup):
        _log, _rows, manager = setup
        setup_txn = manager.begin()
        manager.write(setup_txn, "t", "k", {"v": 1})
        manager.commit(setup_txn)

        reader = manager.begin()
        assert manager.read(reader, "t", "k") == {"v": 1}

        writer = manager.begin()
        manager.write(writer, "t", "k", {"v": 2})
        manager.commit(writer)

        # Snapshot reader still sees the old version.
        assert manager.read(reader, "t", "k") == {"v": 1}
        manager.commit(reader)

        late = manager.begin()
        assert manager.read(late, "t", "k") == {"v": 2}

    def test_first_committer_wins(self, setup):
        _log, _rows, manager = setup
        base = manager.begin()
        manager.write(base, "t", "k", {"v": 0})
        manager.commit(base)

        txn_a = manager.begin()
        txn_b = manager.begin()
        manager.write(txn_a, "t", "k", {"v": "a"})
        manager.write(txn_b, "t", "k", {"v": "b"})
        manager.commit(txn_a)
        with pytest.raises(SerializationError):
            manager.commit(txn_b)
        assert manager.conflicts == 1
        assert manager.read_committed_latest("t", "k") == {"v": "a"}

    def test_disjoint_writes_both_commit(self, setup):
        _log, rows, manager = setup
        txn_a = manager.begin()
        txn_b = manager.begin()
        manager.write(txn_a, "t", "a", 1)
        manager.write(txn_b, "t", "b", 2)
        manager.commit(txn_a)
        manager.commit(txn_b)
        assert rows.count("t") == 2

    def test_snapshot_scan(self):
        # A store scan inside a transaction runs the visibility rule.
        context = EngineContext()
        manager, store = context.transactions, BaseStore(context, "t")
        base = manager.begin()
        for i in range(3):
            manager.write(base, store.namespace, f"k{i}", {"v": i})
        manager.commit(base)

        reader = manager.begin()
        writer = manager.begin()
        manager.write(writer, store.namespace, "k3", {"v": 3})
        manager.delete(writer, store.namespace, "k0")
        manager.commit(writer)

        keys = sorted(key for key, _value in store._raw_scan(reader))
        assert keys == ["k0", "k1", "k2"]  # snapshot unaffected

        fresh = manager.begin()
        keys = sorted(key for key, _value in store._raw_scan(fresh))
        assert keys == ["k1", "k2", "k3"]

    def test_scan_includes_own_writes(self):
        context = EngineContext()
        manager, store = context.transactions, BaseStore(context, "t")
        txn = manager.begin()
        manager.write(txn, store.namespace, "mine", {"v": 1})
        assert [key for key, _ in store._raw_scan(txn)] == ["mine"]


class TestReadCommitted:
    def test_sees_concurrent_commits(self, setup):
        _log, _rows, manager = setup
        reader = manager.begin(IsolationLevel.READ_COMMITTED)
        writer = manager.begin()
        manager.write(writer, "t", "k", {"v": 1})
        manager.commit(writer)
        # Non-repeatable read is allowed at this level.
        assert manager.read(reader, "t", "k") == {"v": 1}


class TestSerializable:
    def test_write_skew_prevented(self, setup):
        """Classic write-skew: two doctors both read the on-call count and
        both sign off.  Snapshot isolation allows it; SERIALIZABLE must
        not: the second commit finds its read of alice changed."""
        _log, _rows, manager = setup
        base = manager.begin()
        manager.write(base, "oncall", "alice", True)
        manager.write(base, "oncall", "bob", True)
        manager.commit(base)

        txn_a = manager.begin(IsolationLevel.SERIALIZABLE)
        txn_b = manager.begin(IsolationLevel.SERIALIZABLE)
        assert manager.read(txn_a, "oncall", "alice") is True
        assert manager.read(txn_a, "oncall", "bob") is True
        # txn_b's read of alice conflicts with txn_a's later write: under
        # 2PL one of the transactions fails to make progress.
        assert manager.read(txn_b, "oncall", "bob") is True
        assert manager.read(txn_b, "oncall", "alice") is True
        manager.write(txn_a, "oncall", "alice", False)
        manager.write(txn_b, "oncall", "bob", False)
        manager.commit(txn_a)
        with pytest.raises(SerializationError, match="oncall:'alice'"):
            manager.commit(txn_b)
        assert manager.read_committed_latest("oncall", "bob") is True

    def test_serializable_simple_commit(self, setup):
        _log, rows, manager = setup
        txn = manager.begin(IsolationLevel.SERIALIZABLE)
        manager.write(txn, "t", "k", 1)
        manager.commit(txn)
        assert rows.get("t", "k") == 1


class TestRunHelper:
    def test_run_commits(self, setup):
        _log, rows, manager = setup

        def work(txn):
            manager.write(txn, "t", "k", {"v": 1})
            return "done"

        assert manager.run(work) == "done"
        assert rows.get("t", "k") == {"v": 1}

    def test_run_aborts_on_exception(self, setup):
        _log, rows, manager = setup

        def work(txn):
            manager.write(txn, "t", "k", {"v": 1})
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            manager.run(work)
        assert rows.get("t", "k") is None

    def test_run_retries_conflicts(self, setup):
        _log, _rows, manager = setup
        base = manager.begin()
        manager.write(base, "t", "counter", 0)
        manager.commit(base)
        attempts = []

        def work(txn):
            attempts.append(1)
            current = manager.read(txn, "t", "counter")
            if len(attempts) == 1:
                # Simulate a concurrent bump that wins the race.
                rival = manager.begin()
                manager.write(rival, "t", "counter", current + 10)
                manager.commit(rival)
            manager.write(txn, "t", "counter", current + 1)

        manager.run(work, retries=2)
        assert manager.read_committed_latest("t", "counter") == 11


def _commit_update(manager, key, value, namespace="t"):
    txn = manager.begin()
    manager.write(txn, namespace, key, value)
    manager.commit(txn)


class TestGarbageCollection:
    def test_gc_sweeps_chains_nobody_writes_again(self, setup):
        """Versions pile up above an open snapshot; once it is gone, only a
        later commit to the same key or the full sweep drops them."""
        _log, _rows, manager = setup
        reader = manager.begin()
        for i in range(5):
            _commit_update(manager, "k", {"v": i})
        assert manager.version_count == 5
        manager.commit(reader)
        assert manager.version_count == 5
        assert manager.garbage_collect() == 4
        assert manager.read_committed_latest("t", "k") == {"v": 4}

    def test_gc_respects_active_snapshots(self, setup):
        _log, _rows, manager = setup
        txn = manager.begin()
        manager.write(txn, "t", "k", {"v": 0})
        manager.commit(txn)
        reader = manager.begin()
        for i in range(1, 4):
            _commit_update(manager, "k", {"v": i})
        manager.garbage_collect()
        # The reader's snapshot version must survive.
        assert manager.read(reader, "t", "k") == {"v": 0}


class TestCommitTimePruning:
    @pytest.mark.parametrize(
        "isolation, sees",
        [("snapshot", 0), ("serializable", 0), ("read_committed", 50)],
    )
    def test_open_reader_keeps_its_version(self, setup, isolation, sees):
        _log, _rows, manager = setup
        _commit_update(manager, "k", {"v": 0})
        reader = manager.begin(isolation)
        for i in range(1, 51):
            _commit_update(manager, "k", {"v": i})
        assert manager.read(reader, "t", "k") == {"v": sees}
        manager.commit(reader)

    def test_next_commit_after_the_reader_leaves_one_version(self, setup):
        _log, _rows, manager = setup
        _commit_update(manager, "k", {"v": 0})
        reader = manager.begin()
        for i in range(1, 51):
            _commit_update(manager, "k", {"v": i})
        assert manager.read(reader, "t", "k") == {"v": 0}
        # The snapshot's version and every newer one: nothing older exists.
        assert manager.version_count == 51
        manager.commit(reader)
        _commit_update(manager, "k", {"v": 51})
        assert manager.version_count == 1
        assert manager.read_committed_latest("t", "k") == {"v": 51}

    def test_versions_above_an_open_snapshot_survive_an_older_one_closing(
        self, setup
    ):
        _log, _rows, manager = setup
        _commit_update(manager, "k", {"v": 0})
        old = manager.begin()
        _commit_update(manager, "k", {"v": 1})
        young = manager.begin()
        _commit_update(manager, "k", {"v": 2})
        manager.commit(old)
        _commit_update(manager, "k", {"v": 3})
        assert manager.read(young, "t", "k") == {"v": 1}
        assert manager.version_count == 3  # v1 (young's), v2, v3

    def test_hot_keys_hold_one_version_each(self):
        """2 000 new-order transactions over 40 hot customers, no snapshot
        left open: every chain is one version long."""
        from repro.core.database import MultiModelDB
        from repro.relational.schema import Column, ColumnType, TableSchema
        from repro.unibench.workloads import new_order_transaction

        db = MultiModelDB()
        customers = db.create_table(TableSchema("customers", [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("credit_limit", ColumnType.INTEGER),
        ]))
        db.create_collection("orders")
        db.create_bucket("cart")
        for customer_id in range(40):
            customers.insert({"id": customer_id, "credit_limit": 10**6})
        for n in range(2000):
            order = {"_key": f"o{n}", "Order_no": f"o{n}",
                     "customer_id": n % 40, "total": 1, "Orderlines": []}
            txn = db.begin()
            new_order_transaction(db, n % 40, order, txn=txn)
            db.commit(txn)
        manager = db.context.transactions
        assert manager.active_count == 0
        # One version per record: as many as the stores hold keys.
        assert manager.version_count == len(customers) + len(
            db.collection("orders")) + len(db.bucket("cart")) == 2080
        assert customers.get(7)["credit_limit"] == 10**6 - 50

    def test_tombstone_below_the_horizon_goes_with_its_chain(self, setup):
        _log, rows, manager = setup
        _commit_update(manager, "k", {"v": 0})
        reader = manager.begin()
        txn = manager.begin()
        manager.delete(txn, "t", "k")
        manager.commit(txn)
        # Above the reader's snapshot the tombstone must stay: it is what
        # makes a write by the reader a first-committer-wins conflict.
        assert manager.version_count == 2
        assert manager.read(reader, "t", "k") == {"v": 0}
        manager.commit(reader)
        txn = manager.begin()
        manager.delete(txn, "t", "k")
        manager.commit(txn)
        assert manager.version_count == 0
        assert rows.get("t", "k") is None
