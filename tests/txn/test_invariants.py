"""Transactional invariants under randomized contention.

The classic bank test: concurrent transfers between accounts must conserve
the total balance — under snapshot isolation with first-committer-wins and
retries, no interleaving may create or destroy money.  A second suite
checks snapshot stability (a reader's view never changes mid-transaction)
under a randomized writer storm.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SerializationError
from repro.storage.log import CentralLog, LogOp
from repro.storage.views import RowView
from repro.txn.manager import TransactionManager

ACCOUNTS = 6
INITIAL = 100


def _setup():
    log = CentralLog()
    rows = RowView(log)
    manager = TransactionManager(log, rows)
    seed_txn = manager.begin()
    for account in range(ACCOUNTS):
        manager.write(seed_txn, "bank", account, INITIAL)
    manager.commit(seed_txn)
    return rows, manager


def _transfer(manager, source, target, amount):
    """One transfer attempt; returns True when committed."""
    txn = manager.begin()
    balance_source = manager.read(txn, "bank", source)
    balance_target = manager.read(txn, "bank", target)
    if balance_source < amount:
        manager.abort(txn)
        return False
    manager.write(txn, "bank", source, balance_source - amount, LogOp.UPDATE)
    manager.write(txn, "bank", target, balance_target + amount, LogOp.UPDATE)
    try:
        manager.commit(txn)
        return True
    except SerializationError:
        return False


class TestMoneyConservation:
    @pytest.mark.parametrize("seed", [1, 7, 42, 99])
    def test_sequential_transfers_conserve_total(self, seed):
        rows, manager = _setup()
        rng = random.Random(seed)
        for _ in range(200):
            source, target = rng.sample(range(ACCOUNTS), 2)
            _transfer(manager, source, target, rng.randint(1, 50))
        total = sum(rows.get("bank", account) for account in range(ACCOUNTS))
        assert total == ACCOUNTS * INITIAL
        assert all(rows.get("bank", account) >= 0 for account in range(ACCOUNTS))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_interleaved_transfers_conserve_total(self, seed):
        """Open several transactions before committing any — the
        first committer wins, the rest must abort cleanly."""
        rows, manager = _setup()
        rng = random.Random(seed)
        for _round in range(40):
            open_txns = []
            for _ in range(3):
                source, target = rng.sample(range(ACCOUNTS), 2)
                amount = rng.randint(1, 30)
                txn = manager.begin()
                balance_source = manager.read(txn, "bank", source)
                balance_target = manager.read(txn, "bank", target)
                if balance_source < amount:
                    manager.abort(txn)
                    continue
                manager.write(
                    txn, "bank", source, balance_source - amount, LogOp.UPDATE
                )
                manager.write(
                    txn, "bank", target, balance_target + amount, LogOp.UPDATE
                )
                open_txns.append(txn)
            rng.shuffle(open_txns)
            for txn in open_txns:
                try:
                    manager.commit(txn)
                except SerializationError:
                    pass
        total = sum(rows.get("bank", account) for account in range(ACCOUNTS))
        assert total == ACCOUNTS * INITIAL

    def test_threaded_transfers_conserve_total(self):
        import threading

        rows, manager = _setup()
        errors = []

        def worker(worker_seed):
            rng = random.Random(worker_seed)
            try:
                for _ in range(60):
                    source, target = rng.sample(range(ACCOUNTS), 2)
                    _transfer(manager, source, target, rng.randint(1, 20))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = sum(rows.get("bank", account) for account in range(ACCOUNTS))
        assert total == ACCOUNTS * INITIAL


class TestSnapshotStability:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 200)), max_size=30))
    def test_reader_view_is_frozen(self, writes):
        rows, manager = _setup()
        reader = manager.begin()
        before = {
            account: manager.read(reader, "bank", account)
            for account in range(ACCOUNTS)
        }
        for account, value in writes:
            writer = manager.begin()
            manager.write(writer, "bank", account, value, LogOp.UPDATE)
            manager.commit(writer)
        after = {
            account: manager.read(reader, "bank", account)
            for account in range(ACCOUNTS)
        }
        assert before == after

    def test_new_snapshot_sees_latest(self):
        rows, manager = _setup()
        writer = manager.begin()
        manager.write(writer, "bank", 0, 12345, LogOp.UPDATE)
        manager.commit(writer)
        fresh = manager.begin()
        assert manager.read(fresh, "bank", 0) == 12345
