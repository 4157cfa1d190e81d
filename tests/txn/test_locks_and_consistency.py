"""Lock manager tests.  (Per-store consistency levels are the replica
router's: tests/server/test_replication.py.)"""

import threading

import pytest

from repro.errors import DeadlockError, LockTimeoutError
from repro.txn.locks import LockManager, LockMode


class TestLockManager:
    def test_shared_locks_coexist(self):
        locks = LockManager(timeout=0.2)
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        assert locks.holds(1, "r")
        assert locks.holds(2, "r")

    def test_exclusive_blocks_shared(self):
        locks = LockManager(timeout=0.2)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, "r", LockMode.SHARED)

    def test_reentrant_and_upgrade(self):
        locks = LockManager(timeout=0.2)
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)  # sole holder may upgrade
        assert locks.holds(1, "r")

    def test_release_all_unblocks(self):
        locks = LockManager(timeout=2.0)
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def contender():
            locks.acquire(2, "r", LockMode.EXCLUSIVE)
            acquired.set()

        thread = threading.Thread(target=contender)
        thread.start()
        locks.release_all(1)
        thread.join(timeout=2)
        assert acquired.is_set()

    def test_deadlock_detection(self):
        locks = LockManager(timeout=5.0)
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(2, "b", LockMode.EXCLUSIVE)
        failures = []

        def txn1():
            try:
                locks.acquire(1, "b", LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError) as error:
                failures.append(error)
                locks.release_all(1)

        def txn2():
            try:
                locks.acquire(2, "a", LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError) as error:
                failures.append(error)
                locks.release_all(2)

        threads = [threading.Thread(target=txn1), threading.Thread(target=txn2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=6)
        assert any(isinstance(error, DeadlockError) for error in failures)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            LockManager().acquire(1, "r", "Z")

    def test_held_resources(self):
        locks = LockManager(timeout=0.2)
        locks.acquire(1, "a", LockMode.SHARED)
        locks.acquire(1, "b", LockMode.EXCLUSIVE)
        assert locks.held_resources(1) == {"a", "b"}
        locks.release_all(1)
        assert locks.held_resources(1) == set()

