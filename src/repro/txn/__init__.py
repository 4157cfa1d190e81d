"""Transactions: MVCC snapshot isolation and 2PL (challenge 6)."""

from repro.txn.locks import LockManager, LockMode
from repro.txn.manager import IsolationLevel, Transaction, TransactionManager

__all__ = [
    "LockManager",
    "LockMode",
    "IsolationLevel",
    "Transaction",
    "TransactionManager",
]
