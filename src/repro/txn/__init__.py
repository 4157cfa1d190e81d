"""Transactions: MVCC snapshot isolation, SERIALIZABLE by commit-time
validation (challenge 6)."""

from repro.txn.manager import IsolationLevel, Transaction, TransactionManager

__all__ = [
    "IsolationLevel",
    "Transaction",
    "TransactionManager",
]
