"""MVCC transaction manager — cross-model ACID (challenge 6).

The tutorial's strongest argument for multi-model over polyglot persistence
(slides 9 and 23) is that *one* system can "guarantee inter-model data
consistency": a single transaction may touch the customer relation, the
shopping-cart key/value pair, the order document and the social graph, and
either all of it commits or none.  Because every model in this engine writes
through the same central log, that guarantee falls out of one transaction
manager.

Design:

* **Snapshot isolation (default)** — each transaction reads the newest
  version committed at or before its begin timestamp plus its own buffered
  writes; at commit, first-committer-wins write-write conflict detection
  raises :class:`SerializationError`.
* **Serializable** — snapshot isolation plus validation at commit
  (Neumann et al., SIGMOD 2015): a writer aborts with
  :class:`SerializationError` if a key it read by point, or a namespace it
  read any other way (every such read runs :meth:`changed`), has a commit
  since it began.  That closes write skew; a read-only transaction commits
  unchecked, its snapshot being a prefix of the commit order.
* **Read committed** — reads always see the newest committed version
  (no stable snapshot), writes conflict-checked only against concurrent
  commits to the same key after the *write*, i.e. last-committer-wins is
  prevented but non-repeatable reads are allowed.

Writes are buffered in the transaction's write set and only hit the central
log at commit — so storage views (and therefore every model API and the
query engine) only ever see committed data, and abort is trivial.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Any, Iterator, Optional

from repro.errors import (
    InvalidTransactionStateError,
    SerializationError,
)
from repro.fault import registry as fault_registry
from repro.obs import metrics as obs_metrics
from repro.storage.log import CentralLog, LogOp

__all__ = ["IsolationLevel", "Transaction", "TransactionManager"]

_TXN_BEGINS = obs_metrics.counter("txn_begins_total")
_TXN_COMMITS = obs_metrics.counter("txn_commits_total")
_TXN_ABORTS = obs_metrics.counter("txn_aborts_total")
_TXN_CONFLICTS = obs_metrics.counter("txn_conflicts_total")
_TXN_ACTIVE = obs_metrics.gauge("txn_active")
_TXN_COMMIT_SECONDS = obs_metrics.histogram("txn_commit_seconds")

# Failpoint sites bracketing the commit publish: ``begin`` fires after
# validation (nothing published), ``end`` fires after the COMMIT record (the
# transaction is durable even though commit() never returned).  The window
# between them — data records written, COMMIT record not, recovery must
# discard the transaction — exists only inside the WAL's write of the unit,
# so ``txn.commit.mid_publish`` is a site of :mod:`repro.storage.wal`.
_FP_COMMIT_BEGIN = fault_registry.register(
    "txn.commit.begin", "after validation, before any log append"
)
_FP_COMMIT_END = fault_registry.register(
    "txn.commit.end", "after the COMMIT record, before commit() returns"
)


class IsolationLevel(enum.Enum):
    READ_COMMITTED = "read_committed"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"


class _TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class _Version:
    """One committed version of a record, linked to the one it replaced."""

    commit_ts: int
    value: Any  # None encodes deletion
    older: Optional["_Version"] = None


def _chain(version: Optional[_Version]) -> Iterator[_Version]:
    """*version* and every older one it links to, newest first."""
    while version is not None:
        yield version
        version = version.older


@dataclass
class _PendingWrite:
    op: LogOp
    value: Any
    before: Any


@dataclass
class Transaction:
    """Handle for an open transaction.  Use through the manager (or the
    :class:`repro.core.database.MultiModelDB` session API)."""

    txn_id: int
    begin_ts: int
    isolation: IsolationLevel
    status: _TxnStatus = _TxnStatus.ACTIVE
    writes: dict[tuple[str, Any], _PendingWrite] = field(default_factory=dict)
    #: What a SERIALIZABLE transaction read: keys by point, else namespaces.
    read_keys: set[tuple[str, Any]] = field(default_factory=set)
    read_namespaces: set[str] = field(default_factory=set)

    @property
    def is_active(self) -> bool:
        return self.status is _TxnStatus.ACTIVE


class TransactionManager:
    """Versioned store + commit protocol over a central log."""

    def __init__(self, log: CentralLog, rows: Any):
        self._log = log
        #: The row view: what a key holds that no commit here versioned
        #: (WAL replay, a checkpoint load and a replica's apply install
        #: rows, not versions).
        self._rows = rows
        self._clock = 0  # logical timestamp: bumped on begin and commit
        self._next_txn_id = 1
        # namespace -> key -> the newest committed version of the record.
        self._versions: dict[str, dict[Any, _Version]] = {}
        self._active: dict[int, Transaction] = {}
        self._mutex = threading.RLock()
        self.commits = 0
        self.aborts = 0
        self.conflicts = 0

    # -- lifecycle -------------------------------------------------------------

    def begin(
        self, isolation: IsolationLevel | str = IsolationLevel.SNAPSHOT
    ) -> Transaction:
        if isinstance(isolation, str):
            isolation = IsolationLevel(isolation)
        with self._mutex:
            self._clock += 1
            txn = Transaction(
                txn_id=self._next_txn_id,
                begin_ts=self._clock,
                isolation=isolation,
            )
            self._next_txn_id += 1
            self._active[txn.txn_id] = txn
            if obs_metrics.ENABLED:
                _TXN_BEGINS.inc()
                _TXN_ACTIVE.set(len(self._active))
            return txn

    def commit(self, txn: Transaction) -> None:
        """Validate, assign a commit timestamp, publish to the central log.

        The data records and the COMMIT record go to the log as one unit,
        which an attached WAL makes durable with one write and one fsync
        before this returns.  A transaction that wrote nothing finishes in
        memory: no log entry, no LSN, no WAL record.
        """
        self._require_active(txn)
        enabled = obs_metrics.ENABLED
        start = time.perf_counter() if enabled else 0.0
        with self._mutex:
            try:
                self._validate(txn)
            except SerializationError:
                self.conflicts += 1
                if enabled:
                    _TXN_CONFLICTS.inc()
                self._finish(txn, _TxnStatus.ABORTED)
                raise
            if _FP_COMMIT_BEGIN.armed:
                _FP_COMMIT_BEGIN.check()
            if txn.writes:
                self._publish(txn)
            self.commits += 1
            self._finish(txn, _TxnStatus.COMMITTED)
            if enabled:
                _TXN_COMMITS.inc()
                _TXN_COMMIT_SECONDS.observe(time.perf_counter() - start)
            # Fires after the COMMIT record: the transaction is durable (and
            # now committed in memory too) even though commit() never
            # returns — the crash-after-commit window.
            if _FP_COMMIT_END.armed:
                _FP_COMMIT_END.check()

    def _publish(self, txn: Transaction) -> None:
        """Log *txn*'s writes and COMMIT as one unit, then install its
        versions, pruning each written chain on the way."""
        self._clock += 1
        commit_ts = self._clock
        records = [
            (write.op, namespace, key, write.value, write.before, None)
            for (namespace, key), write in txn.writes.items()
        ]
        records.append((LogOp.COMMIT, "", None, None, None, None))
        try:
            self._log.append_group(txn.txn_id, records)
        except BaseException:
            # The unit was not made durable (an injected or real I/O
            # error), so — the log being write-ahead — no entry, view or
            # version holds any of it: finish as aborted, nothing to roll
            # back, no leaked active transaction.
            self.aborts += 1
            if obs_metrics.ENABLED:
                _TXN_ABORTS.inc()
            self._finish(txn, _TxnStatus.ABORTED)
            raise
        horizon = None
        for (namespace, key), write in txn.writes.items():
            value = None if write.op is LogOp.DELETE else write.value
            chains = self._versions.setdefault(namespace, {})
            older = chains.pop(key, None)  # re-inserted: in commit order
            if older is None and write.before is not None:
                # A row no commit here versioned (recovery, a replica's
                # apply) was there for every snapshot.
                older = _Version(0, write.before)
            chains[key] = _Version(commit_ts, value, older)
            # A lone live version has nothing to prune: a bulk load pays
            # for neither the horizon nor the call.
            if older is not None or value is None:
                if horizon is None:
                    horizon = self._horizon(finishing=txn)
                self._prune(chains, key, horizon)

    def exclusive(self):
        """The commit mutex, for ``with``: no transaction begins, publishes
        or aborts while it is held, so the log head and the row view read
        inside are one consistent cut (snapshot bootstrap of a replica)."""
        return self._mutex

    def abort(self, txn: Transaction) -> None:
        self._require_active(txn)
        with self._mutex:
            try:
                if txn.writes:
                    self._log.append(txn.txn_id, LogOp.ABORT)
            finally:
                # Even if the ABORT record cannot be logged (injected or
                # real I/O failure), the in-memory abort must complete:
                # recovery discards uncommitted records with or without it.
                self.aborts += 1
                if obs_metrics.ENABLED:
                    _TXN_ABORTS.inc()
                self._finish(txn, _TxnStatus.ABORTED)

    def _finish(self, txn: Transaction, status: _TxnStatus) -> None:
        txn.status = status
        self._active.pop(txn.txn_id, None)
        if obs_metrics.ENABLED:
            _TXN_ACTIVE.set(len(self._active))

    def _require_active(self, txn: Transaction) -> None:
        if not txn.is_active:
            raise InvalidTransactionStateError(
                f"transaction {txn.txn_id} is {txn.status.value}"
            )

    # -- reads -------------------------------------------------------------------

    def read(self, txn: Transaction, namespace: str, key: Any) -> Any:
        """Value of (namespace, key) visible to *txn* (None if absent)."""
        self._require_active(txn)
        pending = txn.writes.get((namespace, key))
        if pending is not None:
            return None if pending.op is LogOp.DELETE else pending.value
        if txn.isolation is IsolationLevel.SERIALIZABLE:
            txn.read_keys.add((namespace, key))
        with self._mutex:
            newest = self._newest(namespace, key)
            if newest is None:
                return self._rows.get(namespace, key)
            return self._visible_value(txn, newest)

    def changed(self, txn: Optional[Transaction], namespace: str) -> dict:
        """The visibility rule (DESIGN.md): each key *txn* may see otherwise
        than latest (committed since it began, not under READ COMMITTED, or
        written by it), mapped to the value it sees (None: no record).  Take
        it after the read it corrects: a commit that read saw is in it whole."""
        if txn is None:
            return {}
        self._require_active(txn)
        found = {}
        if txn.isolation is IsolationLevel.SERIALIZABLE:
            txn.read_namespaces.add(namespace)
        if txn.isolation is not IsolationLevel.READ_COMMITTED:
            with self._mutex:  # the chains are in commit order (_publish)
                chains = self._versions.get(namespace, {})
                new = takewhile(lambda key: chains[key].commit_ts > txn.begin_ts, reversed(chains))
                found = {key: self._visible_value(txn, chains[key]) for key in new}
        for (written, key), pending in txn.writes.items():
            if written == namespace:
                found[key] = None if pending.op is LogOp.DELETE else pending.value
        return found

    def _newest(self, namespace: str, key: Any) -> Optional[_Version]:
        chains = self._versions.get(namespace)
        return None if chains is None else chains.get(key)

    @staticmethod
    def _visible_value(txn: Transaction, version: Optional[_Version]) -> Any:
        """The value of the newest version in *version*'s chain that *txn*
        sees (read committed: the newest of all)."""
        if txn.isolation is not IsolationLevel.READ_COMMITTED:
            while version is not None and version.commit_ts > txn.begin_ts:
                version = version.older
        return None if version is None else version.value

    # -- writes -------------------------------------------------------------------

    def write(
        self, txn: Transaction, namespace: str, key: Any, value: Any
    ) -> None:
        """Buffer a write in the transaction; ``value=None`` deletes.

        The logged op follows from what the write replaces, the committed
        value (``before``): an INSERT replaces nothing, an UPDATE replaces
        ``before``.  So a delete and a re-insert of one key in one
        transaction log one UPDATE, and every log subscriber removes the
        old value's entries."""
        self._require_active(txn)
        before = self.read_committed_latest(namespace, key)
        if value is None:
            op = LogOp.DELETE
        else:
            op = LogOp.INSERT if before is None else LogOp.UPDATE
        txn.writes[(namespace, key)] = _PendingWrite(op, value, before)

    def delete(self, txn: Transaction, namespace: str, key: Any) -> None:
        self.write(txn, namespace, key, None)

    # -- validation ----------------------------------------------------------------

    def _validate(self, txn: Transaction) -> None:
        """First-committer-wins: abort if any written key has a version
        committed after this transaction began.  A SERIALIZABLE writer also
        aborts if a key it read has one, or a namespace it read (whose
        newest chain is its last: _publish keeps them in commit order)."""
        checks = [("write-write", txn.writes)]
        if txn.writes and txn.isolation is IsolationLevel.SERIALIZABLE:
            last = [(namespace, next(reversed(chains))) for namespace in txn.read_namespaces
                    if (chains := self._versions.get(namespace))]
            checks += [("read-write", txn.read_keys), ("read-write", last)]
        for kind, keys in checks:
            for namespace, key in keys:
                newest = self._newest(namespace, key)
                if newest is not None and newest.commit_ts > txn.begin_ts:
                    raise SerializationError(
                        f"{kind} conflict on {namespace}:{key!r} (committed at ts "
                        f"{newest.commit_ts} after this transaction began at ts "
                        f"{txn.begin_ts})"
                    )

    # -- helpers --------------------------------------------------------------------

    def read_committed_latest(self, namespace: str, key: Any) -> Any:
        newest = self._newest(namespace, key)
        if newest is not None:
            return newest.value
        return self._rows.get(namespace, key)

    def run(self, work, isolation=IsolationLevel.SNAPSHOT, retries: int = 0):
        """Execute ``work(txn)`` in a transaction; commit on success, abort
        on exception.  ``retries`` re-runs on serialization conflicts."""
        attempt = 0
        while True:
            txn = self.begin(isolation)
            try:
                result = work(txn)
            except BaseException:
                if txn.is_active:
                    self.abort(txn)
                raise
            try:
                self.commit(txn)
                return result
            except SerializationError:
                attempt += 1
                if attempt > retries:
                    raise

    def _horizon(self, finishing: Optional[Transaction] = None) -> int:
        """The oldest snapshot still being read from: the smallest begin
        timestamp among active transactions other than *finishing*."""
        others = (
            txn.begin_ts for txn in self._active.values() if txn is not finishing
        )
        return min(others, default=self._clock)

    def _prune(self, chains: dict, key: Any, horizon: int) -> int:
        """Cut *key*'s chain down to the newest version committed at or
        below *horizon* plus everything newer — what no active snapshot can
        read goes; a chain left with only a tombstone at or below the
        horizon goes whole.  Returns the number of versions dropped."""
        newest = kept = chains[key]
        while kept.commit_ts > horizon and kept.older is not None:
            kept = kept.older
        dropped = sum(1 for _ in _chain(kept.older))
        kept.older = None
        if kept is newest and kept.value is None and kept.commit_ts <= horizon:
            del chains[key]
            return dropped + 1
        return dropped

    def garbage_collect(self) -> int:
        """Drop versions no active transaction can see; returns the count.

        Commit prunes the chains it writes; this is the full sweep, for
        chains nobody writes again."""
        with self._mutex:
            horizon = self._horizon()
            return sum(
                self._prune(chains, key, horizon)
                for chains in self._versions.values()
                for key in list(chains)
            )

    def drop_namespace(self, namespace: str) -> None:
        """Forget every version chain of *namespace* (DDL path: truncate /
        drop collection).  The caller is responsible for the matching
        DROP_NAMESPACE entry in the central log."""
        with self._mutex:
            self._versions.pop(namespace, None)

    @property
    def version_count(self) -> int:
        chains = (chain for keys in self._versions.values() for chain in keys.values())
        return sum(1 for newest in chains for _ in _chain(newest))

    @property
    def active_count(self) -> int:
        return len(self._active)
