"""Replica-side apply: replay shipped WAL records into a local database.

The primary's central log has a useful shape: a transaction's data
operations are published **atomically at commit time** (under the
transaction-manager mutex), immediately followed by their ``COMMIT``
marker, so committed blocks are contiguous in LSN order and only
``ABORT``/structural/``CHECKPOINT`` markers appear between them.  The
applier exploits that:

* records stream in strict LSN order; at most **one** commit block can be
  open (partially received, its COMMIT still in flight) at a time;
* an open block is buffered and applied as a unit when its COMMIT
  arrives — appended through the replica's own
  :class:`~repro.storage.log.CentralLog`, the exact path crash recovery
  (:func:`repro.storage.wal.replay_into`) uses, so the replica's storage
  views, WAL shadow and checkpoints all see replicated writes the same
  way they see local ones;
* marker records are appended as-is, keeping the replica log **LSN-aligned**
  with the primary — the property that makes a promoted replica's log a
  drop-in continuation for its peers.

Two watermarks, both in *primary* LSNs:

* ``received_lsn`` — every record processed (buffered or applied).  The
  re-subscribe position after a reconnect, and the duplicate filter: a
  retransmitted or duplicated frame's records fall at or below it and are
  skipped, which is what makes apply **idempotent** (the chaos harness's
  ``duplicate_frame`` effect leans on this).
* ``applied_lsn`` — the prefix actually applied: equals ``received_lsn``
  unless a block is open, in which case it stops just before the block.
  This is the watermark ``bounded`` reads wait on.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import ReplicationError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.storage.checkpoint import load_image
from repro.storage.log import LogOp

__all__ = ["ReplicationApplier"]

_DATA_OPS = frozenset(
    (LogOp.INSERT.value, LogOp.UPDATE.value, LogOp.DELETE.value)
)


class ReplicationApplier:
    """Applies shipped WAL-record dicts into one :class:`MultiModelDB`.

    Thread-safety: :meth:`apply_records` runs on the puller thread while
    ``repl_wait``/``repl_status`` read the watermarks from the server's
    session threads, so watermark updates happen under a small lock and the
    read side uses :meth:`watermarks`.
    """

    def __init__(self, db, name: str = "replica"):
        self.db = db
        self.name = name
        self._lock = threading.Lock()
        self._received_lsn = 0
        self._applied_lsn = 0
        #: The open commit block: records of one transaction whose COMMIT
        #: marker has not arrived yet.
        self._pending: list[dict] = []
        self._records_applied = 0
        self._diverged = False

    # -- watermarks ----------------------------------------------------------

    @property
    def received_lsn(self) -> int:
        return self._received_lsn

    @property
    def applied_lsn(self) -> int:
        return self._applied_lsn

    def watermarks(self) -> dict:
        with self._lock:
            return {
                "received_lsn": self._received_lsn,
                "applied_lsn": self._applied_lsn,
                "pending_records": len(self._pending),
                "records_applied": self._records_applied,
                "diverged": self._diverged,
            }

    def bootstrap(self, lsn: int) -> None:
        """Anchor the watermarks at the local log position before the first
        subscription: a freshly provisioned replica's log already holds its
        own DDL entries, and (by the provisioning contract) the primary's
        log holds the same ones at the same LSNs — shipping starts after
        them."""
        with self._lock:
            if self._received_lsn == 0:
                self._received_lsn = lsn
                self._applied_lsn = lsn

    def load_snapshot(self, lsn: int, namespaces: dict) -> int:
        """Snapshot bootstrap: become the primary's row image taken at
        *lsn*.  An empty replica loads it as INSERTs; one that holds state
        (it fell below the primary's floor) appends only what differs, and
        an open block goes — the image has its transaction or never will.
        The local log is then fast-forwarded to *lsn*, so the records
        streamed next land on the LSNs they carry and the replica stays
        LSN-aligned — promotable — exactly as if it had replayed the
        history it never saw.  Returns the number of records appended."""
        context = self.db.context
        with context.transactions.exclusive():
            self._pending = []
            stateful = context.log.last_lsn > 0
            loaded = load_image(
                context.log, namespaces, context.rows if stateful else None
            )
            context.log.fast_forward(lsn)
        with self._lock:
            self._received_lsn = self._applied_lsn = lsn
            self._records_applied += loaded
        obs_events.emit(
            "replica_snapshot_loaded",
            replica=self.name, lsn=lsn, rows=loaded, resync=stateful,
        )
        return loaded

    def sync_catalog(self, entries: list) -> list:
        """Materialize catalog objects this replica is missing.

        DDL is not logged, so the primary ships a catalog snapshot with
        every ``wal_subscribe`` response (its "base backup"); anything
        the snapshot names that the local catalog lacks is created here
        — before any shipped record is applied, so the new store sees
        every subsequent log append.  Schema-less entries (a wide-column
        table whose UDT spec did not survive the wire) are skipped; an
        already-present name is left exactly as it is.  Returns the list
        of names created."""
        existing = set(self.db.catalog())
        created = []
        for entry in entries or ():
            name, kind = entry.get("name"), entry.get("kind")
            if not isinstance(name, str) or name in existing:
                continue
            try:
                self._create_from_snapshot(name, kind, entry.get("schema"))
            except Exception as error:
                obs_events.emit(
                    "replica_catalog_sync_failed",
                    replica=self.name, object=name, kind=kind,
                    error=type(error).__name__,
                )
                continue
            created.append(name)
        if created:
            obs_events.emit(
                "replica_catalog_synced", replica=self.name, created=created
            )
        return created

    def _create_from_snapshot(self, name: str, kind, schema) -> None:
        if kind == "collection":
            self.db.create_collection(name)
        elif kind == "bucket":
            self.db.create_bucket(name)
        elif kind == "graph":
            self.db.create_graph(name)
        elif kind == "trees":
            self.db.create_tree_store(name)
        elif kind == "triples":
            self.db.create_triple_store(name)
        elif kind == "objects":
            self.db.create_object_store(name)
        elif kind == "spatial":
            self.db.create_spatial(name)
        elif kind == "table" and isinstance(schema, dict):
            from repro.relational.schema import Column, TableSchema

            self.db.create_table(TableSchema(
                name,
                [
                    Column(
                        column["name"],
                        column.get("type", "json"),
                        nullable=column.get("nullable", True),
                        default=column.get("default"),
                    )
                    for column in schema["columns"]
                ],
                primary_key=schema["primary_key"],
            ))
        elif kind == "wide" and isinstance(schema, dict):
            from repro.widecolumn.table import CqlColumn

            self.db.create_wide_table(
                name,
                [
                    CqlColumn(column["name"], column["spec"])
                    for column in schema["columns"]
                ],
                primary_key=schema["primary_key"],
            )
        else:
            raise ReplicationError(
                f"catalog snapshot entry {name!r} has kind {kind!r} "
                "without a usable schema"
            )

    # -- applying ------------------------------------------------------------

    def apply_records(self, records: list[dict]) -> int:
        """Apply one shipped batch; returns how many records were fresh.

        Records at or below ``received_lsn`` are duplicates (retransmit,
        duplicated frame) and are skipped.  A gap above ``received_lsn``
        means the subscription lost records — that is unrecoverable
        drift, so it raises :class:`ReplicationError` (the puller
        re-subscribes from its watermark, which repairs an honest
        disconnect; a gap that survives that is a real bug).
        """
        fresh = 0
        for record in records:
            lsn = record.get("lsn")
            if not isinstance(lsn, int):
                raise ReplicationError(
                    f"shipped record without an integer lsn: {record!r}"
                )
            if lsn <= self._received_lsn:
                continue  # duplicate delivery: already buffered or applied
            if lsn != self._received_lsn + 1 and self._received_lsn:
                raise ReplicationError(
                    f"gap in shipped WAL stream: expected lsn "
                    f"{self._received_lsn + 1}, got {lsn}"
                )
            self._ingest(record)
            fresh += 1
        if fresh and obs_metrics.ENABLED:
            obs_metrics.counter(
                "wal_records_applied_total", replica=self.name
            ).inc(fresh)
        return fresh

    def _ingest(self, record: dict) -> None:
        op = record["op"]
        txn = record.get("txn", 0)
        if op in _DATA_OPS:
            if self._pending and self._pending[0].get("txn") != txn:
                # Cannot happen with an honest primary (blocks are
                # contiguous); flush defensively so we never deadlock on a
                # block whose COMMIT will never come.
                self._note_divergence(
                    "interleaved data records", record
                )
                self._flush_block(commit_record=None)
            self._pending.append(record)
            with self._lock:
                self._received_lsn = record["lsn"]
            return
        if op == LogOp.COMMIT.value:
            self._pending.append(record)
            self._flush_block(commit_record=record)
            return
        if op == LogOp.ABORT.value and self._pending:
            # The open block's transaction aborted?  Primaries never ship
            # that (aborted ops are not published), so treat it as a
            # marker between blocks; drop nothing.
            self._note_divergence("abort while block open", record)
        # Marker / structural records (ABORT, CHECKPOINT, namespace DDL)
        # apply immediately to keep LSN alignment.
        self._append_marker(record)
        with self._lock:
            self._received_lsn = record["lsn"]
            self._applied_lsn = (
                record["lsn"] if not self._pending else self._applied_lsn
            )
            self._records_applied += 1

    def _flush_block(self, commit_record: Optional[dict]) -> None:
        """Append the buffered block (data ops + COMMIT) to the local log
        as one contiguous run, mirroring the primary's atomic publish."""
        block, self._pending = self._pending, []
        context = self.db.context
        # Under the commit mutex, like a local transaction's publish: a
        # snapshot taken from this node (it may feed replicas of its own)
        # cuts between blocks, not through one.
        with context.transactions.exclusive():
            for record in block:
                self._append_record(context.log, record)
        last = block[-1]["lsn"]
        with self._lock:
            self._received_lsn = max(self._received_lsn, last)
            self._applied_lsn = self._received_lsn
            self._records_applied += len(block)

    def _append_marker(self, record: dict) -> None:
        context = self.db.context
        with context.transactions.exclusive():
            self._append_record(context.log, record)

    def _append_record(self, log, record: dict) -> None:
        entry = log.append(
            record.get("txn", 0),
            LogOp(record["op"]),
            record.get("ns", ""),
            record.get("key"),
            record.get("value"),
            record.get("before"),
        )
        if entry.lsn != record["lsn"]:
            self._note_divergence(
                f"local lsn {entry.lsn} != shipped lsn {record['lsn']}",
                record,
            )

    def _note_divergence(self, why: str, record: dict) -> None:
        if self._diverged:
            return
        self._diverged = True
        obs_events.emit(
            "replication_divergence",
            replica=self.name,
            reason=why,
            lsn=record.get("lsn"),
        )

    # -- lifecycle -----------------------------------------------------------

    def reset_pending(self) -> int:
        """Drop the open block (promotion path: a block whose COMMIT never
        arrived belongs to a transaction the dead primary never committed,
        so discarding it is exactly what crash recovery would do).
        Returns how many records were dropped."""
        with self._lock:
            dropped, self._pending = len(self._pending), []
            # The dropped records were counted as received; rewind so a
            # later subscription re-fetches them if a new primary has them.
            self._received_lsn = self._applied_lsn
            return dropped

    def set_lag(self, ship_ts: float) -> None:
        """Record replication lag from a ship frame's primary timestamp."""
        if obs_metrics.ENABLED:
            obs_metrics.gauge(
                "replication_lag_seconds", replica=self.name
            ).set(max(time.time() - ship_ts, 0.0))
            obs_metrics.gauge(
                "replication_applied_lsn", replica=self.name
            ).set(self._applied_lsn)
