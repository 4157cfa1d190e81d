"""Write-ahead log with redo recovery.

The tutorial's multi-model pitch (slide 23) includes "one system implements
fault tolerance".  This module provides that for the whole engine: every
logical change is written to a WAL file *before* it is acknowledged, commits
append a commit record, and :func:`recover` rebuilds a consistent central
log from the file by redoing exactly the operations of committed
transactions — uncommitted tails are discarded (redo-only, no undo needed,
because views are rebuilt from scratch on recovery).

Records are length-free JSON lines prefixed with a CRC32 checksum; a torn
final line (simulated crash mid-write) is detected and dropped.

**Durability contract.**  The WAL is written one *unit* at a time — what one
central-log call publishes: a transaction's data records followed by its
COMMIT, or a single structural / checkpoint / ABORT record.  The central log
hands the unit over *before* it takes the entries itself or shows them to a
view (:attr:`CentralLog.write_ahead`).  A unit is encoded, handed to the
file in one ``write`` and, with ``sync=True``, made durable by one flush +
fsync before the call (and therefore ``commit()``) returns; ``sync=False``
never fsyncs on append.  So every record of a transaction reaches the file
no later than its COMMIT record, and a crash anywhere inside the unit leaves
data records without a COMMIT (recovery discards them) or a torn last line
(dropped) — never a COMMIT ahead of its data.  A unit whose write or fsync
raised was not published: the log, the views and the replicas never see it.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any, Iterator, Optional

from repro.errors import WalError
from repro.fault import io as fault_io
from repro.fault import registry as fault_registry
from repro.obs import metrics as obs_metrics
from repro.storage.log import CentralLog, LogOp

__all__ = ["WriteAheadLog", "entry_to_record", "recover", "replay_into"]

# ``canonical_json``'s encoder without its ``normalize`` walk: every value
# reaches the log normalized by the store that made it, so the lines are
# byte-identical (``Infinity`` included — the model admits ±inf).
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Module-level metric handles: created once, cheap to touch, survive
# registry resets.
_WAL_APPENDS = obs_metrics.counter("wal_appends_total")
_WAL_FSYNCS = obs_metrics.counter("wal_fsyncs_total")
_WAL_APPEND_SECONDS = obs_metrics.histogram("wal_append_seconds")
_WAL_REPLAYED = obs_metrics.counter("wal_records_replayed_total")
_RECOVERY_RUNS = obs_metrics.counter("recovery_runs_total")
_WAL_CRC_FAILURES = obs_metrics.counter("wal_crc_failures_total")

# Failpoint sites on the WAL durability path (see docs/ROBUSTNESS.md).
_FP_APPEND_WRITE = fault_registry.register(
    "wal.append.write", "writing one WAL record line"
)
_FP_APPEND_FSYNC = fault_registry.register(
    "wal.append.fsync", "the one fsync per appended unit (sync=True)"
)
# The torn-commit window of a transaction's unit: its data lines are in the
# file, its COMMIT line is not.  Named for the commit it interrupts.
_FP_COMMIT_MID = fault_registry.register(
    "txn.commit.mid_publish", "after data records, before the COMMIT record"
)
_FP_FLUSH_FSYNC = fault_registry.register(
    "wal.flush.fsync", "explicit WriteAheadLog.flush()"
)
_FP_CLOSE_FSYNC = fault_registry.register(
    "wal.close.fsync", "final fsync on clean close"
)


class WriteAheadLog:
    """Durable, append-only JSON-line WAL.

    ``sync=True`` makes each appended unit durable before the call returns;
    ``sync=False`` never fsyncs on append (the benchmark harness toggles it
    to show the durability/throughput trade-off).
    """

    def __init__(self, path: str, sync: bool = True):
        self.path = path
        self._sync = sync
        self._file = open(path, "a", encoding="utf-8")

    # -- writing -------------------------------------------------------------

    def append(
        self,
        lsn: int,
        txn_id: int,
        op: str,
        namespace: str = "",
        key: Any = None,
        value: Any = None,
        before: Any = None,
    ) -> None:
        """Append one WAL record as a unit of its own."""
        self._write_unit([dict(
            lsn=lsn, txn=txn_id, op=op, ns=namespace, key=key, value=value,
            before=before,
        )])

    def log_group(self, entries) -> None:
        """Adapter: set this as :attr:`CentralLog.write_ahead` to make each
        unit durable before the log publishes it."""
        self._write_unit([entry_to_record(entry) for entry in entries])

    def _write_unit(self, records: list[dict]) -> None:
        """One write, and with ``sync`` one flush + fsync, for *records*."""
        enabled = obs_metrics.ENABLED
        start = time.perf_counter() if enabled else 0.0
        lines = []
        for record in records:
            payload = _encode(record)
            checksum = zlib.crc32(payload.encode("utf-8"))
            lines.append(f"{checksum:08x} {payload}\n")
        if _FP_APPEND_WRITE.armed or _FP_COMMIT_MID.armed:
            # Record by record, so a fault can land at any position in the
            # unit; a crash flushes what precedes it, as the OS might.
            for record, line in zip(records, lines):
                if record["op"] == LogOp.COMMIT.value and _FP_COMMIT_MID.armed:
                    self._file.flush()
                    _FP_COMMIT_MID.check()
                fault_io.write(self._file, line, _FP_APPEND_WRITE)
        else:
            self._file.write("".join(lines))
        if self._sync:
            if _FP_APPEND_FSYNC.armed:
                fault_io.fsync(self._file, _FP_APPEND_FSYNC)
            else:
                self._file.flush()
                os.fsync(self._file.fileno())
            if enabled:
                _WAL_FSYNCS.inc()
        if enabled:
            _WAL_APPENDS.inc(len(lines))
            _WAL_APPEND_SECONDS.observe(time.perf_counter() - start)

    def flush(self) -> None:
        fault_io.fsync(self._file, _FP_FLUSH_FSYNC)
        if obs_metrics.ENABLED:
            _WAL_FSYNCS.inc()

    def close(self) -> None:
        """Fsync, then close.  A clean shutdown must leave the tail durable:
        flush-without-fsync hands the bytes to the OS but survives neither a
        power cut nor the torture harness's crash simulation."""
        if not self._file.closed:
            fault_io.fsync(self._file, _FP_CLOSE_FSYNC)
            if obs_metrics.ENABLED:
                _WAL_FSYNCS.inc()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -------------------------------------------------------------

    @staticmethod
    def read_records(path: str, strict: bool = False) -> Iterator[dict]:
        """Yield WAL records from *path*, verifying checksums.

        Corruption semantics, pinned down:

        * **Mid-file corruption** — a bad line *followed by valid records* —
          always raises :class:`WalError`, regardless of ``strict``: it
          cannot be a crash artifact (appends are sequential), so the log
          is damaged and redo from it would be unsound.
        * **Tail corruption** — bad line(s) at the very end — is the
          expected signature of a crash mid-append.  By default the torn
          tail is silently dropped and the stream ends; with
          ``strict=True`` it raises instead (for integrity audits that
          must distinguish "cleanly closed" from "crashed").
        """
        if not os.path.exists(path):
            return
        pending_bad: Optional[int] = None
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                record = WriteAheadLog._parse_line(line)
                if record is None:
                    if pending_bad is None:
                        pending_bad = line_number
                    continue
                if pending_bad is not None:
                    raise WalError(
                        f"corrupt WAL record at line {pending_bad} of {path} "
                        "followed by valid records (mid-file corruption)"
                    )
                yield record
        if pending_bad is not None and strict:
            raise WalError(
                f"corrupt WAL tail at line {pending_bad} of {path} "
                "(crash artifact; re-read with strict=False to drop it)"
            )

    @staticmethod
    def _parse_line(line: str) -> Optional[dict]:
        parts = line.split(" ", 1)
        if len(parts) != 2 or len(parts[0]) != 8:
            return None
        try:
            checksum = int(parts[0], 16)
        except ValueError:
            return None
        if zlib.crc32(parts[1].encode("utf-8")) != checksum:
            if obs_metrics.ENABLED:
                _WAL_CRC_FAILURES.inc()
            return None
        try:
            record = json.loads(parts[1])
        except json.JSONDecodeError:
            return None
        return record if isinstance(record, dict) else None


def entry_to_record(entry) -> dict:
    """A :class:`~repro.storage.log.LogEntry` as the JSON-safe WAL-record
    dict the wire ships (the same shape :meth:`WriteAheadLog.append` logs
    and :func:`replay_into` consumes)."""
    return {
        "lsn": entry.lsn,
        "txn": entry.txn_id,
        "op": entry.op.value,
        "ns": entry.namespace,
        "key": entry.key,
        "value": entry.value,
        "before": entry.before,
    }


def replay_into(path: str, log: CentralLog) -> tuple[int, int]:
    """Redo recovery: replay the committed transactions of the WAL at *path*
    into *log* (whose subscribers — the storage views — rebuild themselves).

    Returns ``(redone_ops, discarded_ops)``.  Operations of transactions
    without a commit record are discarded; aborted transactions likewise.

    The WAL is streamed twice — once for the transaction outcomes, once to
    redo — so recovery holds the outcome sets and one record, never the
    whole log as dicts beside the state it rebuilds.  The first pass reads
    to the end, so a mid-file corruption still raises before anything is
    replayed.
    """
    if obs_metrics.ENABLED:
        _RECOVERY_RUNS.inc()
    committed = set()
    aborted = set()
    for record in WriteAheadLog.read_records(path):
        if record["op"] == LogOp.COMMIT.value:
            committed.add(record["txn"])
        elif record["op"] == LogOp.ABORT.value:
            aborted.add(record["txn"])
    redone = 0
    discarded = 0
    data_ops = {LogOp.INSERT.value, LogOp.UPDATE.value, LogOp.DELETE.value}
    structural = {LogOp.CREATE_NAMESPACE.value, LogOp.DROP_NAMESPACE.value}
    for record in WriteAheadLog.read_records(path):
        op = record["op"]
        if op in data_ops:
            if record["txn"] in committed and record["txn"] not in aborted:
                log.append(
                    record["txn"],
                    LogOp(op),
                    record["ns"],
                    record["key"],
                    record["value"],
                    record["before"],
                )
                redone += 1
            else:
                discarded += 1
        elif op in structural:
            log.append(record["txn"], LogOp(op), record["ns"])
    if obs_metrics.ENABLED:
        _WAL_REPLAYED.inc(redone)
    return redone, discarded


def recover(path: str) -> tuple[CentralLog, int, int]:
    """Build a fresh central log from the WAL at *path*.

    Convenience wrapper: callers attach their views to the returned log by
    calling ``view.catch_up()`` after construction, or pass the log to a new
    engine instance.
    """
    log = CentralLog()
    redone, discarded = replay_into(path, log)
    return log, redone, discarded
