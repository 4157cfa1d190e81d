"""Checkpoints: bounding recovery time and log growth.

A checkpoint materializes the committed state (every namespace of the row
view) plus the covering LSN into one JSON file.  Recovery then becomes
*load checkpoint + replay the WAL tail*, and the WAL can be truncated up to
the checkpoint LSN — the standard protocol, applied to the central logical
log.

Checkpoints must be taken at a quiescent point (no active transactions);
:meth:`Checkpointer.write` asserts this via the transaction manager when
one is supplied.  Because the engine publishes a transaction's writes to
the log atomically (writes + COMMIT appended back-to-back under the commit
mutex), any LSN between transactions is a consistent cut.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Optional

from repro.core.datamodel import canonical_json
from repro.errors import RecoveryError, SimulatedCrash
from repro.fault import io as fault_io
from repro.fault import registry as fault_registry
from repro.obs import metrics as obs_metrics
from repro.storage.log import CentralLog, LogOp
from repro.storage.views import RowView
from repro.storage.wal import WriteAheadLog

__all__ = [
    "snapshot_image",
    "load_image",
    "write_checkpoint",
    "load_checkpoint",
    "recover_from_checkpoint",
    "truncate_wal",
]

_FORMAT_VERSION = 1

_CHECKPOINTS_WRITTEN = obs_metrics.counter("checkpoints_written_total")
_RECOVERY_RUNS = obs_metrics.counter("recovery_runs_total")

# Failpoint sites on the checkpoint publish path.  A crash at any of them
# must leave either the previous checkpoint or no checkpoint — never a
# truncated one (write-tmp + fsync + rename + dir fsync).
_FP_WRITE = fault_registry.register(
    "checkpoint.write", "writing the checkpoint JSON to the temp file"
)
_FP_FSYNC = fault_registry.register(
    "checkpoint.fsync", "fsync of the temp checkpoint file"
)
_FP_RENAME = fault_registry.register(
    "checkpoint.rename", "atomic rename of temp over the checkpoint"
)
_FP_DIR_FSYNC = fault_registry.register(
    "checkpoint.dir_fsync", "directory fsync making the rename durable"
)


def snapshot_image(rows: RowView, log: CentralLog) -> dict:
    """The committed state as ``{"lsn", "namespaces"}``: every namespace of
    the row view as ``[key, value]`` pairs, and the LSN they are current at.
    The caller holds off writers (quiescent point or commit mutex) so the
    two belong to one cut.  A checkpoint file and a replica's snapshot
    bootstrap are both this image."""
    return {
        "lsn": log.last_lsn,
        "namespaces": {
            namespace: [[key, value] for key, value in rows.scan(namespace)]
            for namespace in rows.namespaces()
        },
    }


def load_image(
    log: CentralLog, namespaces: dict, rows: Optional[RowView] = None
) -> int:
    """Bring *log* to an image's state; returns the record count.  Into an
    empty log that is one INSERT a row (its subscribers — the storage views
    — materialize them).  Given *rows*, the row view of a log that already
    holds state, it is the difference only: an UPDATE where the value is
    another, a DELETE for what the image no longer has."""
    loaded = 0
    if rows is not None:
        for namespace in set(rows.namespaces()) - set(namespaces):
            log.append(0, LogOp.DROP_NAMESPACE, namespace)
            loaded += 1
    for namespace, pairs in namespaces.items():
        held = dict(rows.scan(namespace)) if rows is not None else {}
        for key, value in pairs:
            before = held.pop(key, None)
            if before is None:
                log.append(0, LogOp.INSERT, namespace, key, value)
            elif canonical_json(before) != canonical_json(value):
                log.append(0, LogOp.UPDATE, namespace, key, value, before)
            else:
                continue
            loaded += 1
        for key, before in held.items():
            log.append(0, LogOp.DELETE, namespace, key, None, before)
            loaded += 1
    return loaded


def write_checkpoint(
    path: str,
    rows: RowView,
    log: CentralLog,
    transactions: Any = None,
) -> int:
    """Write a checkpoint file covering everything up to the current LSN;
    returns that LSN.  Refuses when transactions are still active."""
    if transactions is not None and transactions.active_count:
        raise RecoveryError(
            f"cannot checkpoint with {transactions.active_count} active "
            "transaction(s)"
        )
    snapshot = {"version": _FORMAT_VERSION, **snapshot_image(rows, log)}
    lsn = snapshot["lsn"]
    # Crash-safe publish: write the whole snapshot to a temp file, fsync it
    # (the bytes, not just the metadata, must be on disk *before* the
    # rename), atomically rename over the live checkpoint, then fsync the
    # directory so the rename itself survives a power cut.  A crash at any
    # point leaves either the old checkpoint or none — never a torn one.
    temp_path = path + ".tmp"
    try:
        with open(temp_path, "w", encoding="utf-8") as handle:
            fault_io.write(handle, canonical_json(snapshot), _FP_WRITE)
            fault_io.fsync(handle, _FP_FSYNC)
        fault_io.rename(temp_path, path, _FP_RENAME)
    except SimulatedCrash:
        # A crashed process cannot clean up: the orphan temp file stays on
        # disk, and recovery must (and does) ignore it.
        raise
    except BaseException:
        # Leave no stale temp file behind on a recoverable failure.
        with contextlib.suppress(OSError):
            os.remove(temp_path)
        raise
    fault_io.dir_fsync(path, _FP_DIR_FSYNC)
    if obs_metrics.ENABLED:
        _CHECKPOINTS_WRITTEN.inc()
    return lsn


def load_checkpoint(path: str) -> tuple[int, dict]:
    """Read a checkpoint file; returns (covered lsn, {namespace: pairs})."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except FileNotFoundError:
        return 0, {}
    except json.JSONDecodeError as error:
        raise RecoveryError(f"corrupt checkpoint {path!r}: {error}") from error
    if snapshot.get("version") != _FORMAT_VERSION:
        raise RecoveryError(
            f"checkpoint {path!r} has version {snapshot.get('version')!r}, "
            f"expected {_FORMAT_VERSION}"
        )
    return snapshot["lsn"], snapshot["namespaces"]


def recover_from_checkpoint(
    checkpoint_path: str,
    wal_path: str,
    log: CentralLog,
) -> tuple[int, int]:
    """Rebuild state into *log*: checkpoint contents first, then the WAL
    tail (committed transactions with lsn beyond the checkpoint).

    Returns (records from checkpoint, records redone from the WAL tail).
    """
    if obs_metrics.ENABLED:
        _RECOVERY_RUNS.inc()
    covered_lsn, namespaces = load_checkpoint(checkpoint_path)
    from_checkpoint = load_image(log, namespaces)

    records = [
        record
        for record in WriteAheadLog.read_records(wal_path)
        if record["lsn"] > covered_lsn
    ]
    committed = {
        record["txn"] for record in records if record["op"] == LogOp.COMMIT.value
    }
    aborted = {
        record["txn"] for record in records if record["op"] == LogOp.ABORT.value
    }
    data_ops = {LogOp.INSERT.value, LogOp.UPDATE.value, LogOp.DELETE.value}
    redone = 0
    for record in records:
        if record["op"] in data_ops:
            if record["txn"] in committed and record["txn"] not in aborted:
                log.append(
                    record["txn"],
                    LogOp(record["op"]),
                    record["ns"],
                    record["key"],
                    record["value"],
                    record["before"],
                )
                redone += 1
        elif record["op"] == LogOp.DROP_NAMESPACE.value:
            log.append(record["txn"], LogOp.DROP_NAMESPACE, record["ns"])
    return from_checkpoint, redone


def truncate_wal(wal_path: str, up_to_lsn: int) -> int:
    """Drop WAL records covered by a checkpoint; returns how many were
    dropped.  Rewrites the file atomically."""
    kept_lines = []
    dropped = 0
    for record in WriteAheadLog.read_records(wal_path):
        if record["lsn"] > up_to_lsn:
            kept_lines.append(record)
        else:
            dropped += 1
    temp_path = wal_path + ".tmp"
    with WriteAheadLog(temp_path, sync=False) as wal:
        for record in kept_lines:
            wal.append(
                record["lsn"],
                record["txn"],
                record["op"],
                record["ns"],
                record["key"],
                record["value"],
                record["before"],
            )
    os.replace(temp_path, wal_path)
    return dropped
