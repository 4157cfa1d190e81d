"""Checkpoint + WAL-tail recovery tests."""

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.errors import RecoveryError
from repro.storage.checkpoint import (
    load_checkpoint,
    recover_from_checkpoint,
    truncate_wal,
    write_checkpoint,
)
from repro.storage.log import CentralLog
from repro.storage.views import RowView
from repro.storage.wal import WriteAheadLog


def _schema():
    return TableSchema(
        "t",
        [Column("id", ColumnType.INTEGER, nullable=False),
         Column("v", ColumnType.INTEGER)],
        primary_key="id",
    )


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        db = MultiModelDB()
        db.create_table(_schema())
        for i in range(5):
            db.table("t").insert({"id": i, "v": i * 10})
        path = str(tmp_path / "ckpt.json")
        lsn = db.checkpoint(path)
        assert lsn == db.context.log.last_lsn
        loaded_lsn, namespaces = load_checkpoint(path)
        assert loaded_lsn == lsn
        assert len(namespaces["rel:t"]) == 5

    def test_missing_checkpoint_is_empty(self, tmp_path):
        lsn, namespaces = load_checkpoint(str(tmp_path / "nope.json"))
        assert (lsn, namespaces) == (0, {})

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(RecoveryError):
            load_checkpoint(str(path))

    def test_refuses_active_transactions(self, tmp_path):
        db = MultiModelDB()
        db.create_table(_schema())
        txn = db.begin()
        db.table("t").insert({"id": 1}, txn=txn)
        with pytest.raises(RecoveryError):
            db.checkpoint(str(tmp_path / "ckpt.json"))
        db.abort(txn)
        db.checkpoint(str(tmp_path / "ckpt.json"))  # now fine


class TestCheckpointedRecovery:
    def _run_phase_one(self, tmp_path):
        wal_path = str(tmp_path / "engine.wal")
        ckpt_path = str(tmp_path / "ckpt.json")
        db = MultiModelDB()
        db.attach_wal(wal_path)
        db.create_table(_schema())
        for i in range(10):
            db.table("t").insert({"id": i, "v": i})
        lsn = db.checkpoint(ckpt_path)
        # Post-checkpoint tail:
        db.table("t").update(0, {"v": 999})
        db.table("t").insert({"id": 10, "v": 10})
        txn = db.begin()
        db.table("t").insert({"id": 99, "v": -1}, txn=txn)  # never commits
        db.close()
        return wal_path, ckpt_path, lsn

    def test_recover_checkpoint_plus_tail(self, tmp_path):
        wal_path, ckpt_path, _lsn = self._run_phase_one(tmp_path)
        fresh = MultiModelDB()
        from_ckpt, redone = fresh.recover_from_checkpoint(ckpt_path, wal_path)
        fresh.create_table(_schema())
        assert from_ckpt == 10
        assert redone == 2
        assert fresh.table("t").count() == 11
        assert fresh.table("t").get(0)["v"] == 999
        assert fresh.table("t").get(99) is None

    def test_matches_full_wal_replay(self, tmp_path):
        wal_path, ckpt_path, _lsn = self._run_phase_one(tmp_path)

        via_ckpt = MultiModelDB()
        via_ckpt.recover_from_checkpoint(ckpt_path, wal_path)
        via_wal = MultiModelDB()
        via_wal.recover(wal_path)

        state_a = dict(via_ckpt.context.rows.scan("rel:t"))
        state_b = dict(via_wal.context.rows.scan("rel:t"))
        assert state_a == state_b

    def test_truncate_wal_after_checkpoint(self, tmp_path):
        wal_path, ckpt_path, lsn = self._run_phase_one(tmp_path)
        dropped = truncate_wal(wal_path, lsn)
        assert dropped > 0
        # Recovery with the truncated WAL still works.
        fresh = MultiModelDB()
        from_ckpt, redone = fresh.recover_from_checkpoint(ckpt_path, wal_path)
        fresh.create_table(_schema())
        assert fresh.table("t").count() == 11
        assert fresh.table("t").get(0)["v"] == 999
        # But the truncated WAL alone is no longer sufficient history:
        alone = MultiModelDB()
        alone.recover(wal_path)
        alone.create_table(_schema())
        assert alone.table("t").count() < 11

    def test_low_level_api(self, tmp_path):
        wal_path = str(tmp_path / "w.wal")
        ckpt_path = str(tmp_path / "c.json")
        log = CentralLog()
        rows = RowView(log)
        with WriteAheadLog(wal_path) as wal:
            log.write_ahead = wal.log_group
            from repro.storage.log import LogOp

            log.append(1, LogOp.INSERT, "ns", "k", {"v": 1})
            log.append(1, LogOp.COMMIT)
            lsn = write_checkpoint(ckpt_path, rows, log)
            log.append(2, LogOp.UPDATE, "ns", "k", {"v": 2}, before={"v": 1})
            log.append(2, LogOp.COMMIT)

        target = CentralLog()
        target_rows = RowView(target)
        from_ckpt, redone = recover_from_checkpoint(ckpt_path, wal_path, target)
        assert (from_ckpt, redone) == (1, 1)
        assert target_rows.get("ns", "k") == {"v": 2}
        del lsn
