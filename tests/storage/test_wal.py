"""WAL durability and redo-recovery tests, including simulated crashes."""

import pytest

from repro.errors import WalError
from repro.storage.log import CentralLog, LogOp
from repro.storage.views import RowView
from repro.storage.wal import WriteAheadLog, recover, replay_into


def _write_transactions(path, sync=True):
    """Two committed txns, one aborted, one uncommitted tail."""
    with WriteAheadLog(path, sync=sync) as wal:
        wal.append(1, 10, "insert", "t", "a", {"v": 1})
        wal.append(2, 10, "commit")
        wal.append(3, 11, "insert", "t", "b", {"v": 2})
        wal.append(4, 11, "update", "t", "b", {"v": 3}, before={"v": 2})
        wal.append(5, 11, "commit")
        wal.append(6, 12, "insert", "t", "c", {"v": 9})
        wal.append(7, 12, "abort")
        wal.append(8, 13, "insert", "t", "d", {"v": 4})  # never commits


class TestWalRoundTrip:
    def test_records_survive(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        records = list(WriteAheadLog.read_records(path))
        assert len(records) == 8
        assert records[0]["op"] == "insert"
        assert records[0]["value"] == {"v": 1}

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(WriteAheadLog.read_records(str(tmp_path / "nope"))) == []

    def test_shadow_central_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = CentralLog()
        with WriteAheadLog(path) as wal:
            log.write_ahead = wal.log_group
            log.append(1, LogOp.INSERT, "t", "k", {"v": 1})
            log.append(1, LogOp.COMMIT)
        records = list(WriteAheadLog.read_records(path))
        assert [record["op"] for record in records] == ["insert", "commit"]


class TestRecovery:
    def test_redo_only_committed(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        log, redone, discarded = recover(path)
        rows = RowView(log, subscribe=False)
        rows.catch_up()
        assert redone == 3
        assert discarded == 2  # the aborted insert and the uncommitted tail
        assert rows.get("t", "a") == {"v": 1}
        assert rows.get("t", "b") == {"v": 3}
        assert rows.get("t", "c") is None
        assert rows.get("t", "d") is None

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("deadbeef {\"half\": ")  # torn final record
        log, redone, _ = recover(path)
        assert redone == 3
        assert log.last_lsn > 0

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[2] = "00000000 {\"corrupt\": true}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(WalError):
            list(WriteAheadLog.read_records(path))

    def test_mid_file_corruption_replays_nothing(self, tmp_path):
        """Transaction 10 commits before the damaged line, but redo from
        a damaged log is unsound: nothing may reach the log."""
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[2] = "00000000 {\"corrupt\": true}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        log = CentralLog()
        with pytest.raises(WalError):
            replay_into(path, log)
        assert log.last_lsn == 0

    def test_replay_streams_the_wal(self, tmp_path):
        """Recovery holds the transaction outcomes and one record at a
        time, not the whole WAL as dicts beside the state it rebuilds."""
        import os
        import tracemalloc

        path = str(tmp_path / "wal.log")
        transactions = 1500
        with WriteAheadLog(path, sync=False) as wal:
            for txn in range(transactions):
                wal.append(2 * txn + 1, txn, "insert", "t", f"k{txn}",
                           {"pad": "x" * 1000})
                wal.append(2 * txn + 2, txn, "commit")

        class CountingSink:
            """Stands in for the central log: counts, keeps nothing."""

            appended = 0

            def append(self, *_entry):
                self.appended += 1

        sink = CountingSink()
        tracemalloc.start()
        try:
            redone, discarded = replay_into(path, sink)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (redone, discarded, sink.appended) == (transactions, 0, transactions)
        assert peak < os.path.getsize(path) / 4

    def test_replay_into_existing_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        log = CentralLog()
        rows = RowView(log)
        redone, _ = replay_into(path, log)
        assert redone == 3
        assert rows.count("t") == 2

    def test_recovery_is_idempotent(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        first, _, _ = recover(path)
        second, _, _ = recover(path)
        rows_a = RowView(first, subscribe=False)
        rows_a.catch_up()
        rows_b = RowView(second, subscribe=False)
        rows_b.catch_up()
        assert dict(rows_a.scan("t")) == dict(rows_b.scan("t"))

    def test_structural_ops_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append(1, 1, "create_namespace", "t")
            wal.append(2, 1, "insert", "t", "k", {"v": 1})
            wal.append(3, 1, "commit")
            wal.append(4, 2, "drop_namespace", "t")
        log, _, _ = recover(path)
        rows = RowView(log, subscribe=False)
        rows.catch_up()
        assert rows.count("t") == 0


class TestCorruptionModes:
    """The read_records contract, pinned per corruption mode (strict
    distinguishes 'cleanly closed' from 'crashed'; mid-file damage is never
    tolerated)."""

    def test_torn_final_line_dropped_by_default(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('deadbeef {"half": ')  # no newline: torn mid-write
        records = list(WriteAheadLog.read_records(path))
        assert len(records) == 8  # all intact records, torn tail gone

    def test_torn_final_line_raises_in_strict_mode(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('deadbeef {"half": ')
        with pytest.raises(WalError, match="tail"):
            list(WriteAheadLog.read_records(path, strict=True))

    def test_strict_accepts_a_clean_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        assert len(list(WriteAheadLog.read_records(path, strict=True))) == 8

    def test_truncated_checksum_prefix_is_tail_corruption(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        # Crash mid-write of the checksum itself: fewer than 8 hex chars.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("dead")
        assert len(list(WriteAheadLog.read_records(path))) == 8
        with pytest.raises(WalError):
            list(WriteAheadLog.read_records(path, strict=True))

    def test_mid_file_crc_mismatch_raises_even_without_strict(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        lines = open(path, encoding="utf-8").read().splitlines()
        # Valid JSON, valid-looking prefix, wrong CRC — a bit rot scenario.
        prefix, payload = lines[3].split(" ", 1)
        flipped = f"{(int(prefix, 16) ^ 0xFF):08x}"
        lines[3] = f"{flipped} {payload}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(WalError, match="mid-file"):
            list(WriteAheadLog.read_records(path))

    def test_multiple_torn_tail_lines_dropped(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage line one\n")
            handle.write('deadbeef {"half": ')
        assert len(list(WriteAheadLog.read_records(path))) == 8

    def test_recovery_from_checkpoint_with_torn_wal_tail(self, tmp_path):
        """Checkpoint + WAL-tail recovery tolerates the same torn tail as
        full replay, and both agree on the final state."""
        from repro.storage.checkpoint import (
            recover_from_checkpoint,
            write_checkpoint,
        )

        wal_path = str(tmp_path / "wal.log")
        checkpoint_path = str(tmp_path / "ckpt.json")
        log = CentralLog()
        rows = RowView(log)
        with WriteAheadLog(wal_path) as wal:
            log.write_ahead = wal.log_group
            log.append(0, LogOp.CREATE_NAMESPACE, "t")
            for i in range(10):
                log.append(100 + i, LogOp.INSERT, "t", f"k{i}", {"v": i})
                log.append(100 + i, LogOp.COMMIT)
                if i == 4:
                    write_checkpoint(checkpoint_path, rows, log)
            # Crash mid-append of an 11th transaction's record:
            wal._file.write('deadbeef {"torn": ')
        del log, rows

        full_log = CentralLog()
        replay_into(wal_path, full_log)
        full = RowView(full_log, subscribe=False)
        full.catch_up()

        fast_log = CentralLog()
        from_checkpoint, redone = recover_from_checkpoint(
            checkpoint_path, wal_path, fast_log
        )
        fast = RowView(fast_log, subscribe=False)
        fast.catch_up()

        assert from_checkpoint == 5  # k0..k4 from the checkpoint
        assert redone == 5  # k5..k9 from the WAL tail
        assert dict(fast.scan("t")) == dict(full.scan("t"))
        assert full.count("t") == 10


class TestCloseDurability:
    def test_close_fsyncs_the_tail(self, tmp_path):
        """close() must fsync, not merely flush — counted in
        wal_fsyncs_total so the durability promise is observable."""
        from repro.obs import metrics as obs_metrics

        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=False)  # no per-append fsync
        before = obs_metrics.REGISTRY.total("wal_fsyncs_total")
        wal.append(1, 1, "insert", "t", "a", {"v": 1})
        wal.append(2, 1, "commit")
        wal.close()
        after = obs_metrics.REGISTRY.total("wal_fsyncs_total")
        assert after == before + 1
        assert len(list(WriteAheadLog.read_records(path, strict=True))) == 2

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.close()
        wal.close()  # second close must not raise on the closed handle


class TestCrashSimulation:
    def test_crash_discards_memory_wal_restores(self, tmp_path):
        """The substitution documented in DESIGN.md §2: crash = drop all
        in-memory state, recovery = WAL replay."""
        path = str(tmp_path / "wal.log")
        log = CentralLog()
        rows = RowView(log)
        with WriteAheadLog(path) as wal:
            log.write_ahead = wal.log_group
            for i in range(50):
                log.append(100 + i, LogOp.INSERT, "t", i, {"v": i})
                log.append(100 + i, LogOp.COMMIT)
            # txn 999 updates but crashes before commit
            log.append(999, LogOp.UPDATE, "t", 0, {"v": -1}, before={"v": 0})
        del log, rows  # crash

        recovered_log, redone, discarded = recover(path)
        rows = RowView(recovered_log, subscribe=False)
        rows.catch_up()
        assert redone == 50
        assert discarded == 1
        assert rows.get("t", 0) == {"v": 0}  # uncommitted update discarded
        assert rows.count("t") == 50


class TestChecksumLessLine:
    def test_bare_json_line_is_ordinary_corruption(self, tmp_path):
        """A line without the CRC prefix — the pre-checksum format — has
        nothing to verify it by: at the tail it is dropped like a torn
        write, followed by valid records it is mid-file corruption."""
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        bare = '{"lsn": 9, "txn": 13, "op": "commit", "ns": "", "key": null}\n'
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(bare)
        assert len(list(WriteAheadLog.read_records(path))) == 8
        _log, redone, discarded = recover(path)
        assert (redone, discarded) == (3, 2)  # txn 13 stays uncommitted
        with WriteAheadLog(path) as wal:
            wal.append(10, 14, "commit")
        with pytest.raises(WalError, match="mid-file"):
            list(WriteAheadLog.read_records(path))


class TestPayloadBitflip:
    def test_mid_file_payload_bitflip_raises_and_counts(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        lines = open(path, encoding="utf-8").read().splitlines()
        prefix, payload = lines[2].split(" ", 1)
        # Flip one byte *inside the JSON payload*: the line still parses
        # as "checksum payload", but the CRC no longer matches.
        flipped = payload.replace('"v":2', '"v":3')
        assert flipped != payload
        lines[2] = f"{prefix} {flipped}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        before = obs_metrics.counter("wal_crc_failures_total").value
        with pytest.raises(WalError, match="mid-file"):
            list(WriteAheadLog.read_records(path))
        assert obs_metrics.counter("wal_crc_failures_total").value > before

    def test_tail_payload_bitflip_dropped_by_default(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_transactions(path)
        lines = open(path, encoding="utf-8").read().splitlines()
        prefix, payload = lines[-1].split(" ", 1)
        lines[-1] = f"{prefix} {payload.replace('4', '5', 1)}"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert len(list(WriteAheadLog.read_records(path))) == 7
        with pytest.raises(WalError, match="tail"):
            list(WriteAheadLog.read_records(path, strict=True))
