"""Tests for the central log and the OctopusDB-style storage views."""

import pytest

from repro.errors import StorageError
from repro.indexes.btree import BPlusTree
from repro.indexes.hashindex import ExtendibleHashIndex
from repro.storage.log import CentralLog, LogOp
from repro.storage.views import ColumnView, IndexView, LogOnlyView, RowView


def _insert(log, namespace, key, value, txn_id=1):
    return log.append(txn_id, LogOp.INSERT, namespace, key, value)


def _update(log, namespace, key, value, before, txn_id=1):
    return log.append(txn_id, LogOp.UPDATE, namespace, key, value, before)


def _delete(log, namespace, key, before=None, txn_id=1):
    return log.append(txn_id, LogOp.DELETE, namespace, key, before=before)


class TestCentralLog:
    def test_lsns_are_consecutive(self):
        log = CentralLog()
        entries = [_insert(log, "t", i, {"v": i}) for i in range(5)]
        assert [entry.lsn for entry in entries] == [1, 2, 3, 4, 5]
        assert log.last_lsn == 5

    def test_subscribers_see_every_entry(self):
        log = CentralLog()
        seen = []
        log.subscribe(seen.append)
        _insert(log, "t", 1, {})
        _delete(log, "t", 1)
        assert [entry.op for entry in seen] == [LogOp.INSERT, LogOp.DELETE]

    def test_entries_since(self):
        log = CentralLog()
        for i in range(4):
            _insert(log, "t", i, {})
        assert [entry.lsn for entry in log.entries_since(2)] == [3, 4]
        assert list(log.entries_since(99)) == []

    def test_entry_at(self):
        log = CentralLog()
        _insert(log, "t", 1, {"a": 1})
        assert log.entry_at(1).value == {"a": 1}
        with pytest.raises(StorageError):
            log.entry_at(2)

    def test_truncate_keeps_lsn_accounting(self):
        log = CentralLog()
        for i in range(6):
            _insert(log, "t", i, {})
        dropped = log.truncate_before(4)
        assert dropped == 3
        assert [entry.lsn for entry in log] == [4, 5, 6]
        assert log.entry_at(5).lsn == 5
        assert [entry.lsn for entry in log.entries_since(4)] == [5, 6]
        # New appends continue the sequence.
        entry = _insert(log, "t", 99, {})
        assert entry.lsn == 7

    def test_entries_since_below_the_truncation_floor_raises(self):
        """A subscriber whose watermark predates the truncation must hear
        that the history is gone, not receive a stream with a hole in it."""
        log = CentralLog()
        for i in range(6):
            _insert(log, "t", i, {})
        log.truncate_before(4)
        assert [entry.lsn for entry in log.entries_since(3)] == [4, 5, 6]
        for lost in (0, 2):
            with pytest.raises(StorageError, match="truncated"):
                log.entries_since(lost)

    def test_truncate_cut_is_clamped_to_what_is_retained(self):
        log = CentralLog()
        for i in range(6):
            _insert(log, "t", i, {})
        assert log.truncate_before(-3) == 0 and log.floor_lsn == 0
        assert log.truncate_before(4) == 3 and log.floor_lsn == 3
        assert log.truncate_before(2) == 0  # already below the floor
        assert log.truncate_before(99) == 3 and len(log) == 0
        assert log.floor_lsn == log.last_lsn == 6
        assert _insert(log, "t", 99, {}).lsn == 7

    def test_messages_name_the_floor(self):
        log = CentralLog()
        for i in range(6):
            _insert(log, "t", i, {})
        log.truncate_before(4)
        with pytest.raises(StorageError, match=r"retains lsn 4\.\.6 \(floor_lsn 3\)"):
            log.entries_since(1)
        with pytest.raises(StorageError, match=r"retains lsn 4\.\.6 \(floor_lsn 3\)"):
            log.entry_at(2)

    def test_bare_log_retains_everything(self):
        log = CentralLog()
        for i in range(5000):
            _insert(log, "t", i, {})
        assert len(log) == 5000 and log.floor_lsn == 0
        assert log.entry_at(1).key == 0

    def test_tail_bounds_what_is_retained(self):
        log = CentralLog(tail=8)
        rows = RowView(log)
        for i in range(100):
            _insert(log, "t", i, {"v": i})
            assert 0 < len(log) <= 16
            assert len(log) >= min(i + 1, 8)
        assert log.last_lsn == 100
        assert log.floor_lsn == 100 - len(log)
        assert [e.lsn for e in log.entries_since(log.floor_lsn)][0] == log.floor_lsn + 1
        assert rows.count("t") == 100  # the views saw every entry
        # One unit longer than the whole budget is trimmed to the tail.
        log.append_group(9, [(LogOp.INSERT, "t", -i, {}, None, None) for i in range(1, 41)])
        assert len(log) == 8 and log.last_lsn == 140

    def test_a_live_reader_holds_the_floor_behind_the_tail(self):
        log = CentralLog(tail=8)
        read = [None]
        log.reader_floor = lambda: read[0]
        for i in range(40):
            _insert(log, "t", i, {})
        assert len(log) <= 16  # nobody reads: the tail alone decides
        read[0] = log.last_lsn - 3
        for i in range(100):
            _insert(log, "t", i, {})
        # Everything the reader has yet to see is still there …
        assert log.floor_lsn <= read[0]
        assert [e.lsn for e in log.entries_since(read[0])] == list(
            range(read[0] + 1, log.last_lsn + 1)
        )
        # … it moves on, and the log lets go a tail's worth at a time …
        read[0] += 50
        _insert(log, "t", 0, {})
        assert read[0] - 8 < log.floor_lsn <= read[0]
        # … and a reader that keeps up holds nothing extra.
        log.reader_floor = lambda: log.last_lsn - 1
        for i in range(40):
            _insert(log, "t", i, {})
        assert len(log) <= 16

    def test_readers_by_position_never_see_a_hole_while_the_tail_is_trimmed(self):
        """The ship loop reads ``entries_since`` on one thread while commits
        append and trim on another: a reader gets consecutive LSNs from its
        watermark or the refusal, never a stream with entries missing."""
        import sys
        import threading
        import time

        log = CentralLog(tail=4)
        stop = threading.Event()
        failures: list = []

        def follow():
            watermark = 0
            while not stop.is_set():
                try:
                    lsns = [entry.lsn for entry in log.entries_since(watermark)]
                except StorageError:
                    watermark = log.floor_lsn  # fell behind: start over there
                    continue
                if lsns != list(range(watermark + 1, watermark + 1 + len(lsns))):
                    failures.append((watermark, lsns[:3]))
                    return
                if lsns:
                    watermark = lsns[-1]

        readers = [threading.Thread(target=follow) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            deadline = time.monotonic() + 0.5
            key = 0
            while time.monotonic() < deadline and not failures:
                _insert(log, "t", key, {})
                key += 1
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=5.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert failures == [] and key > 100

    def test_fast_forward_aligns_the_head_with_a_snapshot_lsn(self):
        log = CentralLog(tail=8)
        rows = RowView(log)
        for i in range(3):
            _insert(log, "t", i, {"v": i})
        log.fast_forward(50)
        assert (log.last_lsn, log.floor_lsn, len(log)) == (50, 50, 0)
        assert _insert(log, "t", 3, {"v": 3}).lsn == 51
        assert rows.count("t") == 4
        assert [e.lsn for e in log.entries_since(50)] == [51]
        with pytest.raises(StorageError, match="fast-forward"):
            log.fast_forward(10)

    def test_group_is_one_unit_with_consecutive_lsns(self):
        """The write-ahead hook sees a group whole and before anyone else,
        subscribers then see it entry by entry; a single append is a group
        of one."""
        log = CentralLog()
        seen = []
        log.subscribe(lambda entry: seen.append(entry.lsn))
        log.write_ahead = lambda entries: seen.append(
            [entry.lsn for entry in entries]
        )
        _insert(log, "t", 0, {})
        entries = log.append_group(7, [
            (LogOp.INSERT, "t", 1, {"v": 1}, None, None),
            (LogOp.UPDATE, "t", 0, {"v": 2}, {}, None),
            (LogOp.COMMIT, "", None, None, None, None),
        ])
        assert seen == [[1], 1, [2, 3, 4], 2, 3, 4]
        assert [entry.txn_id for entry in entries] == [7, 7, 7]
        assert entries[2].op is LogOp.COMMIT and log.last_lsn == 4
        assert entries[0].meta is entries[2].meta and not entries[0].meta

    def test_unit_the_write_ahead_hook_refuses_is_not_published(self):
        log = CentralLog()
        rows = RowView(log)
        _insert(log, "t", 0, {"v": 0})

        def refuse(entries):
            raise OSError("disk full")

        log.write_ahead = refuse
        with pytest.raises(OSError):
            log.append_group(7, [
                (LogOp.INSERT, "t", 1, {"v": 1}, None, None),
                (LogOp.COMMIT, "", None, None, None, None),
            ])
        assert log.last_lsn == 1 and len(log) == 1
        assert dict(rows.scan("t")) == {0: {"v": 0}}
        log.write_ahead = None
        assert _insert(log, "t", 2, {}).lsn == 2  # the LSNs are used again

    def test_unsubscribe(self):
        log = CentralLog()
        seen = []
        log.subscribe(seen.append)
        log.unsubscribe(seen.append)
        _insert(log, "t", 1, {})
        assert seen == []


class TestRowView:
    def test_insert_update_delete(self):
        log = CentralLog()
        rows = RowView(log)
        _insert(log, "t", "k1", {"v": 1})
        assert rows.get("t", "k1") == {"v": 1}
        _update(log, "t", "k1", {"v": 2}, before={"v": 1})
        assert rows.get("t", "k1") == {"v": 2}
        _delete(log, "t", "k1", before={"v": 2})
        assert rows.get("t", "k1") is None
        assert not rows.contains("t", "k1")

    def test_scan_and_count(self):
        log = CentralLog()
        rows = RowView(log)
        for i in range(3):
            _insert(log, "t", i, {"v": i})
        assert rows.count("t") == 3
        assert sorted(dict(rows.scan("t"))) == [0, 1, 2]

    def test_namespaces_are_isolated(self):
        log = CentralLog()
        rows = RowView(log)
        _insert(log, "a", 1, {"v": "a"})
        _insert(log, "b", 1, {"v": "b"})
        assert rows.get("a", 1) == {"v": "a"}
        assert rows.get("b", 1) == {"v": "b"}
        assert rows.namespaces() == ["a", "b"]

    def test_drop_namespace(self):
        log = CentralLog()
        rows = RowView(log)
        _insert(log, "t", 1, {})
        log.append(1, LogOp.DROP_NAMESPACE, "t")
        assert rows.count("t") == 0

    def test_catch_up_after_late_creation(self):
        log = CentralLog()
        _insert(log, "t", 1, {"v": 1})
        _insert(log, "t", 2, {"v": 2})
        rows = RowView(log)
        assert rows.count("t") == 0
        applied = rows.catch_up()
        assert applied == 2
        assert rows.count("t") == 2

    def test_apply_is_idempotent_per_lsn(self):
        log = CentralLog()
        rows = RowView(log)
        entry = _insert(log, "t", 1, {"v": 1})
        rows.apply(entry)  # replay of an already-applied entry
        assert rows.count("t") == 1


class TestLogOnlyView:
    def test_get_replays_history(self):
        log = CentralLog()
        view = LogOnlyView(log)
        _insert(log, "t", "k", {"v": 1})
        _update(log, "t", "k", {"v": 2}, before={"v": 1})
        assert view.get("t", "k") == {"v": 2}
        _delete(log, "t", "k")
        assert view.get("t", "k") is None

    def test_scan_skips_deleted(self):
        log = CentralLog()
        view = LogOnlyView(log)
        _insert(log, "t", 1, {"v": 1})
        _insert(log, "t", 2, {"v": 2})
        _delete(log, "t", 1)
        assert dict(view.scan("t")) == {2: {"v": 2}}

    def test_agrees_with_row_view(self):
        log = CentralLog()
        log_view = LogOnlyView(log)
        rows = RowView(log)
        for i in range(20):
            _insert(log, "t", i % 7, {"v": i})
        for key in range(7):
            assert log_view.get("t", key) == rows.get("t", key)


class TestColumnView:
    def test_decomposes_top_level_attributes(self):
        log = CentralLog()
        columns = ColumnView(log)
        _insert(log, "t", 1, {"name": "Mary", "credit": 5000})
        _insert(log, "t", 2, {"name": "John", "credit": 3000, "city": "Helsinki"})
        assert columns.column_names("t") == ["city", "credit", "name"]
        assert dict(columns.scan_column("t", "credit")) == {1: 5000, 2: 3000}
        assert dict(columns.scan_column("t", "city")) == {2: "Helsinki"}

    def test_update_moves_columns(self):
        log = CentralLog()
        columns = ColumnView(log)
        _insert(log, "t", 1, {"a": 1, "b": 2})
        _update(log, "t", 1, {"a": 9}, before={"a": 1, "b": 2})
        assert dict(columns.scan_column("t", "a")) == {1: 9}
        assert dict(columns.scan_column("t", "b")) == {}

    def test_non_object_records_use_value_column(self):
        log = CentralLog()
        columns = ColumnView(log)
        _insert(log, "kv", "k", 42)
        assert dict(columns.scan_column("kv", ColumnView.VALUE_COLUMN)) == {"k": 42}

    def test_delete(self):
        log = CentralLog()
        columns = ColumnView(log)
        _insert(log, "t", 1, {"a": 1})
        _delete(log, "t", 1, before={"a": 1})
        assert columns.count("t") == 0


class TestIndexView:
    def test_maintains_hash_index(self):
        log = CentralLog()
        view = IndexView(log, "t", ("city",), ExtendibleHashIndex())
        _insert(log, "t", 1, {"city": "Prague"})
        _insert(log, "t", 2, {"city": "Prague"})
        _insert(log, "t", 3, {"city": "Helsinki"})
        assert sorted(view.search("Prague")) == [1, 2]
        _update(log, "t", 1, {"city": "Brno"}, before={"city": "Prague"})
        assert view.search("Prague") == [2]
        _delete(log, "t", 2, before={"city": "Prague"})
        assert view.search("Prague") == []

    def test_range_search_via_btree(self):
        log = CentralLog()
        view = IndexView(log, "t", ("n",), BPlusTree())
        for i in range(10):
            _insert(log, "t", i, {"n": i * 10})
        assert sorted(view.range_search(20, 50)) == [2, 3, 4, 5]

    def test_range_on_hash_raises(self):
        log = CentralLog()
        view = IndexView(log, "t", ("n",), ExtendibleHashIndex())
        with pytest.raises(Exception):
            view.range_search(1, 2)

    def test_ignores_other_namespaces(self):
        log = CentralLog()
        view = IndexView(log, "t", ("n",), ExtendibleHashIndex())
        _insert(log, "other", 1, {"n": 5})
        assert view.search(5) == []

    def test_missing_path_not_indexed(self):
        log = CentralLog()
        view = IndexView(log, "t", ("n",), ExtendibleHashIndex())
        _insert(log, "t", 1, {"m": 5})
        assert view.search(None) == []
        assert view.search(5) == []
