"""Crash-recovery torture tests: kill the engine at every failpoint and
verify the recovery invariants (see repro.fault.harness).

Each run is fully determined by ``(site, trigger, effect, seed)``; a failing
report's ``summary()`` contains everything needed to reproduce it with::

    torture_run(site, seed, wal_path, checkpoint_path, trigger=..., effect=...)
"""

import os

import pytest

from repro.errors import InjectedFaultError, SimulatedCrash, WalError
from repro.fault.harness import (
    DEFAULT_SITE_PREFIXES,
    torture_all_sites,
    torture_run,
)
from repro.fault.registry import FAILPOINTS
from repro.obs import metrics as obs_metrics
from repro.storage.log import CentralLog
from repro.storage.views import RowView
from repro.storage.wal import WriteAheadLog, recover
from repro.txn.manager import TransactionManager


@pytest.fixture(autouse=True)
def _disarm_everything():
    yield
    FAILPOINTS.disarm_all()


@pytest.mark.parametrize("seed", [0, 7, 42, 1234])
def test_torture_every_site(tmp_path, seed):
    """Crash at every registered durability failpoint; every recovery must
    satisfy the atomicity and checkpoint-equivalence invariants."""
    reports = torture_all_sites(str(tmp_path), seed=seed, ops=30)
    assert reports, "no failpoint sites were tortured"
    failures = [report.summary() for report in reports if not report.ok]
    assert not failures, "\n".join(failures)
    # The harness must actually be crashing the engine, not vacuously
    # passing: most (site, effect) pairs fire within 30 ops.
    crashed = sum(1 for report in reports if report.crashed)
    assert crashed >= len(reports) // 2


def test_torture_covers_the_durability_surface(tmp_path):
    reports = torture_all_sites(str(tmp_path), seed=3, ops=20)
    sites = {report.site for report in reports}
    for expected in (
        "wal.append.write",
        "wal.append.fsync",
        "wal.flush.fsync",
        "wal.close.fsync",
        "log.append",
        "txn.commit.begin",
        "txn.commit.mid_publish",
        "txn.commit.end",
        "checkpoint.write",
        "checkpoint.rename",
    ):
        assert expected in sites
    assert all(site.startswith(DEFAULT_SITE_PREFIXES) for site in sites)


def test_torn_commit_window_is_atomic(tmp_path):
    """Crash between a transaction's data records and its COMMIT record:
    recovery must not surface the half-published transaction."""
    report = torture_run(
        "txn.commit.mid_publish",
        seed=5,
        wal_path=str(tmp_path / "torn.wal"),
        checkpoint_path=str(tmp_path / "torn.ckpt"),
        ops=25,
        trigger="after:4",
    )
    assert report.crashed
    assert report.ok, report.summary()


def test_crash_after_commit_record_is_durable(tmp_path):
    """Crash *after* the COMMIT record reached the log: commit() never
    returned, but the transaction is on disk and must survive recovery
    (the harness accepts oracle+inflight only as an atomic unit)."""
    report = torture_run(
        "txn.commit.end",
        seed=11,
        wal_path=str(tmp_path / "durable.wal"),
        ops=25,
        trigger="after:3",
    )
    assert report.crashed
    assert report.ok, report.summary()


def test_torn_wal_write_recovers(tmp_path):
    """A torn record at the WAL tail (crash mid-write) must be dropped by
    recovery, losing at most the in-flight transaction."""
    report = torture_run(
        "wal.append.write",
        seed=2,
        wal_path=str(tmp_path / "torn-write.wal"),
        checkpoint_path=str(tmp_path / "torn-write.ckpt"),
        ops=25,
        effect="torn",
    )
    assert report.crashed
    assert report.ok, report.summary()


def test_crash_during_checkpoint_keeps_old_or_no_checkpoint(tmp_path):
    """The atomic-publish protocol: a crash inside write_checkpoint leaves
    checkpoint+tail recovery equivalent to full WAL replay."""
    for site in ("checkpoint.write", "checkpoint.fsync", "checkpoint.rename"):
        report = torture_run(
            site,
            seed=13,
            wal_path=str(tmp_path / f"{site}.wal"),
            checkpoint_path=str(tmp_path / f"{site}.ckpt"),
            ops=24,
            trigger="once",
        )
        assert report.crashed, report.summary()
        assert report.ok, report.summary()


def test_no_crash_run_degenerates_to_clean_shutdown(tmp_path):
    """A trigger depth beyond the workload's hits: nothing fires, the WAL is
    closed cleanly, and recovery still reproduces the oracle exactly."""
    report = torture_run(
        "wal.append.write",
        seed=8,
        wal_path=str(tmp_path / "clean.wal"),
        checkpoint_path=str(tmp_path / "clean.ckpt"),
        ops=10,
        trigger="after:5000",
    )
    assert not report.crashed
    assert report.ok, report.summary()
    assert report.committed_txns > 0


def test_report_summary_is_reproducible_recipe(tmp_path):
    report = torture_run(
        "log.append",
        seed=21,
        wal_path=str(tmp_path / "r.wal"),
        ops=15,
        trigger="after:9",
    )
    text = report.summary()
    assert "site=log.append" in text
    assert "seed=21" in text
    assert "trigger=after:9" in text


# -- the commit unit: one write, one fsync, all-or-nothing ----------------

_THREE = {"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}}


class _Stack:
    """Central log → row view → MVCC manager, shadowed by a sync=True WAL,
    with one acknowledged transaction (``base``) already in it."""

    def __init__(self, tmp_path, sync=True):
        self.path = str(tmp_path / "unit.wal")
        self.log = CentralLog()
        self.rows = RowView(self.log)
        self.manager = TransactionManager(self.log, self.rows)
        self.wal = WriteAheadLog(self.path, sync=sync)
        self.log.write_ahead = self.wal.log_group
        self.acknowledged = {}
        self.commit({"base": {"v": 0}})

    def commit(self, writes):
        txn = self.manager.begin()
        for key, value in writes.items():
            self.manager.write(txn, "t", key, value)
        self.manager.commit(txn)
        self.acknowledged.update(writes)

    def published(self):
        """What this process shows: log length, last LSN, the row view."""
        return len(self.log), self.log.last_lsn, dict(self.rows.scan("t"))

    def recovered(self):
        """What a restart would see: the file as it is now, no close()."""
        log, _redone, _discarded = recover(self.path)
        rows = RowView(log, subscribe=False)
        rows.catch_up()
        return dict(rows.scan("t"))


def _wal_counts():
    return (obs_metrics.counter("wal_fsyncs_total").value,
            obs_metrics.counter("wal_appends_total").value)


@pytest.mark.parametrize("position", [1, 2, 3, 4])
@pytest.mark.parametrize("effect", ["crash", "torn"])
def test_crash_inside_the_unit_loses_the_whole_transaction(
    tmp_path, position, effect
):
    """Positions 1-3 are the data records, 4 is the COMMIT: wherever the
    write dies, the file holds data without a COMMIT or a torn last line."""
    stack = _Stack(tmp_path)
    FAILPOINTS.arm("wal.append.write", f"after:{position}", effect=effect)
    with pytest.raises(SimulatedCrash):
        stack.commit(_THREE)
    assert stack.recovered() == {"base": {"v": 0}}


@pytest.mark.parametrize("position", [1, 2, 3, 4])
def test_disk_full_inside_the_unit_aborts_cleanly(tmp_path, position):
    """Write-ahead: a unit the WAL could not take reaches neither the log,
    nor a view, nor a replica streaming from the log — at any position."""
    stack = _Stack(tmp_path)
    before = stack.published()
    FAILPOINTS.arm("wal.append.write", f"after:{position}", effect="enospc")
    with pytest.raises(OSError):
        stack.commit(_THREE)
    assert stack.published() == before == (2, 2, {"base": {"v": 0}})
    assert list(stack.log.entries_since(2)) == []
    assert stack.manager.active_count == 0
    assert stack.manager.version_count == 1  # base only: nothing installed
    assert stack.manager.aborts == 1
    # The engine keeps going, and what it acknowledges next is durable.
    stack.commit({"a": {"v": 10}})
    assert stack.recovered() == {"base": {"v": 0}, "a": {"v": 10}}


@pytest.mark.parametrize("position", [1, 2, 3, 4])
def test_bitflip_inside_the_unit_is_detected_or_atomic(tmp_path, position):
    """Latent corruption is acknowledged — commit() cannot know.  What
    recovery owes is to refuse a damaged middle and to drop a damaged tail
    whole, never to surface part of the transaction."""
    stack = _Stack(tmp_path)
    FAILPOINTS.arm("wal.append.write", f"after:{position}", effect="bitflip")
    stack.commit(_THREE)
    if position < 4:
        with pytest.raises(WalError, match="mid-file"):
            stack.recovered()
    else:  # the COMMIT line itself: a bad tail, the transaction vanishes
        assert stack.recovered() == {"base": {"v": 0}}


def test_failed_fsync_leaves_the_transaction_whole_or_absent(tmp_path):
    """The durability lie: the bytes were handed over, the guarantee was
    not given.  commit() raises and the manager aborts; the next unit's
    flush may carry the transaction to disk — whole."""
    stack = _Stack(tmp_path)
    before = stack.published()
    FAILPOINTS.arm("wal.append.fsync", "once", effect="error")
    with pytest.raises(OSError):
        stack.commit(_THREE)
    assert stack.published() == before
    assert stack.manager.active_count == 0
    assert stack.manager.version_count == 1
    assert stack.recovered() == {"base": {"v": 0}}
    stack.commit({"d": {"v": 4}})
    assert stack.recovered() == {"base": {"v": 0}, "d": {"v": 4}, **_THREE}


@pytest.mark.parametrize("site, effect, present", [
    ("wal.append.fsync", "crash", True),  # synced, then died: durable
    ("txn.commit.mid_publish", "crash", False),
    ("txn.commit.end", "crash", True),
])
def test_crash_around_the_unit(tmp_path, site, effect, present):
    stack = _Stack(tmp_path)
    FAILPOINTS.arm(site, "once", effect=effect)
    with pytest.raises(SimulatedCrash):
        stack.commit(_THREE)
    expected = {"base": {"v": 0}, **(_THREE if present else {})}
    assert stack.recovered() == expected


def test_mid_publish_leaves_data_without_a_commit_record(tmp_path):
    """The site sits inside the unit's one write, between the last data
    line and the COMMIT line: the file has the data, nobody else does."""
    stack = _Stack(tmp_path)
    before = stack.published()
    fsyncs, _appends = _wal_counts()
    FAILPOINTS.arm("txn.commit.mid_publish", "once", effect="error")
    with pytest.raises(InjectedFaultError):
        stack.commit(_THREE)
    ops = [record["op"] for record in WriteAheadLog.read_records(stack.path)]
    assert ops == ["insert", "commit", "insert", "insert", "insert"]
    assert stack.published() == before
    assert _wal_counts()[0] == fsyncs  # one unit: it never got to its fsync
    assert stack.manager.active_count == 0
    assert stack.manager.version_count == 1
    stack.commit({"a": {"v": 10}})
    assert stack.recovered() == {"base": {"v": 0}, "a": {"v": 10}}


def test_error_after_the_commit_record_is_a_committed_transaction(tmp_path):
    stack = _Stack(tmp_path)
    FAILPOINTS.arm("txn.commit.end", "once", effect="error")
    with pytest.raises(InjectedFaultError):
        stack.commit(_THREE)
    assert stack.manager.active_count == 0
    assert stack.manager.commits == 2
    assert stack.manager.read_committed_latest("t", "b") == {"v": 2}
    assert stack.recovered() == {"base": {"v": 0}, **_THREE}


@pytest.mark.parametrize("writes", [1, 3, 25])
def test_one_fsync_per_write_transaction_of_any_size(tmp_path, writes):
    stack = _Stack(tmp_path)
    fsyncs, appends = _wal_counts()
    stack.commit({f"k{i}": {"v": i} for i in range(writes)})
    assert _wal_counts() == (fsyncs + 1, appends + writes + 1)
    assert stack.recovered() == stack.acknowledged


def test_read_only_commit_touches_neither_log_nor_wal(tmp_path):
    stack = _Stack(tmp_path)
    counts, lsn = _wal_counts(), stack.log.last_lsn
    size = os.path.getsize(stack.path)
    txn = stack.manager.begin()
    assert stack.manager.read(txn, "t", "base") == {"v": 0}
    stack.manager.commit(txn)
    assert stack.manager.commits == 2  # still counted
    assert (_wal_counts(), stack.log.last_lsn) == (counts, lsn)
    assert os.path.getsize(stack.path) == size


def test_sync_false_never_fsyncs_on_append(tmp_path):
    stack = _Stack(tmp_path, sync=False)
    fsyncs, appends = _wal_counts()
    stack.commit(_THREE)
    assert _wal_counts() == (fsyncs, appends + 4)


def test_autocommit_store_write_is_one_fsync(tmp_path):
    from repro.core.database import MultiModelDB

    db = MultiModelDB()
    orders = db.create_collection("orders")
    db.attach_wal(str(tmp_path / "db.wal"), sync=True)
    fsyncs, appends = _wal_counts()
    orders.insert({"_key": "o1", "total": 10})
    assert _wal_counts() == (fsyncs + 1, appends + 2)  # was 2 fsyncs
    db.close()
