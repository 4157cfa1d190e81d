"""A transaction reads and writes rows that no commit of its engine
versioned.

WAL replay, a checkpoint load and a replica's apply put rows in the log
directly: the row view holds them, the transaction manager has no version
chain for them.  A transaction must still see such a row (``get``,
``DOCUMENT``, a scan), update and remove it, and its write must log the
row it replaced, so that the indexes drop the old entry.
"""

import pytest

from repro import MultiModelDB
from repro.replication.apply import ReplicationApplier
from repro.storage.wal import entry_to_record

SOURCES = ("wal", "checkpoint", "replica")
ROW = {"_key": "a", "v": 1}


def _primary(tmp_path):
    db = MultiModelDB()
    docs = db.create_collection("docs")
    wal = str(tmp_path / "primary.wal")
    db.attach_wal(wal)
    docs.insert(dict(ROW))
    docs.insert({"_key": "b", "v": 5})
    return db, wal


def _restored(tmp_path, source):
    """A fresh database holding the primary's rows by way of *source*, with
    a hash index on ``v``."""
    primary, wal = _primary(tmp_path)
    db = MultiModelDB()
    docs = db.create_collection("docs")
    docs.create_index("v", kind="hash")
    if source == "wal":
        primary.close()
        db.recover(wal)
    elif source == "checkpoint":
        checkpoint = str(tmp_path / "primary.ckpt")
        primary.checkpoint(checkpoint)
        primary.close()
        db.recover_from_checkpoint(checkpoint, wal)
    else:
        records = [
            entry_to_record(entry)
            for entry in primary.context.log.entries_since(0)
        ]
        primary.close()
        applier = ReplicationApplier(db)
        applier.bootstrap(db.context.log.last_lsn)
        applier.apply_records(records)
    assert docs.get("a") == ROW
    return db, docs


def _keys_with_v(docs, value):
    return sorted(document["_key"] for document in docs.find_path_equals("v", value))


@pytest.mark.parametrize("source", SOURCES)
def test_a_transaction_reads_a_row_it_has_no_version_of(tmp_path, source):
    db, docs = _restored(tmp_path, source)
    txn = db.begin()
    assert docs.get("a", txn=txn) == ROW
    assert db.query("RETURN DOCUMENT('docs', 'a')", txn=txn).rows == [ROW]
    assert sorted(db.query("FOR d IN docs RETURN d._key", txn=txn).rows) == ["a", "b"]
    db.commit(txn)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("through", ["api", "mmql"])
def test_a_transaction_updates_a_row_it_has_no_version_of(tmp_path, source, through):
    db, docs = _restored(tmp_path, source)
    txn = db.begin()
    if through == "api":
        assert docs.update("a", {"v": 2}, txn=txn) is True
    else:
        db.query("UPDATE 'a' WITH {v: 2} IN docs", txn=txn)
    assert docs.get("a", txn=txn) == {"_key": "a", "v": 2}
    db.commit(txn)
    assert docs.get("a") == {"_key": "a", "v": 2}
    # The write logged the row it replaced: the index dropped the old entry.
    assert _keys_with_v(docs, 1) == []
    assert _keys_with_v(docs, 2) == ["a"]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("through", ["api", "mmql"])
def test_a_transaction_removes_a_row_it_has_no_version_of(tmp_path, source, through):
    db, docs = _restored(tmp_path, source)
    txn = db.begin()
    if through == "api":
        assert docs.delete("a", txn=txn) is True
    else:
        db.query("REMOVE 'a' IN docs", txn=txn)
    assert docs.get("a", txn=txn) is None
    db.commit(txn)
    assert docs.get("a") is None
    assert _keys_with_v(docs, 1) == []
    assert sorted(db.query("FOR d IN docs RETURN d._key").rows) == ["b"]


def test_a_snapshot_keeps_the_row_a_later_commit_replaces(tmp_path):
    """The row is read before the chain: once a commit versions the row, a
    transaction begun before it still reads the row it began with."""
    db, docs = _restored(tmp_path, "wal")
    reader = db.begin()
    docs.update("a", {"v": 3})
    assert docs.get("a", txn=reader) == ROW
    db.commit(reader)
    later = db.begin()
    assert docs.get("a", txn=later) == {"_key": "a", "v": 3}
    db.commit(later)
