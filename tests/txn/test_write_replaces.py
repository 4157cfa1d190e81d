"""A write's log entry says what it replaced.

The transaction manager derives the logged op from the committed value a
write replaces: an INSERT replaces nothing, an UPDATE replaces its
``before``.  A delete and a re-insert of one key in one transaction is
therefore one UPDATE, and every index drops the old value's entry — on
the primary, and on a replica applying the same entries.
"""

import pytest

from repro import MultiModelDB
from repro.replication.apply import ReplicationApplier
from repro.storage.log import LogOp
from repro.storage.wal import entry_to_record

KINDS = ("hash", "btree")


def _collection(kind):
    db = MultiModelDB()
    docs = db.create_collection("c")
    docs.create_index("v", kind=kind)
    docs.insert({"_key": "5", "v": "1"})
    return db, docs


def _delete_and_reinsert(db, docs, through):
    txn = db.begin()
    if through == "api":
        assert docs.delete("5", txn=txn) is True
        docs.insert({"_key": "5", "v": 2}, txn=txn)
    else:
        db.query("REMOVE '5' IN c", txn=txn)
        db.query("INSERT {_key: '5', v: 2} INTO c", txn=txn)
    db.commit(txn)


def _answers(db, docs, value):
    """What the index, the API and MMQL say about ``v == value``, and what
    a scan says."""
    by_api = sorted(d["_key"] for d in docs.find_path_equals("v", value))
    by_mmql = sorted(db.query(
        "FOR d IN c FILTER d.v == @v RETURN d._key", {"v": value}).rows)
    by_scan = sorted(d["_key"] for d in docs.find(lambda d: d.get("v") == value))
    return by_api, by_mmql, by_scan


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("through", ["api", "mmql"])
def test_a_re_insert_drops_the_deleted_rows_index_entry(kind, through):
    db, docs = _collection(kind)
    _delete_and_reinsert(db, docs, through)
    assert docs.get("5") == {"_key": "5", "v": 2}
    assert _answers(db, docs, "1") == ([], [], [])
    assert _answers(db, docs, 2) == (["5"], ["5"], ["5"])


@pytest.mark.parametrize("through", ["api", "mmql"])
def test_the_re_insert_is_logged_as_an_update_of_the_deleted_row(through):
    db, docs = _collection("hash")
    _delete_and_reinsert(db, docs, through)
    data = [entry for entry in db.context.log.entries_since(0)
            if entry.is_data_op() and entry.namespace == docs.namespace]
    assert not [entry for entry in data
                if entry.op is LogOp.INSERT and entry.before is not None]
    last = data[-1]
    assert (last.op, last.before, last.value) == (
        LogOp.UPDATE, {"_key": "5", "v": "1"}, {"_key": "5", "v": 2})


def test_the_r_tree_drops_the_deleted_point():
    db = MultiModelDB()
    places = db.create_spatial("places")
    places.put_point("5", 1.0, 1.0)
    txn = db.begin()
    assert places.delete("5", txn=txn) is True
    places.put_point("5", 9.0, 9.0, txn=txn)
    db.commit(txn)
    assert places.window(0.0, 0.0, 2.0, 2.0) == []
    assert places.window(8.0, 8.0, 10.0, 10.0) == ["5"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_replica_applying_the_entries_drops_the_entry_too(kind):
    primary, docs = _collection(kind)
    _delete_and_reinsert(primary, docs, "mmql")
    records = [entry_to_record(entry)
               for entry in primary.context.log.entries_since(0)]
    replica = MultiModelDB()
    copy = replica.create_collection("c")
    copy.create_index("v", kind=kind)
    applier = ReplicationApplier(replica)
    applier.bootstrap(replica.context.log.last_lsn)
    applier.apply_records(records)
    assert copy.get("5") == {"_key": "5", "v": 2}
    assert _answers(replica, copy, "1") == ([], [], [])
    assert _answers(replica, copy, 2) == (["5"], ["5"], ["5"])


def test_an_index_drops_what_any_entry_replaced():
    """A log written before the op was derived may hold an INSERT that
    carries a ``before``: the index drops that value's entry all the same."""
    db, docs = _collection("hash")
    db.context.log.append(
        0, LogOp.INSERT, docs.namespace, "5",
        {"_key": "5", "v": 2}, {"_key": "5", "v": "1"})
    assert docs.find_path_equals("v", "1") == []
    assert docs.find_path_equals("v", 2) == [{"_key": "5", "v": 2}]


@pytest.mark.parametrize("kind", KINDS)
def test_equality_with_null_answers_as_a_scan_does(kind):
    db = MultiModelDB()
    docs = db.create_collection("c")
    docs.insert({"_key": "1", "v": None})
    docs.insert({"_key": "2"})
    docs.insert({"_key": "3", "v": 3})
    scanned = sorted(d["_key"] for d in docs.find_path_equals("v", None))
    docs.create_index("v", kind=kind)
    indexed = sorted(d["_key"] for d in docs.find_path_equals("v", None))
    assert scanned == indexed == ["1", "2"]
