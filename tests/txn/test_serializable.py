"""SERIALIZABLE closes write skew through every kind of read.

Two doctors are on call, and at least one must stay on call.  Each of two
concurrent transactions counts the doctors on call, sees two, and takes a
different doctor off call.  Snapshot isolation lets both commit, which
leaves nobody on call.  Under SERIALIZABLE the second commit finds that
something it read changed since it began, and fails with
``SerializationError``.  The count is made through each read path a
transaction has: a point ``get``, an MMQL scan, a hash-index probe, a
one-hop traversal and FULLTEXT.
"""

import sys
import threading

import pytest

from repro import MultiModelDB
from repro.client import ReproClient
from repro.errors import SerializationError
from repro.server import ReproServer
from repro.txn import IsolationLevel

DOCTORS = ("alice", "bob")
ON_CALL = "FOR d IN doctors FILTER d.oncall == true COLLECT WITH COUNT INTO n RETURN n"
TAKE_OFF = "UPDATE @key WITH {oncall: false, notes: 'off duty'} IN doctors"


def _db(index=None):
    db = MultiModelDB()
    doctors = db.create_collection("doctors")
    for key in DOCTORS:
        doctors.insert({"_key": key, "oncall": True, "notes": "oncall tonight"})
    if index == "hash":
        doctors.create_index("oncall", kind="hash")
    if index == "fulltext":
        db.context.indexes.create_index(
            doctors.namespace, ("notes",), kind="fulltext", name="doctors_notes"
        )
    rota = db.create_graph("rota")
    for key in ("ward",) + DOCTORS:
        rota.add_vertex(key)
    for key in DOCTORS:
        rota.add_edge("ward", key, key=key)
    return db


def _on_call_by_get(db, txn):
    return sum(db.collection("doctors").get(key, txn=txn)["oncall"] for key in DOCTORS)


def _on_call_by_query(db, txn):
    (count,) = db.query(ON_CALL, txn=txn).rows
    return count


def _on_call_by_traversal(db, txn):
    (count,) = db.query(
        "FOR v IN 1..1 OUTBOUND 'ward' GRAPH rota COLLECT WITH COUNT INTO n RETURN n",
        txn=txn,
    ).rows
    return count


def _on_call_by_fulltext(db, txn):
    return db.query("RETURN LENGTH(FULLTEXT('doctors_notes', 'oncall'))", txn=txn).rows[0]


def _take_off_by_update(db, txn, key):
    db.query(TAKE_OFF, {"key": key}, txn=txn)


def _take_off_by_edge(db, txn, key):
    assert db.graph("rota").remove_edge(key, txn=txn)


#: name -> (index, count the doctors on call, take one doctor off call)
READS = {
    "get": (None, _on_call_by_get, _take_off_by_update),
    "scan": (None, _on_call_by_query, _take_off_by_update),
    "hash_index": ("hash", _on_call_by_query, _take_off_by_update),
    "traversal": (None, _on_call_by_traversal, _take_off_by_edge),
    "fulltext": ("fulltext", _on_call_by_fulltext, _take_off_by_update),
}


def _skew(read: str, isolation: IsolationLevel):
    """Run the two sign-offs interleaved; returns (db, count, outcomes),
    an outcome being None for a commit and the error otherwise."""
    index, count, take_off = READS[read]
    db = _db(index)
    first, second = db.begin(isolation), db.begin(isolation)
    for txn in (first, second):
        assert count(db, txn) == 2
    for txn, key in zip((first, second), DOCTORS):
        take_off(db, txn, key)
    outcomes = []
    for txn in (first, second):
        try:
            db.commit(txn)
            outcomes.append(None)
        except SerializationError as error:
            outcomes.append(error)
    return db, count, outcomes


def test_the_index_read_is_an_index_scan():
    plan = _db("hash").explain(ON_CALL)
    assert "IndexScan d IN doctors USING hash index" in plan


@pytest.mark.parametrize("read", sorted(READS))
def test_serializable_commits_exactly_one(read):
    db, count, outcomes = _skew(read, IsolationLevel.SERIALIZABLE)
    assert outcomes[0] is None
    assert isinstance(outcomes[1], SerializationError)
    assert "read-write conflict" in str(outcomes[1])
    assert db.context.transactions.active_count == 0
    with db.transaction() as txn:
        assert count(db, txn) == 1


@pytest.mark.parametrize("read", sorted(READS))
def test_snapshot_commits_both(read):
    db, count, outcomes = _skew(read, IsolationLevel.SNAPSHOT)
    assert outcomes == [None, None]
    with db.transaction() as txn:
        assert count(db, txn) == 0


def test_the_error_names_what_was_read():
    db = _db()
    first, second = (db.begin(IsolationLevel.SERIALIZABLE) for _ in range(2))
    for txn in (first, second):
        _on_call_by_query(db, txn)
    _take_off_by_update(db, first, "alice")
    _take_off_by_update(db, second, "bob")
    db.commit(first)
    with pytest.raises(SerializationError, match="doc:doctors:'alice'"):
        db.commit(second)


def test_a_read_only_transaction_commits_unchecked():
    db = _db()
    reader = db.begin(IsolationLevel.SERIALIZABLE)
    assert _on_call_by_query(db, reader) == 2
    with db.transaction() as writer:
        _take_off_by_update(db, writer, "alice")
    assert _on_call_by_query(db, reader) == 2  # its snapshot
    db.commit(reader)


def test_a_commit_to_another_namespace_does_not_invalidate():
    db = _db()
    first, second = (db.begin(IsolationLevel.SERIALIZABLE) for _ in range(2))
    assert _on_call_by_query(db, first) == 2
    db.graph("rota").add_vertex("clinic", txn=second)
    _take_off_by_update(db, first, "alice")
    db.commit(second)
    db.commit(first)


def test_run_retries_into_one_doctor_on_call():
    db = _db()
    manager = db.context.transactions
    doctors = db.collection("doctors")
    attempts = []

    def sign_off(key, rival=None):
        def work(txn):
            attempts.append(key)
            if _on_call_by_query(db, txn) > 1:
                doctors.update(key, {"oncall": False}, txn=txn)
            if rival is not None and attempts.count(key) == 1:
                # The rival signs off while this transaction is open.
                manager.run(sign_off(rival), IsolationLevel.SERIALIZABLE)

        return work

    manager.run(sign_off("alice", rival="bob"), IsolationLevel.SERIALIZABLE, retries=1)
    assert attempts == ["alice", "bob", "alice"]
    assert manager.conflicts == 1
    with db.transaction() as txn:
        assert _on_call_by_query(db, txn) == 1
        assert doctors.get("alice", txn=txn)["oncall"] is True


def test_threads_leave_exactly_one_doctor_on_call():
    """Eight doctors sign off at once, each only while another is on call.
    Every serial order leaves exactly one on call."""
    db = MultiModelDB()
    doctors = db.create_collection("doctors")
    keys = [f"d{index}" for index in range(8)]
    for key in keys:
        doctors.insert({"_key": key, "oncall": True})
    manager = db.context.transactions
    errors = []

    def sign_off(key):
        def work(txn):
            if _on_call_by_query(db, txn) > 1:
                doctors.update(key, {"oncall": False}, txn=txn)

        try:
            manager.run(work, IsolationLevel.SERIALIZABLE, retries=4 * len(keys))
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sign_off, args=(key,)) for key in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    with db.transaction() as txn:
        assert _on_call_by_query(db, txn) == 1


def test_over_the_wire_the_loser_gets_txn_serialization():
    with ReproServer(_db(), port=0) as server:
        with ReproClient(port=server.port, sleep=None) as first, ReproClient(
            port=server.port, sleep=None
        ) as second:
            for client in (first, second):
                client.begin("serializable")
                assert client.query(ON_CALL).fetch_all() == [2]
            for client, key in zip((first, second), DOCTORS):
                client.query(TAKE_OFF, {"key": key}).fetch_all()
            first.commit()
            with pytest.raises(SerializationError) as caught:
                second.commit()
            assert caught.value.code == "TXN_SERIALIZATION"
            assert first.query(ON_CALL).fetch_all() == [1]
