"""Routed fan-out: the central log hands an entry only to the subscribers
of its namespace and to those that take every namespace.

Before routing every subscriber was handed every entry and skipped the
foreign ones itself, so what each one *acted on* was the log filtered to
its namespaces, in LSN order.  These tests pin exactly that: every
subscriber of a real engine now receives that sequence and nothing else —
over a mixed-namespace workload, a ``DROP_NAMESPACE``, an index dropped
through :class:`IndexManager` and a view created late and caught up.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.evolution.sinew import UniversalRelation
from repro.indexes.hashindex import ExtendibleHashIndex
from repro.indexes.multimodel import KvHop, MultiModelJoinIndex
from repro.objectmodel.globals import GlobalsStore
from repro.rdf.store import TripleStore
from repro.spatial.store import SpatialStore
from repro.storage.log import CentralLog, LogOp
from repro.storage.segments import SegmentManager
from repro.storage.views import IndexView, StorageView

# Every log-callback method in the engine: the class and the namespaces
# whose entries an instance acts on (None: all of them).
_CALLBACKS = {
    StorageView: ("apply", lambda view: None if view.namespace is None else {view.namespace}),
    SegmentManager: ("apply", lambda view: set(view._spaces)),
    TripleStore: ("_on_log_entry", lambda store: {store.namespace}),
    SpatialStore: ("_on_log_entry", lambda store: {store.namespace}),
    GlobalsStore: ("_on_log_entry", lambda store: {store.namespace}),
    UniversalRelation: ("_on_log_entry", lambda relation: {relation.namespace}),
    MultiModelJoinIndex: ("_on_log_entry", lambda index: set(index._watched)),
}


@pytest.fixture()
def received(monkeypatch):
    """Record, per subscriber object, every entry the log hands it."""
    seen: dict[int, tuple[object, list]] = {}
    for cls, (method, _wanted) in _CALLBACKS.items():
        original = cls.__dict__.get(method)
        if original is None:  # inherited: recorded where it is defined
            continue

        def recording(self, entry, _original=original):
            seen.setdefault(id(self), (self, []))[1].append(entry)
            return _original(self, entry)

        monkeypatch.setattr(cls, method, recording)
    return seen


def _wanted(subscriber):
    for cls in type(subscriber).__mro__:
        if cls in _CALLBACKS:
            return _CALLBACKS[cls][1](subscriber)
    raise AssertionError(f"unexpected subscriber {subscriber!r}")


def _expected(entries, namespaces):
    return [entry for entry in entries
            if namespaces is None or entry.namespace in namespaces]


def _engine():
    db = MultiModelDB()
    db.create_table(TableSchema(
        "customers",
        [Column("id", ColumnType.INTEGER, nullable=False), Column("city")],
        primary_key="id",
    ))
    db.create_collection("orders")
    db.create_bucket("cart")
    db.create_graph("social")
    db.create_triple_store("vendors")
    db.create_spatial("shops")
    db.create_object_store("objects")
    context = db.context
    context.indexes.create_index("doc:orders", ("customer_id",), kind="hash")
    context.indexes.create_index("doc:orders", ("total",), kind="btree")
    context.indexes.create_index("rel:customers", ("city",), kind="hash")
    # The log holds its subscribers weakly: these live as long as the db.
    db.relation = UniversalRelation(context.log, context.rows, "doc:orders")
    db.join_index = MultiModelJoinIndex(
        context.log, context.rows, "rel:customers", [KvHop("kv:cart")]
    )
    return db


def _mixed_workload(db):
    customers, orders, cart = db.table("customers"), db.collection("orders"), db.bucket("cart")
    for i in range(1, 6):
        customers.insert({"id": i, "city": ["Prague", "Brno"][i % 2]})
        db.graph("social").add_vertex(str(i))
    db.graph("social").add_edge("1", "2", label="knows")
    db.triple_store("vendors").add("v1", "sells", "p1")
    db.spatial("shops").put_point("s1", 1.0, 2.0)
    db.resolve("objects").globals.set(("c", 1), "x")
    for i in range(1, 6):
        with db.transaction() as txn:
            orders.insert({"_key": f"o{i}", "customer_id": i, "total": i * 10}, txn=txn)
            cart.put(str(i), f"o{i}", txn=txn)
            customers.update(i, {"city": "Ostrava"}, txn=txn)
    txn = db.begin()
    orders.insert({"_key": "never", "customer_id": 9, "total": 1}, txn=txn)
    db.abort(txn)
    orders.delete("o2")
    cart.delete("3")


def _all_entries(db, since):
    return list(db.context.log.entries_since(since))


def _check_every_subscriber(log, entries, received):
    """Each subscriber still registered got exactly its namespaces' part of
    *entries*, in LSN order; returns how many were checked."""
    subscribers = {id(owner()): owner() for owner, _function, _namespace in log._subscribers}
    for key, subscriber in subscribers.items():
        got = received.get(key, (subscriber, []))[1]
        assert got == _expected(entries, _wanted(subscriber)), subscriber
    return len(subscribers)


def test_mixed_namespaces_reach_only_their_subscribers(received):
    db = _engine()
    start = db.context.log.last_lsn
    received.clear()
    _mixed_workload(db)
    entries = _all_entries(db, start)
    assert {entry.namespace for entry in entries} >= {
        "", "rel:customers", "doc:orders", "kv:cart", "rdf:vendors", "geo:shops"}
    # The row view, the segments, three index views, the graph's adjacency,
    # the triple, spatial and globals stores, Sinew's relation, the join
    # index.
    assert _check_every_subscriber(db.context.log, entries, received) == 11
    # What the routed subscribers maintain is what the rows say.
    index = db.context.indexes.find("doc:orders", ("customer_id",))
    assert index.search(2) == [] and index.search(4) == ["o4"]
    assert db.context.indexes.find("rel:customers", ("city",)).search("Ostrava") == [
        1, 2, 3, 4, 5]


def test_drop_namespace_reaches_only_its_subscribers(received):
    db = _engine()
    _mixed_workload(db)
    vendors = db.triple_store("vendors")
    start = db.context.log.last_lsn
    received.clear()
    db.drop("orders")
    db.drop("vendors")
    db.table("customers").insert({"id": 9, "city": "Prague"})
    entries = _all_entries(db, start)
    assert [entry.op for entry in entries[:2]] == [LogOp.DROP_NAMESPACE] * 2
    assert _check_every_subscriber(db.context.log, entries, received) == 11
    assert db.context.indexes.find("doc:orders", ("customer_id",)).search(4) == []
    assert vendors.match() == []
    assert db.context.indexes.find("rel:customers", ("city",)).search("Prague") == [9]


def test_a_dropped_index_receives_nothing_more(received):
    db = _engine()
    manager = db.context.indexes
    view = manager.find("doc:orders", ("customer_id",))
    start = db.context.log.last_lsn
    received.clear()
    db.collection("orders").insert({"_key": "a", "customer_id": 1, "total": 5})
    middle = db.context.log.last_lsn
    manager.drop_index(view.index.name)
    db.collection("orders").insert({"_key": "b", "customer_id": 1, "total": 6})
    entries = _all_entries(db, start)
    before_drop = [entry for entry in entries if entry.lsn <= middle]
    assert received[id(view)][1] == _expected(before_drop, {"doc:orders"})
    assert view.search(1) == ["a"]
    assert _check_every_subscriber(db.context.log, entries, received) == 10
    with pytest.raises(ValueError):
        db.context.log.unsubscribe(view.apply, view.namespace)


def test_a_late_view_catches_up_on_its_namespace_only(received):
    log = CentralLog()
    for i in range(6):
        log.append(1, LogOp.INSERT, "t" if i % 2 else "u", i, {"n": i % 3})
    log.append(1, LogOp.COMMIT)
    view = IndexView(log, "t", ("n",), ExtendibleHashIndex())
    assert view.catch_up() == 3
    log.append(2, LogOp.INSERT, "u", 10, {"n": 1})
    log.append(2, LogOp.INSERT, "t", 11, {"n": 1})
    assert view.catch_up() == 0
    assert received[id(view)][1] == [entry for entry in log if entry.namespace == "t"]
    assert sorted(view.search(1)) == [1, 11]
    assert view.search(0) == [3]


def test_registration_order_is_kept_among_receivers():
    log = CentralLog()
    calls = []
    for name, namespace in (("a", "x"), ("all", None), ("b", "x"), ("c", "y")):
        log.subscribe(lambda entry, name=name: calls.append((name, entry.namespace)),
                      namespace)
    log.append(1, LogOp.INSERT, "x", 1, {})
    log.append(1, LogOp.INSERT, "y", 1, {})
    log.append(1, LogOp.COMMIT)
    assert calls == [("a", "x"), ("all", "x"), ("b", "x"),
                     ("all", "y"), ("c", "y"), ("all", "")]


def test_the_log_keeps_no_subscriber_alive():
    """A view nothing else holds is dropped from the log, and a dropped
    engine is freed by reference counting, without the cycle collector."""
    log = CentralLog()
    kept = IndexView(log, "t", ("n",), ExtendibleHashIndex())
    IndexView(log, "t", ("n",), ExtendibleHashIndex())  # nothing holds it
    seen = []
    log.subscribe(seen.append, "t")  # a bound method of a list: held as is
    log.append(1, LogOp.INSERT, "t", 1, {"n": 1})
    assert kept.search(1) == [1] and len(seen) == 1
    log.subscribe(lambda entry: None)
    assert len(log._subscribers) == 3

    gc.disable()
    try:
        db = _engine()
        _mixed_workload(db)
        engine = weakref.ref(db.context)
        del db
        assert engine() is None
    finally:
        gc.enable()


def test_routes_hold_under_subscription_churn():
    """Committers append (serialized, as the commit mutex does) while another
    thread subscribes and unsubscribes views: a subscriber that stays gets
    every entry of its namespace exactly once, in order."""
    log = CentralLog()
    steady = []
    log.subscribe(steady.append, "t")
    commit_lock = threading.Lock()
    stop = threading.Event()

    def commit(worker):
        for i in range(400):
            with commit_lock:
                log.append(worker, LogOp.INSERT, "tu"[i % 2], (worker, i), {})

    def churn():
        while not stop.is_set():
            view = IndexView(log, "t", ("n",), ExtendibleHashIndex())
            log.unsubscribe(view.apply, "t")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        churner = threading.Thread(target=churn, daemon=True)
        churner.start()
        workers = [threading.Thread(target=commit, args=(w,)) for w in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        stop.set()
        churner.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not churner.is_alive() and not any(w.is_alive() for w in workers)
    assert steady == [entry for entry in log if entry.namespace == "t"]
    assert len(steady) == 800
