"""Every access path inside a transaction against the chain walk.

A transaction reads through the structures autocommit reads — the row
view and its primary keys, the point / GIN indexes, the graph adjacency, the R-tree, the RDF
layouts, the globals order directory — and the visibility rule corrects
their latest answers to its snapshot.  Here each path's answer is compared,
as a bag, with the one a reference computes from the version chains the
way the transaction manager's scan used to: every chain walked under the
commit mutex to the version the transaction sees, then its own writes.

The changes are made after ``begin``: the transaction's own writes, then a
second session's commits (inserts, deletes, indexed values moved into and
out of a probe, an edge added and one removed, a geometry moved across the
window), then an index created.
"""

import os
import sys
import threading

import pytest

from repro import Column, ColumnType, MultiModelDB, TableSchema
from repro.core import datamodel
from repro.graph.store import Direction
from repro.objectmodel.globals import GlobalsStore
from repro.spatial.rtree import Rect
from repro.spatial.store import geometry_to_rect
from repro.storage.log import LogOp

CITIES = ["Prague", "Brno", "Oslo", "Rome"]
TAGS = ["red", "green", "blue"]
WINDOW = (0.0, 0.0, 5.5, 5.5)


def reference(db, txn, namespace) -> dict:
    """*namespace* as *txn* sees it, by the full chain walk."""
    manager = db.context.transactions
    seen = {}
    with manager.exclusive():
        for key, newest in manager._versions.get(namespace, {}).items():
            value = manager._visible_value(txn, newest)
            if value is not None:
                seen[key] = value
    for (written, key), pending in txn.writes.items():
        if written == namespace:
            if pending.op is LogOp.DELETE:
                seen.pop(key, None)
            else:
                seen[key] = pending.value
    return seen


def bag(items) -> list:
    return sorted(datamodel.canonical_json(item) for item in items)


def build() -> MultiModelDB:
    db = MultiModelDB()
    db.create_table(
        TableSchema(
            "people",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("city", ColumnType.STRING),
                Column("n", ColumnType.INTEGER),
            ],
            primary_key="id",
        )
    )
    people = db.table("people")
    people.create_index("city", kind="hash")
    for i in range(24):
        people.insert({"id": i, "city": CITIES[i % 4], "n": i})
    docs = db.create_collection("docs")
    docs.create_index()  # GIN over the whole document
    docs.create_index("tag", kind="hash")
    for i in range(24):
        docs.insert({"_key": f"d{i}", "tag": TAGS[i % 3], "color": TAGS[(i + 1) % 3]})
    graph = db.create_graph("g")
    for i in range(12):
        graph.add_vertex(f"v{i}", {"n": i})
    for i in range(12):
        graph.add_edge(f"v{i}", f"v{(i + 1) % 12}", "knows", key=f"k{i}")
        graph.add_edge(f"v{i}", f"v{(i + 5) % 12}", "likes", key=f"l{i}")
    geo = db.create_spatial("geo")
    for i in range(12):
        geo.put_point(f"p{i}", i, i)
    geo.put_box("b0", 4.3, 3.7, 7.1, 6.6)
    globs = GlobalsStore(db.context, "glob")
    for person in range(6):
        globs.set(("P", person), f"person {person}")
        globs.set(("P", person, "name"), f"name {person}")
    globs.set(("Q", 1), "q")
    triples = db.create_triple_store("rdf")
    for i in range(10):
        triples.add(f"s{i % 4}", "likes" if i % 2 else "knows", f"o{i % 3}")
    db.create_bucket("kv")
    for i in range(8):
        db.bucket("kv").put(f"c{i}", i)
    db.globs = globs
    return db


def own_writes(db, txn) -> None:
    people = db.table("people")
    people.insert({"id": 200, "city": "Brno", "n": 200}, txn=txn)
    people.update(3, {"city": "Brno"}, txn=txn)  # into the Brno probe
    people.update(5, {"city": "Oslo"}, txn=txn)  # out of the Brno probe
    people.delete(9, txn=txn)
    docs = db.collection("docs")
    docs.insert({"_key": "mine", "tag": "red", "color": "blue"}, txn=txn)
    docs.update("d4", {"tag": "red"}, txn=txn)  # green -> red
    docs.update("d6", {"tag": "green", "color": "red"}, txn=txn)  # red -> green
    docs.delete("d7", txn=txn)
    graph = db.graph("g")
    graph.add_edge("v2", "v9", "knows", key="mine", txn=txn)
    graph.remove_edge("k3", txn=txn)
    geo = db.spatial("geo")
    geo.put_point("p2", 9, 9, txn=txn)  # out of the window
    geo.put_point("p10", 1, 2, txn=txn)  # into it
    geo.put_point("own", 0.5, 0.5, txn=txn)
    db.globs.set(("P", 1, "age"), 41, txn=txn)
    db.globs.kill(("P", 2), txn=txn)
    db.globs.set(("P", 2.5), "between", txn=txn)
    triples = db.triple_store("rdf")
    triples.add("s1", "likes", "o9", txn=txn)
    triples.remove("s0", "knows", "o0", txn=txn)
    db.bucket("kv").put("mine", 1, txn=txn)
    db.bucket("kv").delete("c1", txn=txn)


def second_session(db) -> None:
    other = db.begin()
    people = db.table("people")
    people.insert({"id": 300, "city": "Brno", "n": 300}, txn=other)
    people.update(12, {"city": "Brno"}, txn=other)  # Prague -> Brno
    people.update(13, {"city": "Rome"}, txn=other)  # Brno -> Rome
    people.delete(17, txn=other)  # Brno
    docs = db.collection("docs")
    docs.insert({"_key": "theirs", "tag": "red", "color": "green"}, txn=other)
    docs.update("d10", {"tag": "red", "color": "red"}, txn=other)  # green -> red
    docs.update("d12", {"tag": "blue"}, txn=other)  # red -> blue
    docs.delete("d15", txn=other)
    graph = db.graph("g")
    graph.add_vertex("v12", {"n": 12}, txn=other)
    graph.add_edge("v10", "v12", "knows", key="theirs", txn=other)
    graph.remove_edge("k6", txn=other)
    graph.remove_edge("l7", txn=other)
    geo = db.spatial("geo")
    geo.put_point("p4", 20, 20, txn=other)  # out of the window
    geo.put_point("p11", 3, 1, txn=other)  # into it
    geo.delete("p5", txn=other)
    geo.put_point("theirs", 0.2, 0.1, txn=other)
    db.globs.set(("P", 4, "age"), 44, other)
    db.globs.kill(("P", 3), other)
    db.globs.set(("P", 3.5), "later", other)
    triples = db.triple_store("rdf")
    triples.add("s1", "knows", "o7", txn=other)
    triples.remove("s2", "knows", "o2", txn=other)
    db.bucket("kv").put("theirs", 1, txn=other)
    db.bucket("kv").delete("c2", txn=other)
    db.commit(other)


def check_rows(db, txn) -> None:
    """The row view: every store's scan."""
    for name in ("people", "docs", "kv", "geo", "rdf"):
        store = db.resolve(name)
        expected = reference(db, txn, store.namespace)
        assert bag(store._raw_scan(txn)) == bag(expected.items()), name
    assert db.table("people").count(txn) == len(reference(db, txn, "rel:people"))


def check_indexes(db, txn) -> None:
    people = reference(db, txn, "rel:people").values()
    for city in CITIES:
        expected = [row for row in people if row["city"] == city]
        assert bag(db.table("people").where_equals("city", city, txn=txn)) == bag(expected)
        result = db.query(
            "FOR p IN people FILTER p.city == @city RETURN p", {"city": city}, txn=txn
        )
        assert result.stats["index_lookups"] == 1
        assert bag(result.rows) == bag(expected)
    docs = db.collection("docs")
    documents = reference(db, txn, docs.namespace).values()
    for tag in TAGS:
        expected = [document for document in documents if document["tag"] == tag]
        assert bag(docs.find_path_equals("tag", tag, txn=txn)) == bag(expected)
        assert bag(docs.find_contains({"tag": tag}, txn=txn)) == bag(expected)
        result = db.query(
            "FOR d IN docs FILTER d.tag == @tag RETURN d", {"tag": tag}, txn=txn
        )
        assert result.stats["index_lookups"] == 1
        assert bag(result.rows) == bag(expected)
        colored = [document for document in documents if document["color"] == tag]
        result = db.query(
            "FOR d IN docs FILTER d.color == @tag RETURN d", {"tag": tag}, txn=txn
        )
        assert bag(result.rows) == bag(colored)


#: Primary keys probed by MMQL: present, written in the transaction,
#: written by the second session, deleted by either, and absent.
KEY_PROBES = {
    "people": ("id", [*range(24), 200, 300, 999]),
    "docs": ("_key", [*(f"d{i}" for i in range(24)), "mine", "theirs", "nope"]),
    "kv": ("_key", [*(f"c{i}" for i in range(8)), "mine", "theirs", "nope"]),
}


def check_keys(db, txn) -> None:
    """Each primary key probed with index selection on (a keyed read) and
    off (a scan)."""
    for name, (attribute, keys) in KEY_PROBES.items():
        records = reference(db, txn, db.resolve(name).namespace)
        text = f"FOR r IN {name} FILTER r.{attribute} == @key RETURN r"
        for key in keys:
            record = records.get(key)
            if record is None:
                expected = []
            elif name == "kv":
                expected = [{"_key": key, "value": record["value"]}]
            else:
                expected = [record]
            for probe in (True, False):
                if not probe:
                    db.optimizer_rules.disable("index_selection")
                try:
                    result = db.query(text, {"key": key}, txn=txn)
                finally:
                    db.optimizer_rules.enable("index_selection")
                assert result.rows == expected, (name, key, probe)
                assert result.stats["index_lookups"] == int(probe)


def check_graph(db, txn) -> None:
    graph = db.graph("g")
    edges = list(reference(db, txn, graph.edge_namespace).values())
    vertices = reference(db, txn, graph.vertex_namespace)
    starts = sorted(vertices) + ["v13"]
    ends = {
        Direction.OUTBOUND: [("_from", "_to")],
        Direction.INBOUND: [("_to", "_from")],
        Direction.ANY: [("_from", "_to"), ("_to", "_from")],
    }
    for direction, sides in ends.items():
        for label in (None, "knows"):
            wanted = [e for e in edges if label is None or e.get("label") == label]
            for start in starts:
                expected = [
                    e for e in wanted if any(e[near] == start for near, _far in sides)
                ]
                found = list(graph.edges_of(start, direction, label, txn=txn))
                assert bag(found) == bag(expected), (start, direction, label)
            hops = graph.one_hop(starts, direction, label, txn=txn)
            for start in starts:
                expected = {
                    e[far] for e in wanted for near, far in sides if e[near] == start
                } - {start}
                assert hops[start] == sorted(expected), (start, direction, label)
    for start in sorted(vertices):
        expected = sorted(
            e["_to"] for e in edges
            if e["_from"] == start and e.get("label") == "knows"
            and e["_to"] != start and e["_to"] in vertices
        )
        result = db.query(
            "FOR f IN 1..1 OUTBOUND @start GRAPH g LABEL 'knows' RETURN f._key",
            {"start": start},
            txn=txn,
        )
        assert sorted(result.rows) == expected, start


def check_spatial(db, txn) -> None:
    geo = db.spatial("geo")
    records = reference(db, txn, geo.namespace)
    rects = {key: geometry_to_rect(record["geometry"]) for key, record in records.items()}
    query = Rect(*WINDOW)
    assert geo.window(*WINDOW, txn=txn) == sorted(
        key for key, rect in rects.items() if rect.intersects(query)
    )
    assert geo.within(*WINDOW, txn=txn) == sorted(
        key for key, rect in rects.items() if query.contains(rect)
    )
    for x, y, k in ((0.0, 0.0, 3), (6.3, 5.1, 4), (30.0, 30.0, 2), (1.1, 0.7, 40)):
        scored = sorted((rect.min_distance_to(x, y), key) for key, rect in rects.items())
        found = geo.nearest(x, y, k, txn=txn)
        assert sorted(found, key=lambda pair: (pair[1], pair[0])) == [
            (key, d) for d, key in scored[:k]
        ]


def check_globals(db, txn) -> None:
    globs = db.globs
    records = sorted(
        reference(db, txn, globs.namespace).values(),
        key=lambda record: datamodel.SortKey(record["subs"]),
    )
    for prefix in (("P",), ("P", 1), ("P", 2), ("P", 3), ("Q",)):
        expected = [
            (tuple(r["subs"]), r["value"]) for r in records
            if tuple(r["subs"][: len(prefix)]) == prefix
        ]
        assert list(globs.walk(prefix, txn=txn)) == expected, prefix
    for subscripts in (("P", 0), ("P", 1), ("P", 2), ("P", 2.5), ("P", 3), ("P", 5), ("P",), ("Q", 1)):
        parent, current = list(subscripts[:-1]), subscripts[-1]
        later = [
            r["subs"][len(parent)] for r in records
            if len(r["subs"]) > len(parent) and r["subs"][: len(parent)] == parent
            and datamodel.compare(r["subs"][len(parent)], current) > 0
        ]
        expected = min(later, key=datamodel.SortKey, default=None)
        assert globs.order(subscripts, txn=txn) == expected, subscripts


def check_rdf(db, txn) -> None:
    store = db.triple_store("rdf")
    triples = [tuple(v) for v in reference(db, txn, store.namespace).values()]
    patterns = [
        ("s1", "likes", "?o"), ("s1", "?p", "?o"), ("?s", "knows", "o2"),
        ("?s", "?p", "o0"), ("?s", "?p", "?o"), ("s0", "knows", "o0"),
        ("s1", "knows", "o7"),
    ]
    for pattern in patterns:
        expected = sorted(
            t for t in triples
            if all(term.startswith("?") or term == value for term, value in zip(pattern, t))
        )
        assert store.match(*pattern, txn=txn) == expected, pattern


CHECKS = (check_rows, check_indexes, check_keys, check_graph, check_spatial, check_globals, check_rdf)


@pytest.mark.parametrize("isolation", ["snapshot", "serializable", "read_committed"])
def test_access_paths_match_the_chain_walk(isolation):
    db = build()
    txn = db.begin(isolation)
    for check in CHECKS:
        check(db, txn)
    own_writes(db, txn)
    for check in CHECKS:
        check(db, txn)
    second_session(db)
    db.collection("docs").create_index("color", kind="hash")  # after begin
    for check in CHECKS:
        check(db, txn)
    result = db.query("FOR d IN docs FILTER d.color == 'red' RETURN d", txn=txn)
    assert result.stats["index_lookups"] == 1
    db.abort(txn)


def test_snapshot_hides_the_second_session():
    db = build()
    txn = db.begin()
    before = db.query("FOR p IN people FILTER p.city == 'Brno' RETURN p.id", txn=txn).rows
    second_session(db)
    after = db.query("FOR p IN people FILTER p.city == 'Brno' RETURN p.id", txn=txn).rows
    assert sorted(after) == sorted(before)
    fresh = db.query("FOR p IN people FILTER p.city == 'Brno' RETURN p.id").rows
    assert sorted(fresh) != sorted(before)
    db.abort(txn)


def test_read_committed_sees_the_second_session():
    db = build()
    txn = db.begin("read_committed")
    second_session(db)
    inside = db.query("FOR p IN people FILTER p.city == 'Brno' RETURN p.id", txn=txn).rows
    outside = db.query("FOR p IN people FILTER p.city == 'Brno' RETURN p.id").rows
    assert sorted(inside) == sorted(outside)
    db.abort(txn)


def test_reader_under_concurrent_index_key_moves():
    """One snapshot reader probes an index and the adjacency while writers
    move indexed values of the same namespaces and add edges; every read
    must equal the reader's first.  Each write changes a key for the first
    time since the reader began, which is when the rule's ordering matters:
    its changed set is taken after the structure's read — taken before it,
    a commit landing in between would leak in or drop out."""
    db = build()
    writers = (os.cpu_count() or 1) + 1
    moves = 300  # keys per writer, each moved once
    docs = db.collection("docs")
    graph = db.graph("g")
    for w in range(writers):
        for i in range(moves):
            docs.insert({"_key": f"w{w}-{i}", "tag": "red" if i % 2 else "blue"})
    query = "FOR d IN docs FILTER d.tag == 'red' RETURN d._key"
    starts = ["v0", "v1"]
    reader = db.begin()
    expected_rows = sorted(db.query(query, txn=reader).rows)
    expected_hops = graph.one_hop(starts, Direction.OUTBOUND, "knows", txn=reader)
    stop = threading.Event()
    errors: list = []
    reads = [0]

    def read():
        try:
            while not stop.is_set():
                assert sorted(db.query(query, txn=reader).rows) == expected_rows
                hops = graph.one_hop(starts, Direction.OUTBOUND, "knows", txn=reader)
                assert hops == expected_hops
                reads[0] += 1
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    def write(w):
        try:
            for i in range(moves):
                if stop.is_set():
                    return
                docs.update(f"w{w}-{i}", {"tag": "blue" if i % 2 else "red"})
                graph.add_vertex(f"n{w}-{i}")
                graph.add_edge(starts[i % 2], f"n{w}-{i}", "knows", key=f"m{w}-{i}")
        except BaseException as error:
            errors.append(error)

    threads = [threading.Thread(target=read)]
    threads += [threading.Thread(target=write, args=(w,)) for w in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads[1:]:
            thread.join(timeout=20)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=20)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert reads[0] > 0
    assert sorted(db.query(query, txn=reader).rows) == expected_rows
    db.abort(reader)
