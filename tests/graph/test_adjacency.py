"""The graph's adjacency over rows it did not write itself.

A graph keeps its links in an adjacency maintained from the log.  Edge rows
can reach the shared backend without this graph object numbering or
linking them: WAL recovery, a replica applying the primary's log, or a
graph declared after either.  Generated edge keys skip what is stored, and
a graph declared over stored edges links them at once.
"""

import pytest

from repro import MultiModelDB
from repro.graph import Direction
from repro.replication.apply import ReplicationApplier
from repro.storage.wal import entry_to_record


def _people(db):
    graph = db.create_graph("g")
    for key in ("a", "b", "c"):
        graph.add_vertex(key)
    return graph


def _recovered(tmp_path, declare_first):
    """A fresh database recovered from a WAL holding one edge a -> b, the
    graph declared before or after ``recover``."""
    path = str(tmp_path / "db.wal")
    primary = MultiModelDB()
    primary.attach_wal(path)
    _people(primary).add_edge("a", "b", label="knows")
    primary.close()
    db = MultiModelDB()
    if declare_first:
        db.create_graph("g")
        db.recover(path)
    else:
        db.recover(path)
        db.create_graph("g")
    return db.graph("g")


@pytest.mark.parametrize("declare_first", [True, False])
def test_a_generated_edge_key_skips_the_recovered_ones(tmp_path, declare_first):
    graph = _recovered(tmp_path, declare_first)
    key = graph.add_edge("b", "a")
    assert key != "e1"
    assert graph.edge("e1")["_from"] == "a" and graph.edge(key)["_from"] == "b"
    assert graph.edge_count() == 2


@pytest.mark.parametrize("declare_first", [True, False])
def test_a_graph_declared_either_side_of_recovery_links_the_recovered_edges(
    tmp_path, declare_first
):
    graph = _recovered(tmp_path, declare_first)
    assert graph.edge_count() == 1
    assert graph.neighbors("a") == ["b"]
    assert graph.neighbors("b", Direction.INBOUND) == ["a"]
    assert graph.one_hop(["a", "b"], Direction.ANY, "knows") == {"a": ["b"], "b": ["a"]}
    assert graph.shortest_path("b", "a", Direction.INBOUND) == ["b", "a"]


@pytest.mark.parametrize("declare_first", [True, False])
def test_a_replica_that_applied_the_log_numbers_and_links_past_it(declare_first):
    primary = MultiModelDB()
    _people(primary).add_edge("a", "b")
    records = [entry_to_record(entry) for entry in primary.context.log.entries_since(0)]
    replica = MultiModelDB()
    if declare_first:
        replica.create_graph("g")
    applier = ReplicationApplier(replica)
    applier.bootstrap(replica.context.log.last_lsn)
    applier.apply_records(records)
    graph = replica.graph("g") if declare_first else replica.create_graph("g")
    assert graph.neighbors("a") == ["b"]
    key = graph.add_edge("b", "c")  # the promoted replica takes a write
    assert key != "e1"
    assert graph.neighbors("b", Direction.ANY) == ["a", "c"]


def test_a_one_hop_traversal_reads_no_edge_record():
    db = MultiModelDB()
    graph = _people(db)
    graph.add_edge("a", "b", label="knows")
    graph.add_edge("a", "c", label="likes")
    rows, reads = db.context.rows, []
    get = rows.get
    rows.get = lambda namespace, key: reads.append(namespace) or get(namespace, key)
    try:
        assert graph.one_hop(["a"], label="knows") == {"a": ["b"]}
        assert graph.traverse("a", 1, 2, Direction.ANY) == [("b", 1), ("c", 1)]
        assert graph.degree("a") == 2
    finally:
        del rows.get
    assert graph.edge_namespace not in reads


def test_a_transaction_sees_its_snapshot_of_the_links():
    db = MultiModelDB()
    graph = _people(db)
    moved = graph.add_edge("a", "b", label="knows")
    txn = db.begin()
    graph.add_edge("a", "c", label="knows", txn=txn)
    # Committed after txn began: latest moves the edge, the snapshot not.
    graph._edges._put(moved, {"_key": moved, "_from": "c", "_to": "b", "label": "knows"})
    assert graph.neighbors("a", txn=txn) == ["b", "c"]
    assert [edge["_to"] for edge in graph.edges_of("a", txn=txn)] == ["b", "c"]
    assert graph.neighbors("c", txn=txn) == []
    assert graph.neighbors("a") == []
    assert graph.neighbors("c") == ["b"]
    db.abort(txn)
