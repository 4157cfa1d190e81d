"""Stateful differential: the graph's adjacency against a brute-force walk.

A hypothesis state machine adds, removes and moves edges (new endpoints or
a new label, self-loops and parallel edges included) and removes vertices
with their edges, in autocommit and inside transactions that commit or
abort while a second session commits between ``begin`` and the reads.
After every step, every read that goes through the adjacency
(``neighbors``, ``one_hop``, ``edges_of``, ``degree``, both traversals,
``shortest_path``) equals the same answer computed from ``edges(txn)`` by
brute force, in every direction and for every label, both for the open
transaction and for autocommit; and the adjacency equals one a fresh graph
object builds from the row view.  The seed is fixed, so the run repeats.
"""

from collections import deque

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import MultiModelDB
from repro.errors import PrimaryKeyError, SerializationError, UnknownCollectionError
from repro.graph import Direction, PropertyGraph
from repro.txn import IsolationLevel

VERTICES = ("a", "b", "c", "d")
LABELS = (None, "x", "y")
vertices = st.sampled_from(VERTICES)
labels = st.sampled_from(("", "x", "y"))
#: A key from a small pool (parallel edges, re-used keys) or a generated one.
edge_keys = st.sampled_from(("k1", "k2", "k3", None))


def _brute_neighbors(edges, key, direction, label):
    found = set()
    for edge in edges:
        if label is not None and edge.get("label") != label:
            continue
        if direction != Direction.INBOUND and edge["_from"] == key:
            found.add(edge["_to"])
        if direction != Direction.OUTBOUND and edge["_to"] == key:
            found.add(edge["_from"])
    return sorted(found)


def _brute_edges_of(edges, key, direction, label):
    return sorted(
        (edge for edge in edges
         if (label is None or edge.get("label") == label)
         and (direction != Direction.INBOUND and edge["_from"] == key
              or direction != Direction.OUTBOUND and edge["_to"] == key)),
        key=lambda edge: edge["_key"],
    )


def _brute_bfs(edges, start, direction, label):
    """Vertex -> (depth, parent) in BFS order over sorted neighbours."""
    found = {start: (0, None)}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in _brute_neighbors(edges, current, direction, label):
            if neighbor not in found:
                found[neighbor] = (found[current][0] + 1, current)
                queue.append(neighbor)
    return found


def _brute_discovery(edges, start, direction, label):
    """Vertex -> (depth, the edge that discovered it) in BFS order, each
    vertex's edges in edge-key order."""
    found = {start: (0, None)}
    queue = deque([start])
    while queue and found[queue[0]][0] < 3:
        current = queue.popleft()
        for edge in _brute_edges_of(edges, current, direction, label):
            ends = []
            if direction != Direction.INBOUND and edge["_from"] == current:
                ends.append(edge["_to"])
            if direction != Direction.OUTBOUND and edge["_to"] == current:
                ends.append(edge["_from"])
            for end in ends:
                if end not in found:
                    found[end] = (found[current][0] + 1, edge)
                    queue.append(end)
    return sorted((vertex, depth, edge) for vertex, (depth, edge) in found.items() if depth)


class GraphMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = MultiModelDB()
        self.graph = self.db.create_graph("g")
        for key in VERTICES:
            self.graph.add_vertex(key)
        self.txn = None

    # -- sessions ------------------------------------------------------------

    def _session(self, in_txn):
        """The open transaction, or autocommit: the second session."""
        return self.txn if in_txn else None

    @precondition(lambda self: self.txn is None)
    @rule(isolation=st.sampled_from(list(IsolationLevel)))
    def begin(self, isolation):
        self.txn = self.db.begin(isolation)

    @precondition(lambda self: self.txn is not None)
    @rule(commit=st.booleans())
    def finish(self, commit):
        txn, self.txn = self.txn, None
        if not commit:
            self.db.abort(txn)
            return
        try:
            self.db.commit(txn)
        except SerializationError:
            pass  # the second session wrote what this one read or wrote

    # -- writes ----------------------------------------------------------------

    @rule(tail=vertices, head=vertices, label=labels, key=edge_keys, in_txn=st.booleans())
    def add_edge(self, tail, head, label, key, in_txn):
        try:
            self.graph.add_edge(tail, head, label, key=key, txn=self._session(in_txn))
        except (PrimaryKeyError, UnknownCollectionError):
            pass

    @rule(pick=st.integers(0, 7), in_txn=st.booleans())
    def remove_edge(self, pick, in_txn):
        txn = self._session(in_txn)
        keys = sorted(edge["_key"] for edge in self.graph.edges(txn))
        if keys:
            assert self.graph.remove_edge(keys[pick % len(keys)], txn)

    @rule(pick=st.integers(0, 7), tail=vertices, head=vertices, label=labels,
          in_txn=st.booleans())
    def move_edge(self, pick, tail, head, label, in_txn):
        """The edge document rewritten to new endpoints or a new label."""
        txn = self._session(in_txn)
        keys = sorted(edge["_key"] for edge in self.graph.edges(txn))
        if keys:
            key = keys[pick % len(keys)]
            document = {"_key": key, "_from": tail, "_to": head}
            if label:
                document["label"] = label
            self.graph._edges._put(key, document, txn)

    @rule(key=vertices, in_txn=st.booleans())
    def toggle_vertex(self, key, in_txn):
        """Remove a vertex with its edges, or bring a removed one back."""
        txn = self._session(in_txn)
        if not self.graph.remove_vertex(key, txn):
            self.graph.add_vertex(key, txn=txn)

    # -- the differential ----------------------------------------------------------

    def _check(self, txn):
        graph = self.graph
        edges = list(graph.edges(txn))
        present = [key for key in VERTICES if graph.has_vertex(key, txn)]
        for direction in Direction.ALL:
            for label in LABELS:
                hops = graph.one_hop(list(VERTICES), direction, label, txn)
                for key in VERTICES:
                    expected = _brute_neighbors(edges, key, direction, label)
                    assert graph.neighbors(key, direction, label, txn) == expected
                    assert hops[key] == [v for v in expected if v != key]
                    assert list(graph.edges_of(key, direction, label, txn)) == \
                        _brute_edges_of(edges, key, direction, label)
                    walk = _brute_discovery(edges, key, direction, label)
                    assert graph.traverse_with_edges(key, 1, 3, direction, label, txn) == walk
                    assert graph.traverse(key, 1, 3, direction, label, txn) == [
                        (vertex, depth) for vertex, depth, _edge in walk]
                    if label is None:
                        assert graph.degree(key, direction, txn) == len(
                            _brute_edges_of(edges, key, direction, None))
            for start in present[:2]:
                walk = _brute_bfs(edges, start, direction, None)
                for goal in VERTICES:
                    path = None
                    if goal in walk:
                        path = [goal]
                        while path[-1] != start:
                            path.append(walk[path[-1]][1])
                        path.reverse()
                    assert graph.shortest_path(start, goal, direction, txn) == path

    @invariant()
    def reads_equal_a_brute_force_walk(self):
        self._check(None)
        if self.txn is not None:
            self._check(self.txn)

    @invariant()
    def the_adjacency_equals_a_fresh_build(self):
        fresh = PropertyGraph(self.db.context, "g")._adjacency.by_end
        held = self.graph._adjacency.by_end

        def contents(by_end):
            return {end: {vertex: sorted(links) for vertex, links in table.items()}
                    for end, table in by_end.items()}

        assert contents(held) == contents(fresh)


GraphMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, derandomize=True, database=None,
    deadline=None,
)
TestGraphDifferential = GraphMachine.TestCase
