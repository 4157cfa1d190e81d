"""Property graph store (the ArangoDB/OrientDB/Neo4j model).

Following ArangoDB's design (slide 25: "since vertices and edges of graphs
are documents, this allows to mix all three data models"), vertices and
edges are documents in the shared backend:

* vertices live in ``graph:<name>:v`` keyed by vertex key;
* edges live in ``graph:<name>:e`` with the special attributes ``_from``
  and ``_to`` (slide 55) and an optional ``label``;
* where slide 79's ArangoDB keeps an *edge index* (hashes on ``_from`` and
  ``_to``), the links live with the vertex, as in OrientDB and Neo4j: an
  adjacency maintained from the central log maps each vertex to the (edge
  key, label, far vertex) of its edges, so ``neighbors`` is O(degree), with
  no digest and no edge document read.

Traversals implement the AQL forms the running example uses
(``FOR f IN 1..1 OUTBOUND c knows``): bounded BFS with direction and label
filters, shortest paths, and reachability.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Iterable, Iterator, Optional

from repro.core import datamodel
from repro.core.context import BaseStore, EngineContext
from repro.core.cursor import ScanCursor
from repro.errors import PrimaryKeyError, SchemaError, UnknownCollectionError
from repro.storage.log import LogEntry, LogOp
from repro.storage.views import StorageView
from repro.txn.manager import Transaction

__all__ = ["PropertyGraph", "Direction"]


class Direction:
    OUTBOUND = "outbound"
    INBOUND = "inbound"
    ANY = "any"

    ALL = (OUTBOUND, INBOUND, ANY)


# Per direction, the (near, far) edge ends of each side it reads.  A link is
# (edge key, label, far vertex).
_SIDES = {
    Direction.OUTBOUND: (("_from", "_to"),),
    Direction.INBOUND: (("_to", "_from"),),
    Direction.ANY: (("_from", "_to"), ("_to", "_from")),
}
_edge_key = itemgetter(0)


class _VertexStore(BaseStore):
    model = "graph"


class _Adjacency(StorageView):
    """Edge end (``_from``: outbound, ``_to``: inbound) → vertex → its
    links, maintained from the edge namespace's log entries.  A vertex's
    links are a tuple a write replaces whole: a reader on another thread
    never iterates what a commit is changing."""

    name = "adjacency"

    def __init__(self, context: EngineContext, namespace: str):
        self.namespace = namespace
        self._drop_namespace(namespace)
        # Link the edges already stored (recovered, or applied on a replica).
        with context.transactions.exclusive():
            for key, edge in context.rows.scan(namespace):
                self._link(key, edge)
            super().__init__(context.log)

    def _apply_data(self, entry: LogEntry) -> None:
        # Whatever the op: drop what the entry replaced, add what it wrote.
        if entry.before is not None:
            self._unlink(entry.key, entry.before)
        if entry.op is not LogOp.DELETE:
            self._link(entry.key, entry.value)

    def _link(self, key: Any, edge: dict) -> None:
        for near, far in _SIDES[Direction.ANY]:
            links, vertex = self.by_end[near], edge.get(near)
            if vertex is not None:
                links[vertex] = links.get(vertex, ()) + ((key, edge.get("label"), edge.get(far)),)

    def _unlink(self, key: Any, edge: dict) -> None:
        for near, _far in _SIDES[Direction.ANY]:
            links, vertex = self.by_end[near], edge.get(near)
            kept = tuple(link for link in links.get(vertex, ()) if link[0] != key)
            if kept:
                links[vertex] = kept
            else:
                links.pop(vertex, None)

    def _drop_namespace(self, namespace: str) -> None:
        self.by_end: dict[str, dict[Any, tuple]] = {"_from": {}, "_to": {}}


class PropertyGraph:
    """One named property graph over the shared backend."""

    def __init__(self, context: EngineContext, name: str):
        self._context = context
        self.name = name
        self._vertices = _VertexStore(context, f"{name}:v")
        self._edges = _VertexStore(context, f"{name}:e")
        self._edge_counter = itertools.count(1)
        self._adjacency = _Adjacency(context, self._edges.namespace)

    @property
    def vertex_namespace(self) -> str:
        return self._vertices.namespace

    @property
    def edge_namespace(self) -> str:
        return self._edges.namespace

    # -- vertices -----------------------------------------------------------------

    def add_vertex(
        self,
        key: str,
        properties: Optional[dict] = None,
        txn: Optional[Transaction] = None,
    ) -> str:
        if not isinstance(key, str):
            raise SchemaError("vertex keys are strings")
        if self._vertices.contains(key, txn):
            raise PrimaryKeyError(f"graph {self.name!r}: vertex {key!r} exists")
        document = dict(datamodel.normalize(properties or {}))
        document["_key"] = key
        self._vertices._put(key, document, txn)
        return key

    def vertex(self, key: str, txn: Optional[Transaction] = None) -> Optional[dict]:
        return self._vertices._raw_get(key, txn)

    def has_vertex(self, key: str, txn: Optional[Transaction] = None) -> bool:
        return self._vertices.contains(key, txn)

    def update_vertex(
        self, key: str, patch: dict, txn: Optional[Transaction] = None
    ) -> bool:
        current = self._vertices._raw_get(key, txn)
        if current is None:
            return False
        merged = datamodel.deep_merge(current, patch)
        merged["_key"] = key
        self._vertices._put(key, merged, txn)
        return True

    def remove_vertex(
        self, key: str, txn: Optional[Transaction] = None, cascade: bool = True
    ) -> bool:
        """Remove a vertex; ``cascade`` also removes its incident edges
        (the referential hygiene a graph store owes its users)."""
        if not self._vertices.contains(key, txn):
            return False
        if cascade:
            for edge_key in self._edge_keys(key, Direction.ANY, None, txn):
                self.remove_edge(edge_key, txn)
        self._vertices._delete_key(key, txn)
        return True

    def scan_cursor(self, txn: Optional[Transaction] = None) -> ScanCursor:
        """Unified batched scan over the vertex documents (the graph's
        natural MMQL frame shape; edges stream via :meth:`edges`)."""
        return self._vertices.scan_cursor(txn=txn)

    def vertex_count(self, txn: Optional[Transaction] = None) -> int:
        return self._vertices.count(txn)

    # -- edges ---------------------------------------------------------------------

    def add_edge(
        self,
        from_key: str,
        to_key: str,
        label: str = "",
        properties: Optional[dict] = None,
        key: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> str:
        """Create an edge document; endpoints must exist.  A generated key
        skips the keys the edge namespace already holds (rows recovered, or
        applied on a replica, that this graph object did not number)."""
        for endpoint in (from_key, to_key):
            if not self._vertices.contains(endpoint, txn):
                raise UnknownCollectionError(
                    f"graph {self.name!r}: vertex {endpoint!r} does not exist"
                )
        if key is None:
            edge_key = f"e{next(self._edge_counter)}"
            while self._edges.contains(edge_key, txn):
                edge_key = f"e{next(self._edge_counter)}"
        elif self._edges.contains(key, txn):
            raise PrimaryKeyError(f"graph {self.name!r}: edge {key!r} exists")
        else:
            edge_key = key
        document = dict(datamodel.normalize(properties or {}))
        document.update({"_key": edge_key, "_from": from_key, "_to": to_key})
        if label:
            document["label"] = label
        self._edges._put(edge_key, document, txn)
        return edge_key

    def edge(self, key: str, txn: Optional[Transaction] = None) -> Optional[dict]:
        return self._edges._raw_get(key, txn)

    def remove_edge(self, key: str, txn: Optional[Transaction] = None) -> bool:
        return self._edges._delete_key(key, txn)

    def edges(self, txn: Optional[Transaction] = None) -> Iterator[dict]:
        for _key, edge in self._edges._raw_scan(txn):
            yield edge

    def edge_count(self, txn: Optional[Transaction] = None) -> int:
        return self._edges.count(txn)

    def _links(self, vertices: Iterable[str], direction: str, label, txn) -> dict:
        """Each vertex's links in *direction* with *label* (None: any), as
        *txn* sees them: the adjacency first, then the visibility rule — a
        changed edge's links are dropped and the record *txn* sees linked."""
        sides = _SIDES.get(direction)
        if sides is None:
            raise ValueError(f"bad direction {direction!r}")
        tables = [self._adjacency.by_end[near] for near, _far in sides]
        found = {
            vertex: [link for links in tables for link in links.get(vertex, ())
                     if label is None or link[1] == label]
            for vertex in vertices
        }
        if txn is None:
            return found
        changed = self._context.transactions.changed(txn, self.edge_namespace)
        if changed:
            for vertex, links in found.items():
                links[:] = [link for link in links if link[0] not in changed]
            for edge_key, edge in changed.items():
                if edge is None or label is not None and edge.get("label") != label:
                    continue
                for near, far in sides:
                    links = found.get(edge.get(near))
                    if links is not None:
                        links.append((edge_key, edge.get("label"), edge.get(far)))
        return found

    def _edge_keys(self, key: str, direction: str, label, txn) -> list:
        """Keys of *key*'s incident edges, sorted, each once (a self-loop
        is both outbound and inbound)."""
        found = self._links((key,), direction, label, txn)
        return sorted({link[0] for link in found[key]})

    def edges_of(
        self,
        key: str,
        direction: str = Direction.OUTBOUND,
        label: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> Iterator[dict]:
        """Incident edge documents in edge-key order, found through the
        adjacency and read as *txn* sees them."""
        for edge_key in self._edge_keys(key, direction, label, txn):
            edge = self.edge(edge_key, txn)
            if edge is not None:
                yield edge

    # -- traversal -------------------------------------------------------------------

    def neighbors(
        self,
        key: str,
        direction: str = Direction.OUTBOUND,
        label: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> list[str]:
        """Adjacent vertex keys (sorted, de-duplicated)."""
        found = self._links((key,), direction, label, txn)
        return sorted({link[2] for link in found[key]})

    def one_hop(
        self,
        starts: list[str],
        direction: str = Direction.OUTBOUND,
        label: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> dict[str, list[str]]:
        """``traverse(start, 1, 1)`` of many starts from their links alone:
        each start's adjacent vertex keys, sorted, itself excluded (a
        self-loop does not make a vertex its own neighbour at depth 1)."""
        found = self._links(starts, direction, label, txn)
        return {start: sorted({link[2] for link in found[start]} - {start}) for start in found}

    def traverse(
        self,
        start: str,
        min_depth: int = 1,
        max_depth: int = 1,
        direction: str = Direction.OUTBOUND,
        label: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> list[tuple[str, int]]:
        """AQL-style bounded BFS: vertices between *min_depth* and
        *max_depth* hops from *start*, as (key, depth), each vertex at its
        shortest depth."""
        found = self._discover(start, min_depth, max_depth, direction, label, txn)
        return [(key, depth) for key, depth, _edge in found]

    def traverse_with_edges(
        self,
        start: str,
        min_depth: int = 1,
        max_depth: int = 1,
        direction: str = Direction.OUTBOUND,
        label: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> list[tuple[str, int, Optional[dict]]]:
        """Like :meth:`traverse` but each vertex carries the edge document
        that discovered it (None for the start vertex) — the AQL
        ``FOR v, e IN …`` form."""
        found = self._discover(start, min_depth, max_depth, direction, label, txn)
        return [(key, depth, None if edge is None else self.edge(edge, txn))
                for key, depth, edge in found]

    def _discover(self, start, min_depth, max_depth, direction, label, txn) -> list:
        """The BFS behind both traversals, a frontier's links read at once:
        (vertex, depth, key of the edge that discovered it), each vertex at
        its shortest depth and found by its first edge in edge-key order."""
        if min_depth < 0 or max_depth < min_depth:
            raise ValueError("need 0 <= min_depth <= max_depth")
        discovered = {start: (0, None)}
        frontier, depth = [start], 0
        while frontier and depth < max_depth:
            depth += 1
            found = self._links(frontier, direction, label, txn)
            next_frontier = []
            for vertex in frontier:
                for edge_key, _label, far in sorted(found[vertex], key=_edge_key):
                    if far not in discovered:
                        discovered[far] = (depth, edge_key)
                        next_frontier.append(far)
            frontier = next_frontier
        return sorted(
            (key, depth, edge_key)
            for key, (depth, edge_key) in discovered.items()
            if min_depth <= depth <= max_depth
        )

    def shortest_path(
        self,
        start: str,
        goal: str,
        direction: str = Direction.ANY,
        txn: Optional[Transaction] = None,
    ) -> Optional[list[str]]:
        """Unweighted shortest path as a vertex-key list, or None."""
        if start == goal:
            return [start]
        parents: dict[str, str] = {start: start}
        frontier = [start]
        while frontier:
            found = self._links(frontier, direction, None, txn)
            next_frontier = []
            for vertex in frontier:
                for neighbor in sorted({link[2] for link in found[vertex]}):
                    if neighbor in parents:
                        continue
                    parents[neighbor] = vertex
                    if neighbor == goal:
                        path = [goal]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        return path[::-1]
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def degree(
        self,
        key: str,
        direction: str = Direction.OUTBOUND,
        txn: Optional[Transaction] = None,
    ) -> int:
        return len(self._edge_keys(key, direction, None, txn))

    # -- pattern matching (the Gremlin/Cypher-style BGP of slide 61) -------------

    def match(
        self,
        patterns: list[tuple],
        where=None,
        txn: Optional[Transaction] = None,
    ) -> list[dict]:
        """Conjunctive edge-pattern matching.

        *patterns* is a list of ``(from, label, to)`` where ``from``/``to``
        are vertex keys or ``?variables`` and ``label`` is an edge label or
        ``None`` (any).  Returns variable bindings (vertex keys); ``where``
        filters bindings (receives the binding dict).
        """
        if not patterns:
            return []
        results: list[dict] = []
        self._match_rec(list(patterns), {}, results, txn)
        if where is not None:
            results = [binding for binding in results if where(binding)]
        unique = {tuple(sorted(binding.items())) for binding in results}
        return [dict(items) for items in sorted(unique)]

    def _match_rec(
        self, patterns: list[tuple], binding: dict, results: list[dict], txn
    ) -> None:
        if not patterns:
            results.append(dict(binding))
            return

        def bound(term):  # a constant, or a ?variable's binding (None: unbound)
            if isinstance(term, str) and term.startswith("?"):
                return binding.get(term)
            return term

        # Most-bound pattern first (same greedy selectivity as the RDF BGP).
        best = max(range(len(patterns)), key=lambda i: sum(
            bound(patterns[i][end]) is not None for end in (0, 2)))
        source, label, target = patterns[best]
        rest = patterns[:best] + patterns[best + 1:]
        source_key, target_key = bound(source), bound(target)
        # Candidate (from, to) pairs: a bound end's links, else every edge.
        if source_key is not None:
            found = self._links((source_key,), Direction.OUTBOUND, label, txn)
            candidates = [(source_key, link[2]) for link in found[source_key]]
        elif target_key is not None:
            found = self._links((target_key,), Direction.INBOUND, label, txn)
            candidates = [(link[2], target_key) for link in found[target_key]]
        else:
            candidates = [
                (edge["_from"], edge["_to"])
                for edge in self.edges(txn)
                if label is None or edge.get("label") == label
            ]
        for from_key, to_key in candidates:
            extended = dict(binding)
            if source_key is None:
                extended[source] = from_key
            # An unbound target binds, unless the source just bound it.
            held = extended.setdefault(target, to_key) if target_key is None else target_key
            if held != to_key:
                continue
            self._match_rec(rest, extended, results, txn)

    # -- interop ---------------------------------------------------------------------

    def to_networkx(self, txn: Optional[Transaction] = None):
        """Export as a :class:`networkx.MultiDiGraph` (vertex/edge
        properties preserved) for analytics the engine does not implement
        natively — PageRank, communities, centrality."""
        import networkx

        graph = networkx.MultiDiGraph(name=self.name)
        for vertex in self.scan_cursor(txn=txn):
            properties = {k: v for k, v in vertex.items() if k != "_key"}
            graph.add_node(vertex["_key"], **properties)
        for edge in self.edges(txn):
            properties = {
                k: v for k, v in edge.items() if k not in ("_key", "_from", "_to")
            }
            graph.add_edge(edge["_from"], edge["_to"], key=edge["_key"], **properties)
        return graph

    def truncate(self) -> None:
        self._edges.truncate()
        self._vertices.truncate()
