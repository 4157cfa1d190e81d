"""Property graph store (the ArangoDB/OrientDB/Neo4j model).

Following ArangoDB's design (slide 25: "since vertices and edges of graphs
are documents, this allows to mix all three data models"), vertices and
edges are documents in the shared backend:

* vertices live in ``graph:<name>:v`` keyed by vertex key;
* edges live in ``graph:<name>:e`` with the special attributes ``_from``
  and ``_to`` (slide 55) and an optional ``label``;
* the *edge index* — "hash index for _from and _to attributes" (slide 79) —
  is maintained automatically, making ``neighbors`` O(degree).

Traversals implement the AQL forms the running example uses
(``FOR f IN 1..1 OUTBOUND c knows``): bounded BFS with direction and label
filters, shortest paths, and reachability.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Iterator, Optional

from repro.core import datamodel
from repro.core.context import BaseStore, EngineContext
from repro.core.cursor import ScanCursor
from repro.errors import PrimaryKeyError, SchemaError, UnknownCollectionError
from repro.indexes.hashindex import ExtendibleHashIndex
from repro.storage.views import IndexView
from repro.txn.manager import Transaction

__all__ = ["PropertyGraph", "Direction"]


class Direction:
    OUTBOUND = "outbound"
    INBOUND = "inbound"
    ANY = "any"

    ALL = (OUTBOUND, INBOUND, ANY)


class _VertexStore(BaseStore):
    model = "graph"


class PropertyGraph:
    """One named property graph over the shared backend."""

    def __init__(self, context: EngineContext, name: str):
        self._context = context
        self.name = name
        self._vertices = _VertexStore(context, f"{name}:v")
        self._edges = _VertexStore(context, f"{name}:e")
        self._edge_counter = itertools.count(1)
        # The ArangoDB edge index: hash indexes on _from and _to.
        self._from_index = IndexView(
            context.log, self._edges.namespace, ("_from",), ExtendibleHashIndex()
        )
        self._to_index = IndexView(
            context.log, self._edges.namespace, ("_to",), ExtendibleHashIndex()
        )

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
            for edge in list(self.edges_of(key, Direction.ANY, txn=txn)):
                self.remove_edge(edge["_key"], txn)
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
        """Create an edge document; endpoints must exist."""
        for endpoint in (from_key, to_key):
            if not self._vertices.contains(endpoint, txn):
                raise UnknownCollectionError(
                    f"graph {self.name!r}: vertex {endpoint!r} does not exist"
                )
        edge_key = key if key is not None else f"e{next(self._edge_counter)}"
        if self._edges.contains(edge_key, txn):
            raise PrimaryKeyError(f"graph {self.name!r}: edge {edge_key!r} exists")
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

    def edges_of(
        self,
        key: str,
        direction: str = Direction.OUTBOUND,
        label: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> Iterator[dict]:
        """Incident edges in edge-key order, via the edge index; inside a
        transaction the visibility rule rechecks the edges it sees
        changed."""
        if direction not in Direction.ALL:
            raise ValueError(f"bad direction {direction!r}")
        outbound = direction in (Direction.OUTBOUND, Direction.ANY)
        inbound = direction in (Direction.INBOUND, Direction.ANY)
        edge_keys: set = set()
        if outbound:
            edge_keys.update(self._from_index.search(key))
        if inbound:
            edge_keys.update(self._to_index.search(key))
        incident = self._edges._index_records(
            edge_keys,
            txn,
            lambda edge: (outbound and edge["_from"] == key) or (inbound and edge["_to"] == key),
        )
        for edge_key in sorted(incident):
            edge = incident[edge_key]
            if edge is None or label is not None and edge.get("label") != label:
                continue
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
        result = set()
        for edge in self.edges_of(key, direction, label, txn):
            if direction in (Direction.OUTBOUND, Direction.ANY) and edge["_from"] == key:
                result.add(edge["_to"])
            if direction in (Direction.INBOUND, Direction.ANY) and edge["_to"] == key:
                result.add(edge["_from"])
        return sorted(result)

    def one_hop(
        self,
        starts: list[str],
        direction: str = Direction.OUTBOUND,
        label: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> dict[str, list[str]]:
        """Depth-1 traversal of many starts at once: each start's adjacent
        vertex keys, sorted, itself excluded (a self-loop does not make a
        vertex its own neighbour at depth 1) — ``traverse(start, 1, 1)``
        for every start, without a BFS each: the edge-index probes of every
        start, then each edge they found once (under the visibility rule)."""
        if direction not in Direction.ALL:
            raise ValueError(f"bad direction {direction!r}")
        # (edge index, the start's end of the edge, the neighbour's end)
        sides = []
        if direction in (Direction.OUTBOUND, Direction.ANY):
            sides.append((self._from_index, "_from", "_to"))
        if direction in (Direction.INBOUND, Direction.ANY):
            sides.append((self._to_index, "_to", "_from"))
        found: dict[str, set] = {start: set() for start in starts}
        edges = self._edges._index_records(
            (edge_key for start in found for index, _near, _far in sides
             for edge_key in index.search(start)),
            txn,
        )
        for edge in edges.values():
            if edge is not None and (label is None or edge.get("label") == label):
                for _index, near, far in sides:
                    adjacent = found.get(edge[near])
                    if adjacent is not None:
                        adjacent.add(edge[far])
        for start, adjacent in found.items():
            adjacent.discard(start)
        return {start: sorted(adjacent) for start, adjacent in found.items()}

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
        if min_depth < 0 or max_depth < min_depth:
            raise ValueError("need 0 <= min_depth <= max_depth")
        depths = {start: 0}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            depth = depths[current]
            if depth >= max_depth:
                continue
            for neighbor in self.neighbors(current, direction, label, txn):
                if neighbor not in depths:
                    depths[neighbor] = depth + 1
                    queue.append(neighbor)
        return sorted(
            (key, depth)
            for key, depth in depths.items()
            if min_depth <= depth <= max_depth
        )

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
        if min_depth < 0 or max_depth < min_depth:
            raise ValueError("need 0 <= min_depth <= max_depth")
        discovered: dict[str, tuple[int, Optional[dict]]] = {start: (0, None)}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            depth = discovered[current][0]
            if depth >= max_depth:
                continue
            for edge in self.edges_of(current, direction, label, txn):
                for neighbor in self._edge_targets(edge, current, direction):
                    if neighbor not in discovered:
                        discovered[neighbor] = (depth + 1, edge)
                        queue.append(neighbor)
        return sorted(
            (
                (key, depth, edge)
                for key, (depth, edge) in discovered.items()
                if min_depth <= depth <= max_depth
            ),
            key=lambda entry: (entry[0], entry[1]),
        )

    @staticmethod
    def _edge_targets(edge: dict, current: str, direction: str) -> list[str]:
        targets = []
        if direction in (Direction.OUTBOUND, Direction.ANY) and edge["_from"] == current:
            targets.append(edge["_to"])
        if direction in (Direction.INBOUND, Direction.ANY) and edge["_to"] == current:
            targets.append(edge["_from"])
        return targets

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
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor in self.neighbors(current, direction, txn=txn):
                if neighbor in parents:
                    continue
                parents[neighbor] = current
                if neighbor == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                queue.append(neighbor)
        return None

    def degree(
        self,
        key: str,
        direction: str = Direction.OUTBOUND,
        txn: Optional[Transaction] = None,
    ) -> int:
        return sum(1 for _ in self.edges_of(key, direction, txn=txn))

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
        deduped = []
        seen = set()
        for binding in results:
            token = tuple(sorted(binding.items()))
            if token not in seen:
                seen.add(token)
                deduped.append(binding)
        return sorted(deduped, key=lambda b: sorted(b.items()))

    def _match_rec(
        self, patterns: list[tuple], binding: dict, results: list[dict], txn
    ) -> None:
        if not patterns:
            results.append(dict(binding))
            return

        def is_var(term):
            return isinstance(term, str) and term.startswith("?")

        def resolved(term):
            return binding.get(term, term) if is_var(term) else term

        # Most-bound pattern first (same greedy selectivity as the RDF BGP).
        def bound_count(pattern):
            source, _label, target = pattern
            return sum(
                1 for term in (source, target)
                if not is_var(term) or term in binding
            )

        best = max(range(len(patterns)), key=lambda i: bound_count(patterns[i]))
        source, label, target = patterns[best]
        rest = patterns[:best] + patterns[best + 1:]
        source_value = resolved(source)
        target_value = resolved(target)

        if not is_var(source) or source in binding:
            candidates = self.edges_of(source_value, Direction.OUTBOUND, label, txn)
        elif not is_var(target) or target in binding:
            candidates = self.edges_of(target_value, Direction.INBOUND, label, txn)
        else:
            candidates = (
                edge
                for edge in self.edges(txn)
                if label is None or edge.get("label") == label
            )
        for edge in candidates:
            extended = dict(binding)
            consistent = True
            for term, value in ((source, edge["_from"]), (target, edge["_to"])):
                if is_var(term):
                    if term in extended and extended[term] != value:
                        consistent = False
                        break
                    extended[term] = value
                elif term != value:
                    consistent = False
                    break
            if consistent:
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
