"""Property-graph model: vertices, edges, adjacency, traversals."""

from repro.graph.store import Direction, PropertyGraph

__all__ = ["Direction", "PropertyGraph"]
