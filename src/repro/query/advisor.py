"""Index advisor: workload-driven index recommendations.

Slide 16's punchline is that "query optimization, view maintenance, and
index selection become a single problem".  The advisor closes the loop:
given a workload (a list of MMQL query texts), it finds every
``FOR x IN collection FILTER x.path == value`` opportunity the optimizer
could serve with a point index but currently cannot, counts how often each
(collection, path) pair occurs, and recommends indexes in impact order.

``apply`` creates the recommended hash indexes, so

    advise(db, workload)  →  review  →  apply(db, recommendations)

turns a scan-bound workload into an index-bound one measurably (the
optimizer benchmark's before/after).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.errors import QueryError
from repro.query import ast
from repro.query.optimizer import _filter_run, _run_probes
from repro.query.parser import parse
from repro.query.visit import nested_queries

__all__ = ["Recommendation", "advise", "apply"]


@dataclass(frozen=True)
class Recommendation:
    """One suggested index."""

    source_name: str
    path: tuple
    occurrences: int
    kind: str = "hash"

    def describe(self) -> str:
        dotted = ".".join(self.path)
        return (
            f"CREATE {self.kind} INDEX ON {self.source_name}({dotted})  "
            f"-- used by {self.occurrences} predicate(s) in the workload"
        )


def _walk_operations(query: ast.Query):
    """Yield (for_op, the run of FILTERs after it) pairs, recursing into
    subqueries."""
    operations = query.operations
    for index, operation in enumerate(operations):
        if isinstance(operation, ast.ForOp) and isinstance(
            operation.source, ast.VarRef
        ):
            filters = _filter_run(operations, index + 1)
            if filters:
                yield operation, filters
        for inner in nested_queries(operation):
            yield from _walk_operations(inner)


def _served(db, source_name: str, path: tuple) -> bool:
    """True when ``source.path == value`` needs no new index: a point
    index or the store's primary key serves it, or *source_name* names
    nothing that holds records."""
    try:
        store = db.resolve(source_name)
        namespace = store.namespace
    except Exception:
        return True
    return path == getattr(store, "key_path", None) or (
        db.context.indexes.find(namespace, path, "point") is not None
    )


def advise(
    db, workload: Optional[list[str]] = None
) -> list[Recommendation]:
    """Analyze a workload; returns recommendations, most impactful first.

    Queries that fail to parse raise :class:`QueryError` (a workload file
    with a typo should be loud, not silently under-advised).

    With no *workload*, the advisor reads the rewrite rules' runtime
    near-miss log (``db.index_suggestions``) instead: every optimization
    that *almost* produced an index scan or an indexed semi-join build
    recorded what index it was missing, so the advisor works from live
    traffic without a workload file.  Passing a workload merges both.
    """
    opportunities: Counter = Counter()
    suggestions = getattr(db, "index_suggestions", None)
    if suggestions is not None:
        for suggestion, count in suggestions.entries():
            # An index created since the suggestion was recorded serves it.
            if not _served(db, suggestion.source, suggestion.path):
                opportunities[(suggestion.source, suggestion.path)] += count
    for text in workload or ():
        query = parse(text)
        for for_op, filters in _walk_operations(query):
            source_name = for_op.source.name
            for *_where, path, _probe in _run_probes(filters, for_op.var):
                if not _served(db, source_name, path):
                    opportunities[(source_name, path)] += 1
    return [
        Recommendation(source_name, path, count)
        for (source_name, path), count in opportunities.most_common()
    ]


def apply(db, recommendations: list[Recommendation]) -> list[str]:
    """Create the recommended indexes; returns their names."""
    created = []
    for recommendation in recommendations:
        store = db.resolve(recommendation.source_name)
        view = db.context.indexes.create_index(
            store.namespace, recommendation.path, kind=recommendation.kind
        )
        created.append(view.index.name)
    return created
