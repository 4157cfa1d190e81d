"""The one module that knows node shapes.

Which expressions hang off an operation, what it binds, what it reads,
where its subqueries are, how to rebuild a node around changed children:
every such question is answered here, from two tables built at import —
one row per operation type (logical and physical), one per expression
type that has children.  Adding a node type is one table row.  The
optimizer, the rules, the compiler, the advisor, the statement classifier
and the cluster coordinator ask this module and keep no walker of their
own, so they cannot disagree about a node.

Scoping, once, for everyone: :func:`walk` yields a :class:`ast.SubQuery`
node and does not enter it — a subquery is a scope of its own, reached
through :func:`nested_queries`.  :func:`variables_in`, :func:`reads` and
:func:`free_vars` do enter subqueries, because a variable an inner query
reads from outside is a read of the expression that holds it; a variable
the inner query binds itself is not.  A name is *free* when nothing
upstream binds it, so the collection of ``FOR o IN orders`` is a free
name like any other: a caller that means "variables" intersects with the
variables it knows.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from repro.query import ast
from repro.query.plan import (
    AntiJoinOp,
    HashJoinOp,
    IndexScanOp,
    LookupJoinOp,
    MaterializeOp,
    SemiJoinOp,
)

__all__ = [
    "STORE_FUNCS",
    "WRITE_OPS",
    "walk",
    "map_children",
    "conjuncts",
    "and_join",
    "variables_in",
    "operation_exprs",
    "map_operation_exprs",
    "binds",
    "reads",
    "free_vars",
    "nested_queries",
    "contains_write",
    "stores_named",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

#: The inverse of ``Expr.children()``: node type -> the node rebuilt around
#: a new child list (same length and order as ``children()`` returned).
_WITH_CHILDREN: dict[type, Callable] = {
    ast.AttrAccess: lambda e, c: ast.AttrAccess(c[0], e.attribute),
    ast.IndexAccess: lambda e, c: ast.IndexAccess(c[0], c[1]),
    # children() leaves an absent suffix out.
    ast.Expansion: lambda e, c: ast.Expansion(c[0], c[1] if len(c) > 1 else None),
    ast.InlineFilter: lambda e, c: ast.InlineFilter(c[0], c[1]),
    ast.FuncCall: lambda e, c: ast.FuncCall(e.name, tuple(c)),
    ast.UnaryOp: lambda e, c: ast.UnaryOp(e.op, c[0]),
    ast.BinOp: lambda e, c: ast.BinOp(e.op, c[0], c[1]),
    ast.RangeExpr: lambda e, c: ast.RangeExpr(c[0], c[1]),
    ast.ArrayLiteral: lambda e, c: ast.ArrayLiteral(tuple(c)),
    ast.ObjectLiteral: lambda e, c: ast.ObjectLiteral(
        tuple((key, value) for (key, _old), value in zip(e.items, c))
    ),
    ast.Ternary: lambda e, c: ast.Ternary(c[0], c[1], c[2]),
}


def walk(expr: ast.Expr) -> Iterator[ast.Expr]:
    """*expr* and every expression under it, parents first, left to
    right.  A subquery is yielded as its node and not entered."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        children = node.children()
        if children:
            stack.extend(reversed(children))


def map_children(expr: ast.Expr, fn: Callable) -> ast.Expr:
    """*expr* rebuilt with *fn* applied to each direct child; *expr*
    itself when it has none (leaves, subqueries) or *fn* changed none."""
    children = expr.children()
    mapped = [fn(child) for child in children]
    for new, old in zip(mapped, children):
        if new is not old:
            return _WITH_CHILDREN[type(expr)](expr, mapped)
    return expr


def conjuncts(condition: ast.Expr) -> list[ast.Expr]:
    """The AND-conjuncts of *condition*, left to right."""
    out: list = []
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BinOp) and node.op == "AND":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def and_join(parts: Iterable[ast.Expr]) -> Optional[ast.Expr]:
    """The conjunction of *parts*, left-associated; None for no parts."""
    joined = None
    for part in parts:
        joined = part if joined is None else ast.BinOp("AND", joined, part)
    return joined


def variables_in(expr: ast.Expr) -> set[str]:
    """Names *expr* reads from the frame it is evaluated in: its variable
    references, plus what its subqueries read and do not bind themselves.
    ``$CURRENT`` is bound by the expansion that mentions it."""
    names: set[str] = set()
    for node in walk(expr):
        if type(node) is ast.VarRef:
            names.add(node.name)
        elif type(node) is ast.SubQuery:
            names |= free_vars(node.query.operations)
    names.discard("$CURRENT")
    return names


#: Functions whose first argument names what they read, and the family of
#: store it names (the cluster coordinator checks placements by family).
#: FULLTEXT's names an index, so the store it reads is not in the text.
STORE_FUNCS = {
    "DOCUMENT": "keyed",
    "KV_GET": "kv",
    "KV_KEYS": "kv_all",
    "NEIGHBORS": "graph",
    "TRAVERSE": "graph",
    "SHORTEST_PATH": "graph",
    "EDGES": "graph",
    "XPATH": "tree",
    "RDF_MATCH": "triple",
    "GEO_WINDOW": "spatial",
    "GEO_NEAREST": "spatial",
    "FULLTEXT": "index",
}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class _Shape(NamedTuple):
    """One operation type.  All entries are attribute names."""

    #: Expressions the operation evaluates, in evaluation order.
    exprs: tuple = ()
    #: Expressions that restate ones in ``exprs`` (a scan's or join's
    #: ``original_condition`` is its probe equality AND its residual, kept
    #: for the no-index fallback): mapped along with them so the two never
    #: part ways, but not yielded — they read, nest and compile nothing new.
    mirrors: tuple = ()
    #: Names the operation adds to the frames it passes downstream.
    binds: tuple = ()
    writes: bool = False


_PROBE = _Shape(
    exprs=("probe", "residual"), mirrors=("original_condition",), binds=("var",)
)

_SHAPES: dict[type, _Shape] = {
    ast.ForOp: _Shape(exprs=("source",), binds=("var",)),
    ast.TraversalOp: _Shape(exprs=("start",), binds=("var", "edge_var")),
    ast.ShortestPathOp: _Shape(exprs=("start", "goal"), binds=("var",)),
    ast.FilterOp: _Shape(exprs=("condition",)),
    ast.LetOp: _Shape(exprs=("value",), binds=("var",)),
    ast.SortOp: _Shape(exprs=("keys",)),
    ast.LimitOp: _Shape(),
    ast.CollectOp: _Shape(
        exprs=("groups", "aggregates"),
        binds=("groups", "aggregates", "count_into", "into"),
    ),
    ast.ReturnOp: _Shape(exprs=("expr",)),
    ast.InsertOp: _Shape(exprs=("document",), writes=True),
    ast.UpdateOp: _Shape(exprs=("key", "changes"), writes=True),
    ast.RemoveOp: _Shape(exprs=("key",), writes=True),
    ast.ReplaceOp: _Shape(exprs=("key", "document"), writes=True),
    ast.UpsertOp: _Shape(
        exprs=("search", "insert_doc", "update_patch"), writes=True
    ),
    IndexScanOp: _PROBE._replace(exprs=("value", "residual")),
    HashJoinOp: _PROBE,
    # Only existence is observable: the inner variable never escapes.
    SemiJoinOp: _PROBE._replace(binds=()),
    AntiJoinOp: _PROBE._replace(binds=()),
    LookupJoinOp: _Shape(exprs=("key",), binds=("var",)),
    # Its query is a scope of its own (see nested_queries), not an
    # expression: uncorrelated by construction, it reads no frame.
    MaterializeOp: _Shape(binds=("var",)),
}

#: Slots that hold a list of entries, not one expression: attribute ->
#: (the entries' expressions, the list rebuilt around new expressions).
#: The first field of a ``groups``/``aggregates`` entry is the name it binds.
_LISTS: dict[str, tuple[Callable, Callable]] = {
    "keys": (
        lambda keys: [key.expr for key in keys],
        lambda keys, exprs: [
            ast.SortKeySpec(expr, key.ascending) for key, expr in zip(keys, exprs)
        ],
    ),
    "groups": (
        lambda groups: [expr for _name, expr in groups],
        lambda groups, exprs: [
            (name, expr) for (name, _old), expr in zip(groups, exprs)
        ],
    ),
    "aggregates": (
        lambda aggregates: [arg for _name, _func, arg in aggregates],
        lambda aggregates, exprs: [
            (name, func, arg)
            for (name, func, _old), arg in zip(aggregates, exprs)
        ],
    ),
}

#: The operation types that mutate data.
WRITE_OPS = tuple(kind for kind, shape in _SHAPES.items() if shape.writes)

#: Scans and joins evaluate their residual with their own variable bound,
#: whether or not they pass it downstream.
_PROBING_OPS = (IndexScanOp, HashJoinOp, SemiJoinOp)


def operation_exprs(operation: ast.Operation) -> list[ast.Expr]:
    """Every expression *operation* evaluates, in evaluation order."""
    out: list = []
    for attr in _SHAPES[type(operation)].exprs:
        value = getattr(operation, attr)
        codec = _LISTS.get(attr)
        if codec is not None:
            out.extend(codec[0](value))
        elif value is not None:
            out.append(value)
    return out


def map_operation_exprs(operation: ast.Operation, fn: Callable) -> ast.Operation:
    """*operation* rebuilt with *fn* applied to each of its expressions;
    *operation* itself when *fn* changed none."""
    shape = _SHAPES[type(operation)]
    changes = {}
    for attr in shape.exprs + shape.mirrors:
        value = getattr(operation, attr)
        codec = _LISTS.get(attr)
        if codec is not None:
            unpack, repack = codec
            exprs = unpack(value)
            mapped = [fn(expr) for expr in exprs]
            if any(new is not old for new, old in zip(mapped, exprs)):
                changes[attr] = repack(value, mapped)
        elif value is not None:
            mapped = fn(value)
            if mapped is not value:
                changes[attr] = mapped
    return dataclasses.replace(operation, **changes) if changes else operation


def binds(operation: ast.Operation) -> list[str]:
    """Names *operation* adds to the frames downstream, in binding order."""
    names: list = []
    for attr in _SHAPES[type(operation)].binds:
        value = getattr(operation, attr)
        if attr in _LISTS:
            names.extend(entry[0] for entry in value)
        elif value:
            names.append(value)
    return names


def reads(operation: ast.Operation) -> set[str]:
    """Names *operation* reads from the frames it is given."""
    names: set[str] = set()
    for expr in operation_exprs(operation):
        names |= variables_in(expr)
    if isinstance(operation, _PROBING_OPS):
        names.discard(operation.var)
    return names


def free_vars(operations: Iterable[ast.Operation], bound=()) -> set[str]:
    """Names the pipeline *operations* reads that neither *bound* nor an
    earlier operation of the pipeline binds."""
    bound = set(bound)
    free: set[str] = set()
    for operation in operations:
        free |= reads(operation) - bound
        bound.update(binds(operation))
    return free


def nested_queries(operation: ast.Operation) -> list[ast.Query]:
    """The queries nested directly in *operation* — the subqueries of its
    expressions, left to right, or a :class:`MaterializeOp`'s query.
    Each is a planning scope of its own; what is nested inside one is
    that query's, not this operation's."""
    if isinstance(operation, MaterializeOp):
        return [operation.query]
    return [
        node.query
        for expr in operation_exprs(operation)
        for node in walk(expr)
        if type(node) is ast.SubQuery
    ]


def contains_write(query: ast.Query) -> bool:
    """True when *query*, or a query nested in it at any depth, does DML."""
    return any(
        _SHAPES[type(operation)].writes
        or any(contains_write(inner) for inner in nested_queries(operation))
        for operation in query.operations
    )


def stores_named(query: ast.Query) -> tuple[frozenset, bool]:
    """The stores *query* reads by name, nested queries included: its free
    names (the FOR sources among them), its traversal graphs, and the
    literal first argument of each store function.  The flag is True when
    a store function names its store through a bind or an expression, or
    reads through an index: which store that is, the text does not say."""
    names = free_vars(query.operations)
    unnamed = False
    pending = [query]
    while pending:
        for operation in pending.pop().operations:
            if isinstance(operation, (ast.TraversalOp, ast.ShortestPathOp)):
                names.add(operation.graph)
            for expr in operation_exprs(operation):
                for node in walk(expr):
                    if type(node) is not ast.FuncCall:
                        continue
                    family = STORE_FUNCS.get(node.name)
                    if family is None:
                        continue
                    first = node.args[0] if node.args else None
                    if (
                        family != "index"
                        and type(first) is ast.Literal
                        and isinstance(first.value, str)
                    ):
                        names.add(first.value)
                    else:
                        unnamed = True
            pending.extend(nested_queries(operation))
    return frozenset(names), unnamed
