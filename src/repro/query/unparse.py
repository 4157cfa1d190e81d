"""AST → MMQL text, guaranteed re-parseable.

The cluster coordinator plans against the AST but ships *text* to shards
(the wire protocol's ``query_open`` takes a statement, and that keeps the
inter-node transport identical to the client protocol).  ``unparse``
renders any :mod:`repro.query.ast` tree back into MMQL that
:func:`repro.query.parser.parse` accepts; subexpressions are parenthesized
defensively, so the output round-trips regardless of precedence.

EXPLAIN prints plans with the same :func:`unparse_expr`, so a plan shows
MMQL literals; only a subquery is abbreviated there, to ``(subquery)``.
"""

from __future__ import annotations

from repro.query import ast

__all__ = ["unparse", "unparse_expr"]

_STRING_ESCAPES = {"\\": "\\\\", "'": "\\'", "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _string(value: str) -> str:
    return "'" + "".join(_STRING_ESCAPES.get(ch, ch) for ch in value) + "'"


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        return _string(value)
    return repr(value)


def unparse_expr(expr: ast.Expr, *, explain: bool = False) -> str:
    """Render one expression as parseable MMQL text.

    ``explain=True`` is EXPLAIN's spelling: a subquery prints as
    ``(subquery)`` because its plan is printed beneath the operation."""

    def sub(node: ast.Expr) -> str:
        return unparse_expr(node, explain=explain)

    if isinstance(expr, ast.Literal):
        return _literal(expr.value)
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.BindVar):
        return f"@{expr.name}"
    if isinstance(expr, ast.AttrAccess):
        return f"{sub(expr.subject)}.{expr.attribute}"
    if isinstance(expr, ast.IndexAccess):
        return f"{sub(expr.subject)}[{sub(expr.index)}]"
    if isinstance(expr, ast.Expansion):
        rendered = f"{sub(expr.subject)}[*]"
        if expr.suffix is not None:
            rendered += _expansion_suffix(expr.suffix, sub)
        return rendered
    if isinstance(expr, ast.InlineFilter):
        return f"{sub(expr.subject)}[* FILTER {sub(expr.condition)}]"
    if isinstance(expr, ast.FuncCall):
        args = ", ".join(sub(arg) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"(NOT {sub(expr.operand)})"
        return f"(-{sub(expr.operand)})"
    if isinstance(expr, ast.BinOp):
        return f"({sub(expr.left)} {expr.op} {sub(expr.right)})"
    if isinstance(expr, ast.RangeExpr):
        return f"({sub(expr.low)}..{sub(expr.high)})"
    if isinstance(expr, ast.ArrayLiteral):
        return "[" + ", ".join(sub(item) for item in expr.items) + "]"
    if isinstance(expr, ast.ObjectLiteral):
        pairs = ", ".join(
            f"{_string(key)}: {sub(value)}" for key, value in expr.items
        )
        return "{" + pairs + "}"
    if isinstance(expr, ast.Ternary):
        return (
            f"({sub(expr.condition)} ? {sub(expr.then)} : "
            f"{sub(expr.otherwise)})"
        )
    if isinstance(expr, ast.SubQuery):
        return "(subquery)" if explain else f"({unparse(expr.query)})"
    raise TypeError(f"cannot unparse expression node {type(expr).__name__}")


def _expansion_suffix(suffix: ast.Expr, sub) -> str:
    """Render the per-element chain of an expansion (``[*].a.b[0]``); the
    parser anchors it on the pseudo-variable ``$CURRENT``."""
    if isinstance(suffix, ast.VarRef) and suffix.name == "$CURRENT":
        return ""
    if isinstance(suffix, ast.AttrAccess):
        return f"{_expansion_suffix(suffix.subject, sub)}.{suffix.attribute}"
    if isinstance(suffix, ast.IndexAccess):
        return (
            f"{_expansion_suffix(suffix.subject, sub)}[{sub(suffix.index)}]"
        )
    raise TypeError(
        f"cannot unparse expansion suffix node {type(suffix).__name__}"
    )


def _operation(op: ast.Operation) -> str:
    if isinstance(op, ast.ForOp):
        return f"FOR {op.var} IN {unparse_expr(op.source)}"
    if isinstance(op, ast.TraversalOp):
        head = f"FOR {op.var}"
        if op.edge_var is not None:
            head += f", {op.edge_var}"
        rendered = (
            f"{head} IN {op.min_depth}..{op.max_depth} "
            f"{op.direction.upper()} {unparse_expr(op.start)} GRAPH {op.graph}"
        )
        if op.label is not None:
            rendered += f" LABEL {_string(op.label)}"
        return rendered
    if isinstance(op, ast.ShortestPathOp):
        return (
            f"FOR {op.var} IN {op.direction.upper()} SHORTEST_PATH "
            f"{unparse_expr(op.start)} TO {unparse_expr(op.goal)} "
            f"GRAPH {op.graph}"
        )
    if isinstance(op, ast.FilterOp):
        return f"FILTER {unparse_expr(op.condition)}"
    if isinstance(op, ast.LetOp):
        return f"LET {op.var} = {unparse_expr(op.value)}"
    if isinstance(op, ast.SortOp):
        keys = ", ".join(
            unparse_expr(key.expr) + ("" if key.ascending else " DESC")
            for key in op.keys
        )
        return f"SORT {keys}"
    if isinstance(op, ast.LimitOp):
        if op.offset:
            return f"LIMIT {op.offset}, {op.count}"
        return f"LIMIT {op.count}"
    if isinstance(op, ast.CollectOp):
        parts = ["COLLECT"]
        if op.groups:
            parts.append(
                ", ".join(
                    f"{name} = {unparse_expr(expr)}" for name, expr in op.groups
                )
            )
        if op.aggregates:
            parts.append("AGGREGATE")
            parts.append(
                ", ".join(
                    f"{name} = {func}({unparse_expr(arg)})"
                    for name, func, arg in op.aggregates
                )
            )
        if op.count_into is not None:
            parts.append(f"WITH COUNT INTO {op.count_into}")
        elif op.into is not None:
            parts.append(f"INTO {op.into}")
        return " ".join(parts)
    if isinstance(op, ast.ReturnOp):
        distinct = "DISTINCT " if op.distinct else ""
        return f"RETURN {distinct}{unparse_expr(op.expr)}"
    if isinstance(op, ast.InsertOp):
        return f"INSERT {unparse_expr(op.document)} INTO {op.target}"
    if isinstance(op, ast.UpdateOp):
        return (
            f"UPDATE {unparse_expr(op.key)} WITH {unparse_expr(op.changes)} "
            f"IN {op.target}"
        )
    if isinstance(op, ast.RemoveOp):
        return f"REMOVE {unparse_expr(op.key)} IN {op.target}"
    if isinstance(op, ast.ReplaceOp):
        return (
            f"REPLACE {unparse_expr(op.key)} WITH {unparse_expr(op.document)} "
            f"IN {op.target}"
        )
    if isinstance(op, ast.UpsertOp):
        return (
            f"UPSERT {unparse_expr(op.search)} "
            f"INSERT {unparse_expr(op.insert_doc)} "
            f"UPDATE {unparse_expr(op.update_patch)} INTO {op.target}"
        )
    raise TypeError(f"cannot unparse operation node {type(op).__name__}")


def unparse(query: ast.Query) -> str:
    """Render a full query; ``parse(unparse(parse(text)))`` is a fixpoint."""
    return " ".join(_operation(op) for op in query.operations)
