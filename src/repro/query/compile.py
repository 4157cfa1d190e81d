"""Expression compilation: lowering ``ast.Expr`` trees into Python closures.

This is the engine's one expression evaluator.  Re-dispatching on the node
type of every expression for every row would dominate the hot operators —
FILTER predicates, RETURN projections, SORT keys, COLLECT groupings — so
:func:`compile_expr` walks the tree **once** and returns a closure
``fn(ctx, frame) -> value`` in which all structural decisions (node types,
operator kinds, literal values, attribute names, LIKE patterns) are
resolved at compile time; evaluating a row is then plain Python calls with
no isinstance chains.

Every node kind compiles, subqueries, array expansion ``[*]`` and inline
filters ``[* FILTER …]`` included; the last two bind the pseudo-variable
``$CURRENT`` per element on a copy of the frame.

Compilation happens once per (cached) plan: the executor memoizes the
closure on the operation node, so a warm plan cache pays zero compilation
cost per query.
"""

from __future__ import annotations

import re
from array import array
from typing import Any, Callable

from repro.core import datamodel
from repro.errors import BindError, ExecutionError
from repro.obs import metrics as obs_metrics
from repro.query import ast
from repro.query.functions import call_function
from repro.query.visit import conjuncts

__all__ = [
    "compile_expr",
    "compile_filter_batch",
    "compile_projection_batch",
    "compile_filter_columnar",
    "compile_projection_columnar",
    "extract_zone_predicates",
    "columnar_attr",
    "fallback_node_counts",
    "CompiledFn",
    "BatchFn",
]

#: A compiled expression: ``fn(ctx, frame) -> value``.
CompiledFn = Callable[[Any, dict], Any]

#: A compiled batch operator: ``fn(ctx, frames) -> list``.
BatchFn = Callable[[Any, list], list]

_truthy = datamodel.truthy
_compare = datamodel.compare
_type_of = datamodel.type_of
_deep_get = datamodel.deep_get
_TypeTag = datamodel.TypeTag


def fallback_node_counts(query) -> dict[str, int]:
    """Always ``{}``: every node kind compiles, so no expression subtree
    falls back to another evaluator.  Kept because the benchmark harness
    still reads it to report ``query.compile.fallbacks_per_stmt``."""
    return {}


def compile_expr(expr: ast.Expr) -> CompiledFn:
    """Lower *expr* into a closure ``fn(ctx, frame) -> value``."""
    fn = _compile(expr)
    if obs_metrics.ENABLED:
        obs_metrics.counter("expr_compile_total", outcome="compiled").inc()
    return fn


def compile_filter_batch(expr: ast.Expr) -> BatchFn:
    """Lower a FILTER predicate into ``fn(ctx, frames) -> kept_frames``.

    The per-frame closure is hoisted out of the loop so a batch pays one
    Python call per frame plus a single list comprehension — no generator
    frames, no per-row dispatch."""
    row_fn = compile_expr(expr)
    truthy = _truthy

    def filter_batch(ctx, frames):
        return [frame for frame in frames if truthy(row_fn(ctx, frame))]

    return filter_batch


def compile_projection_batch(expr: ast.Expr) -> BatchFn:
    """Lower a RETURN projection into ``fn(ctx, frames) -> values``."""
    row_fn = compile_expr(expr)

    def projection_batch(ctx, frames):
        return [row_fn(ctx, frame) for frame in frames]

    return projection_batch


def _compile(expr: ast.Expr) -> CompiledFn:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda ctx, frame: value

    if isinstance(expr, ast.VarRef):
        name = expr.name

        def var_ref(ctx, frame):
            try:
                return frame[name]
            except KeyError:
                raise BindError(f"unknown variable {name!r}") from None

        return var_ref

    if isinstance(expr, ast.BindVar):
        name = expr.name
        normalize = datamodel.normalize

        def bind_var(ctx, frame):
            try:
                return normalize(ctx.bind_vars[name])
            except KeyError:
                raise BindError(f"missing bind parameter @{name}") from None

        return bind_var

    if isinstance(expr, ast.AttrAccess):
        # Collapse an attribute chain (``var.a.b.c``) into a single
        # deep_get over a precomputed path — one call per row instead of
        # one closure frame per step.
        path: list = [expr.attribute]
        node = expr.subject
        while isinstance(node, ast.AttrAccess):
            path.append(node.attribute)
            node = node.subject
        path_tuple = tuple(reversed(path))
        subject_fn = _compile(node)
        return lambda ctx, frame: _deep_get(subject_fn(ctx, frame), path_tuple)

    if isinstance(expr, ast.IndexAccess):
        subject_fn = _compile(expr.subject)
        index_fn = _compile(expr.index)

        def index_access(ctx, frame):
            subject = subject_fn(ctx, frame)
            index = index_fn(ctx, frame)
            if isinstance(index, bool) or not isinstance(index, (int, str)):
                raise ExecutionError(
                    f"index values must be integers or strings, got "
                    f"{datamodel.type_name(index)}"
                )
            return _deep_get(subject, (index,))

        return index_access

    if isinstance(expr, ast.FuncCall):
        name = expr.name
        arg_fns = tuple(_compile(arg) for arg in expr.args)

        def func_call(ctx, frame):
            return call_function(
                ctx, name, [fn(ctx, frame) for fn in arg_fns]
            )

        return func_call

    if isinstance(expr, ast.UnaryOp):
        operand_fn = _compile(expr.operand)
        if expr.op == "-":

            def negate(ctx, frame):
                operand = operand_fn(ctx, frame)
                if _type_of(operand) is not _TypeTag.NUMBER:
                    raise ExecutionError("unary - expects a number")
                return -operand

            return negate
        return lambda ctx, frame: not _truthy(operand_fn(ctx, frame))

    if isinstance(expr, ast.BinOp):
        return _compile_binop(expr)

    if isinstance(expr, ast.RangeExpr):
        low_fn = _compile(expr.low)
        high_fn = _compile(expr.high)

        def range_expr(ctx, frame):
            low = low_fn(ctx, frame)
            high = high_fn(ctx, frame)
            for bound in (low, high):
                if _type_of(bound) is not _TypeTag.NUMBER:
                    raise ExecutionError("range bounds must be numbers")
            return list(range(int(low), int(high) + 1))

        return range_expr

    if isinstance(expr, ast.ArrayLiteral):
        item_fns = tuple(_compile(item) for item in expr.items)
        return lambda ctx, frame: [fn(ctx, frame) for fn in item_fns]

    if isinstance(expr, ast.ObjectLiteral):
        entry_fns = tuple((key, _compile(value)) for key, value in expr.items)
        return lambda ctx, frame: {
            key: fn(ctx, frame) for key, fn in entry_fns
        }

    if isinstance(expr, ast.Ternary):
        condition_fn = _compile(expr.condition)
        then_fn = _compile(expr.then)
        else_fn = _compile(expr.otherwise)
        return lambda ctx, frame: (
            then_fn(ctx, frame)
            if _truthy(condition_fn(ctx, frame))
            else else_fn(ctx, frame)
        )

    if isinstance(expr, (ast.Expansion, ast.InlineFilter)):
        return _compile_per_element(expr)

    if isinstance(expr, ast.SubQuery):
        # executor imports this module, so reach back into it lazily.
        from repro.query.executor import _run_pipeline

        query = expr.query

        def subquery(ctx, frame):
            rows, _writes = _run_pipeline(ctx, query, dict(frame))
            return rows

        return subquery

    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _compile_per_element(expr) -> CompiledFn:
    """``subject[*]`` / ``subject[*]<suffix>`` / ``subject[* FILTER cond]``:
    a non-array subject yields ``[]``; otherwise the suffix or condition
    runs once per element with ``$CURRENT`` bound on a copy of the frame."""
    subject_fn = _compile(expr.subject)
    if isinstance(expr, ast.Expansion) and expr.suffix is None:

        def expand(ctx, frame):
            subject = subject_fn(ctx, frame)
            if _type_of(subject) is not _TypeTag.ARRAY:
                return []
            return list(subject)

        return expand
    keep = isinstance(expr, ast.InlineFilter)
    element_fn = _compile(expr.condition if keep else expr.suffix)

    def per_element(ctx, frame):
        subject = subject_fn(ctx, frame)
        if _type_of(subject) is not _TypeTag.ARRAY:
            return []
        output = []
        for element in subject:
            inner = dict(frame)
            inner["$CURRENT"] = element
            value = element_fn(ctx, inner)
            if not keep:
                output.append(value)
            elif _truthy(value):
                output.append(element)
        return output

    return per_element


_COMPARISONS: dict[str, Callable[[int], bool]] = {
    "==": lambda c: c == 0,
    "!=": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def _like_regex(pattern: str) -> "re.Pattern":
    # re.escape leaves % and _ untouched, so the SQL wildcards survive
    # escaping and can be rewritten into regex equivalents.
    return re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL,
    )


def _compile_binop(expr: ast.BinOp) -> CompiledFn:
    op = expr.op
    left_fn = _compile(expr.left)
    right_fn = _compile(expr.right)

    if op == "AND":

        def and_op(ctx, frame):
            if not _truthy(left_fn(ctx, frame)):
                return False
            return _truthy(right_fn(ctx, frame))

        return and_op

    if op == "OR":

        def or_op(ctx, frame):
            if _truthy(left_fn(ctx, frame)):
                return True
            return _truthy(right_fn(ctx, frame))

        return or_op

    if op in _COMPARISONS:
        verdict = _COMPARISONS[op]
        return lambda ctx, frame: verdict(
            _compare(left_fn(ctx, frame), right_fn(ctx, frame))
        )

    if op == "IN":
        values_equal = datamodel.values_equal

        def in_op(ctx, frame):
            left = left_fn(ctx, frame)
            right = right_fn(ctx, frame)
            if _type_of(right) is not _TypeTag.ARRAY:
                raise ExecutionError("IN expects an array on the right")
            return any(values_equal(left, item) for item in right)

        return in_op

    if op == "LIKE":
        if isinstance(expr.right, ast.Literal) and isinstance(
            expr.right.value, str
        ):
            # Constant pattern: compile the regex once per plan.
            regex = _like_regex(expr.right.value)

            def like_constant(ctx, frame):
                left = left_fn(ctx, frame)
                if not isinstance(left, str):
                    return False
                return regex.match(left) is not None

            return like_constant

        def like_dynamic(ctx, frame):
            left = left_fn(ctx, frame)
            right = right_fn(ctx, frame)
            if not isinstance(left, str) or not isinstance(right, str):
                return False
            return _like_regex(right).match(left) is not None

        return like_dynamic

    if op in ("+", "-", "*", "/", "%"):

        def arithmetic(ctx, frame):
            left = left_fn(ctx, frame)
            right = right_fn(ctx, frame)
            for operand in (left, right):
                if _type_of(operand) is not _TypeTag.NUMBER:
                    raise ExecutionError(
                        f"arithmetic {op} expects numbers, got "
                        f"{datamodel.type_name(operand)} "
                        f"(use CONCAT for strings)"
                    )
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise ExecutionError("division by zero")
                return left / right
            if right == 0:
                raise ExecutionError("modulo by zero")
            return left % right

        return arithmetic

    def unknown(ctx, frame):
        raise ExecutionError(f"unknown operator {op!r}")

    return unknown


# ---------------------------------------------------------------------------
# Columnar kernels (segment scans — see repro.storage.segments)
# ---------------------------------------------------------------------------
#
# These lower the hot operator shapes onto ColumnBatch: filter predicates
# evaluate column-at-a-time into a selection vector, projections read one
# column directly.  A kernel factory returns None when the expression shape
# is not columnar (the executor then pivots to rows); a kernel *call*
# returns None when the batch at hand lacks the column (per-segment
# fallback).  Either way semantics are identical to the row path — the
# kernels reimplement datamodel.compare's total order, with a direct
# numeric fast path when both sides are guaranteed numbers.

_EMPTY_FRAME: dict = {}

#: Comparison flipped to keep the column on the left (``5 < c.x`` becomes
#: ``c.x > 5``).
_FLIP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def columnar_attr(expr: ast.Expr, var: str) -> Any:
    """The column name when *expr* is a single attribute access on *var*
    (``var.column``), else None."""
    if (
        isinstance(expr, ast.AttrAccess)
        and isinstance(expr.subject, ast.VarRef)
        and expr.subject.name == var
    ):
        return expr.attribute
    return None


def _constant_fn(expr: ast.Expr):
    """Compiled value fn for frame-independent expressions, else None."""
    if isinstance(expr, (ast.Literal, ast.BindVar)):
        return _compile(expr)
    return None


def _column_comparison(node: ast.Expr, var: str):
    """``(column, op, value_fn)`` when *node* is ``var.col <op> constant``
    (either orientation), else None."""
    if not (isinstance(node, ast.BinOp) and node.op in _FLIP):
        return None
    column = columnar_attr(node.left, var)
    value_fn = _constant_fn(node.right)
    if column is not None and value_fn is not None:
        return (column, node.op, value_fn)
    column = columnar_attr(node.right, var)
    value_fn = _constant_fn(node.left)
    if column is not None and value_fn is not None:
        return (column, _FLIP[node.op], value_fn)
    return None


def extract_zone_predicates(condition: ast.Expr, var: str) -> list:
    """Zone-map-prunable conjuncts of a FILTER condition.

    Returns ``[(column, op, value_fn), …]`` for every top-level AND
    conjunct of the form ``var.column <op> constant`` with *op* in
    ``== < <= > >=`` (``!=`` can never prune a min/max range).  The
    FILTER itself still runs in full — pruning only skips segments whose
    zone range makes a conjunct unsatisfiable, so any conjuncts this
    function cannot express are simply not used for pruning."""
    predicates = []
    for node in conjuncts(condition):
        found = _column_comparison(node, var)
        if found is not None and found[1] != "!=":
            predicates.append(found)
    return predicates


def _cmp_kernel(column_name: str, op: str, value_fn: CompiledFn):
    """Selection-vector kernel for one ``column <op> constant`` conjunct.

    Typed int/float arrays compare against numeric constants directly
    (NULL handled by position set: NULL sorts *below* every number, so
    ``<``/``<=``/``!=`` keep null rows and ``==``/``>``/``>=`` drop
    them — exactly datamodel.compare's verdict); everything else goes
    through the full model comparison per value."""
    verdict = _COMPARISONS[op]

    def kernel(ctx, segment, indices):
        column = segment.columns.get(column_name)
        if column is None:
            return None
        constant = value_fn(ctx, _EMPTY_FRAME)
        nulls = segment.nulls.get(column_name)
        if (
            isinstance(column, array)
            and isinstance(constant, (int, float))
            and not isinstance(constant, bool)
        ):
            if not nulls:
                if op == "==":
                    return [i for i in indices if column[i] == constant]
                if op == "!=":
                    return [i for i in indices if column[i] != constant]
                if op == "<":
                    return [i for i in indices if column[i] < constant]
                if op == "<=":
                    return [i for i in indices if column[i] <= constant]
                if op == ">":
                    return [i for i in indices if column[i] > constant]
                return [i for i in indices if column[i] >= constant]
            if op == "==":
                return [
                    i for i in indices
                    if i not in nulls and column[i] == constant
                ]
            if op == "!=":
                return [
                    i for i in indices
                    if i in nulls or column[i] != constant
                ]
            if op == "<":
                return [
                    i for i in indices
                    if i in nulls or column[i] < constant
                ]
            if op == "<=":
                return [
                    i for i in indices
                    if i in nulls or column[i] <= constant
                ]
            if op == ">":
                return [
                    i for i in indices
                    if i not in nulls and column[i] > constant
                ]
            return [
                i for i in indices
                if i not in nulls and column[i] >= constant
            ]
        compare = _compare
        if nulls:
            return [
                i
                for i in indices
                if verdict(
                    compare(None if i in nulls else column[i], constant)
                )
            ]
        return [i for i in indices if verdict(compare(column[i], constant))]

    return kernel


def compile_filter_columnar(condition: ast.Expr, var: str):
    """Lower a FILTER condition into a columnar selection kernel
    ``fn(ctx, batch) -> selected_indices | None``.

    Supported shape: an AND-chain where every conjunct compares one
    column of *var* against a constant.  Returns None (compile-time
    fallback) for anything else; the kernel itself returns None
    (run-time fallback) when a segment lacks one of the columns."""
    kernels = []
    for node in conjuncts(condition):
        found = _column_comparison(node, var)
        if found is None:
            return None
        kernels.append(_cmp_kernel(*found))
    if not kernels:
        return None
    if len(kernels) == 1:
        single = kernels[0]

        def filter_one(ctx, batch):
            return single(ctx, batch.segment, batch.indices())

        return filter_one

    def filter_columnar(ctx, batch):
        segment = batch.segment
        indices = batch.indices()
        for kernel in kernels:
            indices = kernel(ctx, segment, indices)
            if indices is None:
                return None
            if not indices:
                break
        return indices

    return filter_columnar


def compile_projection_columnar(expr: ast.Expr, var: str):
    """Lower a RETURN projection into ``fn(ctx, batch) -> values | None``.

    Two shapes stay columnar: the whole row (``RETURN var`` — the stored
    record dicts, no frame copies) and a single column
    (``RETURN var.column`` — read straight out of the typed array)."""
    if isinstance(expr, ast.VarRef) and expr.name == var:

        def project_rows(ctx, batch):
            stored = batch.segment.rows
            return [stored[i] for i in batch.indices()]

        return project_rows
    column_name = columnar_attr(expr, var)
    if column_name is None:
        return None

    def project_column(ctx, batch):
        segment = batch.segment
        column = segment.columns.get(column_name)
        if column is None:
            return None
        nulls = segment.nulls.get(column_name)
        if not nulls:
            return [column[i] for i in batch.indices()]
        return [
            None if i in nulls else column[i] for i in batch.indices()
        ]

    return project_column
