"""Differential test for the expression code generator.

:func:`repro.query.compile.compile_expr` lowers an expression tree to
Python source.  A hypothesis strategy here builds trees over every node
kind the generator lowers — subqueries, ``[*]`` with and without a suffix,
inline filters, ternaries, LIKE, IN, arithmetic and unary minus included —
and evaluates each over frames holding missing, NULL and ill-typed values.
The generated function must agree with the small reference tree-walker
kept below, the way ``test_front_end_differential.py`` keeps a reference
lexer: an equal value (``repr``, so types count), or the same error class
and message.
"""

import operator
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import datamodel
from repro.core.database import MultiModelDB
from repro.errors import BindError, ExecutionError
from repro.query import ast
from repro.query.compile import compile_expr
from repro.query.executor import ExecContext, _run_pipeline
from repro.query.functions import call_function
from repro.query.parser import parse

# ---------------------------------------------------------------------------
# The reference: one recursive walk, the engine's semantics spelled out
# ---------------------------------------------------------------------------

_COMPARE = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}


def _is_number(value) -> bool:
    return datamodel.type_of(value) is datamodel.TypeTag.NUMBER


def _is_array(value) -> bool:
    return datamodel.type_of(value) is datamodel.TypeTag.ARRAY


def reference(ctx, expr, frame):
    kind = type(expr)
    if kind is ast.Literal:
        return expr.value
    if kind is ast.VarRef:
        if expr.name not in frame:
            raise BindError(f"unknown variable {expr.name!r}")
        return frame[expr.name]
    if kind is ast.BindVar:
        if expr.name not in ctx.bind_vars:
            raise BindError(f"missing bind parameter @{expr.name}")
        return datamodel.normalize(ctx.bind_vars[expr.name])
    if kind is ast.AttrAccess:
        subject = reference(ctx, expr.subject, frame)
        return datamodel.deep_get(subject, (expr.attribute,))
    if kind is ast.IndexAccess:
        subject = reference(ctx, expr.subject, frame)
        index = reference(ctx, expr.index, frame)
        if isinstance(index, bool) or not isinstance(index, (int, str)):
            raise ExecutionError(
                "index values must be integers or strings, got "
                f"{datamodel.type_name(index)}"
            )
        return datamodel.deep_get(subject, (index,))
    if kind is ast.FuncCall:
        args = [reference(ctx, arg, frame) for arg in expr.args]
        return call_function(ctx, expr.name, args)
    if kind is ast.UnaryOp:
        operand = reference(ctx, expr.operand, frame)
        if expr.op == "NOT":
            return not datamodel.truthy(operand)
        if not _is_number(operand):
            raise ExecutionError("unary - expects a number")
        return -operand
    if kind is ast.BinOp:
        return _binop(ctx, expr, frame)
    if kind is ast.RangeExpr:
        low = reference(ctx, expr.low, frame)
        high = reference(ctx, expr.high, frame)
        if not (_is_number(low) and _is_number(high)):
            raise ExecutionError("range bounds must be numbers")
        return list(range(int(low), int(high) + 1))
    if kind is ast.ArrayLiteral:
        return [reference(ctx, item, frame) for item in expr.items]
    if kind is ast.ObjectLiteral:
        return {key: reference(ctx, value, frame) for key, value in expr.items}
    if kind is ast.Ternary:
        if datamodel.truthy(reference(ctx, expr.condition, frame)):
            return reference(ctx, expr.then, frame)
        return reference(ctx, expr.otherwise, frame)
    if kind in (ast.Expansion, ast.InlineFilter):
        subject = reference(ctx, expr.subject, frame)
        if not _is_array(subject):
            return []
        if kind is ast.Expansion and expr.suffix is None:
            return list(subject)
        output = []
        for element in subject:
            inner = {**frame, "$CURRENT": element}
            if kind is ast.Expansion:
                output.append(reference(ctx, expr.suffix, inner))
            elif datamodel.truthy(reference(ctx, expr.condition, inner)):
                output.append(element)
        return output
    if kind is ast.SubQuery:
        return _run_pipeline(ctx, expr.query, dict(frame))[0]
    raise AssertionError(f"no reference for {kind.__name__}")


def _binop(ctx, expr, frame):
    op = expr.op
    if op in ("AND", "OR"):
        left = datamodel.truthy(reference(ctx, expr.left, frame))
        if left == (op == "OR"):
            return left
        return datamodel.truthy(reference(ctx, expr.right, frame))
    left = reference(ctx, expr.left, frame)
    right = reference(ctx, expr.right, frame)
    if op in _COMPARE:
        return _COMPARE[op](datamodel.compare(left, right), 0)
    if op == "IN":
        if not _is_array(right):
            raise ExecutionError("IN expects an array on the right")
        return any(datamodel.values_equal(left, item) for item in right)
    if op == "LIKE":
        if not isinstance(left, str) or not isinstance(right, str):
            return False
        pattern = re.escape(right).replace("%", ".*").replace("_", ".")
        return re.match(f"^{pattern}$", left, re.DOTALL) is not None
    for operand in (left, right):
        if not _is_number(operand):
            raise ExecutionError(
                f"arithmetic {op} expects numbers, got "
                f"{datamodel.type_name(operand)} (use CONCAT for strings)"
            )
    if op in ("/", "%") and right == 0:
        raise ExecutionError("division by zero" if op == "/" else "modulo by zero")
    return _ARITHMETIC[op](left, right)


# ---------------------------------------------------------------------------
# Trees, frames and the comparison
# ---------------------------------------------------------------------------

LITERALS = st.sampled_from(
    [None, True, False, 0, 1, 2, -1, 1.5, 0.0, "", "a", "ab", "a%", "_b"]
)
NAMES = st.sampled_from(
    ["x", "x", "s", "arr", "doc", "doc", "nothing", "missing", "$CURRENT"]
)
#: Attribute paths into ``doc``, present and missing at each step.
PATHS = st.sampled_from([
    parse(f"RETURN {text}").operations[-1].expr
    for text in ("doc.a", "doc.a.b", "doc.a.zz", "doc.zz.b", "doc.items", "doc.b")
])
#: Operands that often meet as equals, for the comparisons' edges.
NUMBERS = st.sampled_from(
    [ast.Literal(2), ast.Literal(2.0), ast.Literal(1), ast.VarRef("x"), ast.BindVar("n")]
)
LEAVES = st.one_of(
    st.builds(ast.Literal, LITERALS),
    st.builds(ast.VarRef, NAMES),
    st.builds(ast.BindVar, st.sampled_from(["n", "n", "p", "absent"])),
    PATHS,
    st.builds(ast.BinOp, st.sampled_from(list(_COMPARE)), NUMBERS, NUMBERS),
)
SUBQUERIES = [
    parse(f"RETURN ({text})").operations[-1].expr
    for text in (
        "FOR d IN docs SORT d.n RETURN d.n * x",
        "FOR d IN docs FILTER d.n < LENGTH(arr) RETURN {k: d._key, c: $CURRENT}",
        "FOR v IN arr[*] RETURN v + 1",
        "FOR d IN docs LIMIT 2 RETURN [d.n, $CURRENT]",
    )
]


def _extend(inner):
    return st.one_of(
        st.builds(ast.AttrAccess, inner, st.sampled_from(["a", "b", "items", "zz"])),
        st.builds(ast.IndexAccess, inner, inner),
        st.builds(
            ast.FuncCall,
            st.sampled_from(["LENGTH", "TO_STRING", "UPPER"]),
            st.tuples(inner),
        ),
        st.builds(ast.UnaryOp, st.sampled_from(["-", "NOT"]), inner),
        st.builds(
            ast.BinOp,
            st.sampled_from(list(_COMPARE) + list(_ARITHMETIC)
                            + ["AND", "OR", "IN", "LIKE"]),
            inner, inner,
        ),
        # Bounds from leaves only: a computed bound could be huge.
        st.builds(ast.RangeExpr, LEAVES, LEAVES),
        st.builds(ast.ArrayLiteral, st.lists(inner, max_size=3).map(tuple)),
        st.builds(
            ast.ObjectLiteral,
            st.lists(st.tuples(st.sampled_from(["a", "b"]), inner), max_size=2)
            .map(tuple),
        ),
        st.builds(ast.Ternary, inner, inner, inner),
        st.builds(ast.Expansion, inner, st.none() | inner),
        st.builds(ast.InlineFilter, inner, inner),
        st.sampled_from(SUBQUERIES),
    )


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=10)

BASE = {
    "x": 2,
    "s": "ab",
    "arr": [3, 1, "a", None],
    "doc": {"a": {"b": 1}, "b": [1, 2], "items": [{"a": 1}, {"a": "z"}, 7]},
    "nothing": None,
}
#: The frame, then the frame with one name missing, and with one name
#: NULL or of another type: every tree is evaluated over all of them.
FRAMES = [BASE] + [
    {key: value for key, value in BASE.items() if key != name} for name in BASE
] + [
    {**BASE, name: value}
    for name in BASE
    for value in (None, "7", 1.5, True, [], {"a": "b"})
]

DB = MultiModelDB()
for number in range(3):
    (DB.collection("docs") if number else DB.create_collection("docs")).insert(
        {"_key": f"d{number}", "n": number}
    )


def _outcome(run):
    try:
        return "value", repr(run())
    except Exception as error:  # the class and message are what is compared
        return type(error).__name__, str(error)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(expr=EXPRESSIONS)
def test_generated_code_equals_the_reference_walk(expr):
    ctx = ExecContext(db=DB, bind_vars={"n": 2, "p": "a%"})
    generated = compile_expr(expr, "differential")
    for frame in FRAMES:
        assert _outcome(lambda: generated(ctx, dict(frame))) == _outcome(
            lambda: reference(ctx, expr, dict(frame))
        ), frame


# ---------------------------------------------------------------------------
# Every operator over a grid of values, as variables and as literals
# ---------------------------------------------------------------------------

GRID = [None, False, True, 0, 2, 2.0, 1.5, -1, "", "a", "ab", "a%", [False, 2.0],
        {"a": 2}]
A, B = ast.VarRef("a"), ast.VarRef("b")


def _forms():
    """Each operator with two variable operands, then with a literal on
    either side (the literal cases lower to their own fast paths)."""
    for op in [*_COMPARE, *_ARITHMETIC, "AND", "OR", "IN", "LIKE"]:
        yield ast.BinOp(op, A, B)
        for literal in (None, 2, 2.0, 0, "a", "a%"):
            yield ast.BinOp(op, ast.Literal(literal), B)
            yield ast.BinOp(op, A, ast.Literal(literal))
    for index in (B, ast.Literal(0), ast.Literal(1), ast.Literal(-1), ast.Literal("a")):
        yield ast.IndexAccess(A, index)
    yield ast.AttrAccess(ast.AttrAccess(A, "a"), "a")
    yield ast.UnaryOp("-", A)
    yield ast.UnaryOp("NOT", A)
    yield ast.RangeExpr(A, B)
    yield ast.Expansion(A, ast.BinOp("+", ast.VarRef("$CURRENT"), B))
    yield ast.InlineFilter(A, ast.BinOp("==", ast.VarRef("$CURRENT"), B))
    yield ast.Expansion(A, SUBQUERIES[-1])  # the subquery reads $CURRENT


def test_every_operator_over_a_value_grid():
    ctx = ExecContext(db=DB, bind_vars={})
    for expr in _forms():
        generated = compile_expr(expr, "grid")
        for a in GRID:
            for b in GRID:
                frame = {"a": a, "b": b}
                assert _outcome(lambda: generated(ctx, dict(frame))) == _outcome(
                    lambda: reference(ctx, expr, dict(frame))
                ), (expr, frame)
