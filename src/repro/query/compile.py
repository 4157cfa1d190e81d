"""Generated code: MMQL expressions lowered to Python source.

This is the engine's one expression evaluator.  A :class:`Source` turns an
``ast.Expr`` tree into Python statements, emitted one at a time in
evaluation order, with every structural decision — node kind, operator,
literal, attribute name — settled while generating.  The exact-``dict``
step of :func:`~repro.core.datamodel.deep_get` and the same-type fast path
of :func:`~repro.core.datamodel.compare` are inlined, a variable, bind
parameter or attribute read once per frame stays in a local, and a LIKE
pattern literal's regex is built once.  :func:`compile_expr` wraps one
expression as ``fn(ctx, frame) -> value``.  The executor wraps its
per-batch loops — FILTER / LET / RETURN runs, FOR over an expression, the
COLLECT fold, the key gather of lookups — the same way, expressions
inlined, so a frame pays no Python call per expression node.

Every node kind lowers, subqueries, array expansion ``[*]`` and inline
filters ``[* FILTER …]`` included; the last two bind ``$CURRENT`` to a
local per element.  Each source is ``compile()``d once per plan node: the
executor memoizes the result there, so a warm plan cache generates
nothing.  The source is registered with :mod:`linecache` under its
operator's EXPLAIN label, so a traceback through it shows the emitted line.
"""

from __future__ import annotations

import functools
import linecache
import re
from array import array
from collections import deque
from contextlib import contextmanager
from keyword import iskeyword
from typing import Any, Callable, Optional

from repro.core import datamodel
from repro.errors import BindError, ExecutionError
from repro.obs import metrics as obs_metrics
from repro.query import ast
from repro.query.functions import call_function
from repro.query.unparse import unparse_expr
from repro.query.visit import conjuncts

__all__ = [
    "Source",
    "compile_expr",
    "compile_filter_columnar",
    "compile_projection_columnar",
    "extract_zone_predicates",
    "columnar_attr",
    "fallback_node_counts",
    "CompiledFn",
]

#: A compiled expression: ``fn(ctx, frame) -> value``.
CompiledFn = Callable[[Any, dict], Any]

_compare = datamodel.compare


def fallback_node_counts(query) -> dict[str, int]:
    """Always ``{}``: every node kind compiles, so no expression subtree
    falls back to another evaluator.  Kept because the benchmark harness
    still reads it to report ``query.compile.fallbacks_per_stmt``."""
    return {}


_COMPILED_TOTAL = obs_metrics.counter("expr_compile_total", outcome="compiled")

#: Generated sources kept in linecache at once; the oldest goes first.
_LINECACHE_LIMIT = 1024
_registered: deque = deque()


@functools.lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> "re.Pattern":
    """The regex of a LIKE pattern, built once per distinct pattern: a
    literal pattern is as often a (lifted) bind parameter, read per row."""
    # re.escape leaves % and _ untouched, so the SQL wildcards survive
    # escaping and can be rewritten into regex equivalents.
    return re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL,
    )


def _in_array(left, right) -> bool:
    return any(datamodel.values_equal(left, item) for item in right)


#: What every generated function reads besides its own constants.  FAST:
#: the operand types Python's own comparison orders as compare() does;
#: MODEL: the exact model types, for which ``x == NULL`` is ``x is None``.
_GLOBALS = dict(
    ARRAY=datamodel.TypeTag.ARRAY, NUMBER=datamodel.TypeTag.NUMBER,
    BindError=BindError, ExecutionError=ExecutionError,
    in_array=_in_array, type_name=datamodel.type_name,
    like_regex=_like_regex, call_function=call_function, compare=_compare,
    deep_get=datamodel.deep_get, normalize=datamodel.normalize,
    truthy=datamodel.truthy, type_of=datamodel.type_of,
    value_token=datamodel.value_token,
    FAST=frozenset(((str, str), (int, int), (float, float), (int, float), (float, int))),
    NUMERIC=frozenset((int, float)),
    MODEL=frozenset((type(None), bool, int, float, str, list, tuple, dict)),
)

#: A comparison in Python's own operators, valid for FAST operand pairs
#: (``>`` as ``not <=`` keeps compare()'s verdict even for a NaN).
_PYTHON_VERDICT = {
    "==": "{0} == {1}", "!=": "{0} != {1}", "<": "{0} < {1}",
    "<=": "{0} <= {1}", ">": "not {0} <= {1}", ">=": "not {0} < {1}",
}

_NOT_NUMBER = "type({0}) is not int and type({0}) is not float and type_of({0}) is not NUMBER"


def _register(filename: str, source: str) -> str:
    """Put *source* in linecache under *filename*, for tracebacks."""
    if filename not in linecache.cache:
        _registered.append(filename)
        if len(_registered) > _LINECACHE_LIMIT:
            linecache.cache.pop(_registered.popleft(), None)
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    return filename


class Source:
    """Python source under construction: functions emitted a statement at
    a time, constants handed to them by name.

    :meth:`value` lowers an expression — it emits the statements that
    compute it and returns the Python expression (a local or a literal)
    that holds the result; :meth:`test` is that result's truthiness.
    Within a function ``bound`` maps a variable, bind parameter or
    attribute path already read to the local holding it, so a frame is
    read once per name, and ``overrides`` holds the variables kept only in
    locals (a fused LET, an expansion's ``$CURRENT``), which a frame handed
    on must add."""

    def __init__(self, label: str):
        self.label = label
        self.lines: list = []
        self.names: dict = {}
        self.depth = 0
        self.loops = 0
        self.serial = 0
        self.bound: dict = {}
        self.overrides: dict = {}
        self.bools: set = {"True", "False"}

    def line(self, *texts: str) -> None:
        self.lines.extend("    " * self.depth + text for text in texts)

    def raise_if(self, condition: str, error: str) -> None:
        self.line(f"if {condition}:", f"    raise {error}")

    def fresh(self) -> str:
        self.serial += 1
        return f"v{self.serial}"

    def const(self, value: Any) -> str:
        name = f"k{len(self.names)}"
        self.names[name] = value
        return name

    def assign(self, text: str, boolean: bool = False) -> str:
        local = self.fresh()
        self.line(f"{local} = {text}")
        if boolean:
            self.bools.add(local)
        return local

    def local(self, text: str) -> str:
        """*text* as a name (a literal is assigned to one first)."""
        return text if text.isidentifier() and not iskeyword(text) else self.assign(text)

    @contextmanager
    def block(self, header: str):
        """An indented suite under *header*; what it reads stays in it."""
        self.line(header)
        saved = dict(self.bound), dict(self.overrides), self.loops
        self.depth += 1
        self.loops += header.startswith(("for ", "try:"))
        try:
            yield
        finally:
            self.depth -= 1
            self.bound, self.overrides, self.loops = saved

    def function(self, name: str, params: str):
        """A new top-level function, nothing read yet."""
        self.bound, self.overrides = {}, {}
        return self.block(f"def {name}({params}):")

    def read(self, key: str, text: str, error: str) -> str:
        """The local holding *text* (a frame or bind lookup that raises
        KeyError), read once per function scope; *error* if it is absent."""
        local = self.bound.get(key)
        if local is None:
            local = self.bound[key] = self.fresh()
            self.line("try:", f"    {local} = {text}", "except KeyError:",
                      f"    raise {error} from None")
        return local

    def frame(self) -> str:
        """The frame with the locals-only variables added, as a dict."""
        if not self.overrides:
            return "frame"
        pairs = ", ".join(
            f"{name!r}: {local}" for name, local in self.overrides.items()
        )
        return f"{{**frame, {pairs}}}"

    def value(self, expr: ast.Expr) -> str:
        if self.depth > 40 or self.loops > 12:
            # Python caps indentation and nested loops: a subtree nested
            # this deep becomes a function of its own, called on the frame.
            nested = self.const(compile_expr(expr, f"{self.label} #{self.serial}"))
            return self.assign(f"{nested}(ctx, {self.frame()})")
        lower = _LOWER.get(type(expr))
        if lower is None:
            raise ExecutionError(f"cannot evaluate {type(expr).__name__}")
        return lower(self, expr)

    def test(self, value: str) -> str:
        return value if value in self.bools else f"truthy({value})"

    def build(self, **names) -> dict:
        """``compile()`` the source once; its namespace, functions in it."""
        source = "\n".join(self.lines) + "\n"
        filename = _register(f"<mmql {self.label}>", source)
        namespace = {**_GLOBALS, **self.names, **names}
        exec(compile(source, filename, "exec"), namespace)
        if obs_metrics.ENABLED:
            _COMPILED_TOTAL.inc()
        return namespace


def compile_expr(expr: ast.Expr, label: Optional[str] = None) -> CompiledFn:
    """Lower *expr* into ``fn(ctx, frame) -> value``."""
    src = Source(label or unparse_expr(expr, explain=True))
    with src.function("expr", "ctx, frame"):
        src.line(f"return {src.value(expr)}")
    return src.build()["expr"]


# ---------------------------------------------------------------------------
# Lowering, one function per node kind
# ---------------------------------------------------------------------------


def _is_number_literal(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.Literal) and type(expr.value) in (int, float)


def _literal(src: Source, expr: ast.Literal) -> str:
    value = expr.value
    if value is None or type(value) in (str, int, bool):
        return repr(value)
    return src.const(value)


def _var_ref(src: Source, expr: ast.VarRef) -> str:
    message = f"unknown variable {expr.name!r}"
    return src.read(expr.name, f"frame[{expr.name!r}]", f"BindError({message!r})")


def _bind_var(src: Source, expr: ast.BindVar) -> str:
    key = "@" + expr.name
    fresh = key not in src.bound
    message = f"missing bind parameter @{expr.name}"
    local = src.read(key, f"ctx.bind_vars[{expr.name!r}]", f"BindError({message!r})")
    if fresh:
        # Strings and ints are their own normal form (a lifted literal
        # always is one of them, or a float).
        src.line(f"if type({local}) is not str and type({local}) is not int:",
                 f"    {local} = normalize({local})")
    return local


def _attr_access(src: Source, expr: ast.AttrAccess) -> str:
    path: list = []
    node: ast.Expr = expr
    while isinstance(node, ast.AttrAccess):
        path.append(node.attribute)
        node = node.subject
    current = src.local(src.value(node))
    for step in reversed(path):
        local = src.bound.get((current, step))
        if local is None:
            local = src.bound[(current, step)] = src.assign(
                f"{current}.get({step!r}) if type({current}) is dict "
                f"else deep_get({current}, ({step!r},))"
            )
        current = local
    return current


def _index_access(src: Source, expr: ast.IndexAccess) -> str:
    subject = src.local(src.value(expr.subject))
    index = src.value(expr.index)
    literal = expr.index.value if isinstance(expr.index, ast.Literal) else None
    if type(literal) is int and literal >= 0:
        return src.assign(
            f"{subject}[{index}] if type({subject}) is list and "
            f"len({subject}) > {index} else deep_get({subject}, ({index},))"
        )
    if type(literal) is not int and type(literal) is not str:
        src.raise_if(f"isinstance({index}, bool) or not isinstance({index}, (int, str))",
                     "ExecutionError('index values must be integers or strings, got ' "
                     f"+ type_name({index}))")
    return src.assign(f"deep_get({subject}, ({index},))")


def _func_call(src: Source, expr: ast.FuncCall) -> str:
    args = ", ".join([src.value(arg) for arg in expr.args])
    return src.assign(f"call_function(ctx, {expr.name!r}, [{args}])")


def _unary(src: Source, expr: ast.UnaryOp) -> str:
    operand = src.value(expr.operand)
    if expr.op != "-":
        return src.assign(f"not {src.test(operand)}", boolean=True)
    if not _is_number_literal(expr.operand):
        src.raise_if(_NOT_NUMBER.format(operand),
                     "ExecutionError('unary - expects a number')")
    return src.assign(f"-{operand}")


def _binary(src: Source, expr: ast.BinOp) -> str:
    op = expr.op
    if op in ("AND", "OR"):
        result = src.assign(src.test(src.value(expr.left)), boolean=True)
        with src.block(f"if {result}:" if op == "AND" else f"if not {result}:"):
            src.line(f"{result} = {src.test(src.value(expr.right))}")
        return result
    left = src.value(expr.left)
    right = src.value(expr.right)
    if op in _PYTHON_VERDICT:
        return _comparison(src, expr, left, right)
    if op == "IN":
        src.raise_if(f"type({right}) is not list and type_of({right}) is not ARRAY",
                     "ExecutionError('IN expects an array on the right')")
        return src.assign(f"({left} in {right}) if type({left}) is str "
                          f"else in_array({left}, {right})", boolean=True)
    if op == "LIKE":
        pattern = expr.right.value if isinstance(expr.right, ast.Literal) else None
        if type(pattern) is str:
            regex = src.const(_like_regex(pattern))
            return src.assign(f"isinstance({left}, str) and "
                              f"{regex}.match({left}) is not None", boolean=True)
        return src.assign(f"isinstance({left}, str) and isinstance({right}, str) and "
                          f"like_regex({right}).match({left}) is not None", boolean=True)
    if op in ("+", "-", "*", "/", "%"):
        for side, operand in ((expr.left, left), (expr.right, right)):
            if not _is_number_literal(side):
                src.raise_if(_NOT_NUMBER.format(operand),
                             f"ExecutionError('arithmetic {op} expects numbers, got ' + "
                             f"type_name({operand}) + ' (use CONCAT for strings)')")
        if op in ("/", "%") and not (_is_number_literal(expr.right) and expr.right.value):
            message = "division by zero" if op == "/" else "modulo by zero"
            src.raise_if(f"{right} == 0", f"ExecutionError({message!r})")
        return src.assign(f"{left} {op} {right}")
    message = f"unknown operator {op!r}"
    src.line(f"raise ExecutionError({message!r})")
    return "None"


def _comparison(src: Source, expr: ast.BinOp, left: str, right: str) -> str:
    """compare()'s verdict, answered by Python's own operator when the
    operand types allow it (an int/float against a number literal, a
    string against a string literal, ``x == NULL`` as ``x is None``)."""
    op = expr.op
    verdict = f"compare({left}, {right}) {op} 0"
    nulls = [isinstance(side, ast.Literal) and side.value is None
             for side in (expr.left, expr.right)]
    if op in ("==", "!=") and any(nulls):
        other = right if nulls[0] else left
        fast = f"{other} is None" if op == "==" else f"{other} is not None"
        guard = f"type({other}) in MODEL"
    else:
        fast = _PYTHON_VERDICT[op].format(left, right)
        guard = f"(type({left}), type({right})) in FAST"
        for side, other in ((expr.right, left), (expr.left, right)):
            if _is_number_literal(side):
                guard = f"type({other}) in NUMERIC"
            elif isinstance(side, ast.Literal) and type(side.value) is str:
                guard = f"type({other}) is str"
    return src.assign(f"({fast}) if {guard} else ({verdict})", boolean=True)


def range_values(src: Source, expr: ast.RangeExpr) -> str:
    """A Python ``range`` over ``low..high``, its bounds checked: what a FOR
    iterates, so that it never builds the array."""
    low = src.value(expr.low)
    high = src.value(expr.high)
    src.raise_if(f"{_NOT_NUMBER.format(low)} or {_NOT_NUMBER.format(high)}",
                 "ExecutionError('range bounds must be numbers')")
    return f"range(int({low}), int({high}) + 1)"


def _range(src: Source, expr: ast.RangeExpr) -> str:
    return src.assign(f"list({range_values(src, expr)})")


def _array(src: Source, expr: ast.ArrayLiteral) -> str:
    return src.assign("[" + ", ".join([src.value(item) for item in expr.items]) + "]")


def _object(src: Source, expr: ast.ObjectLiteral) -> str:
    entries = [f"{key!r}: {src.value(value)}" for key, value in expr.items]
    return src.assign("{" + ", ".join(entries) + "}")


def _ternary(src: Source, expr: ast.Ternary) -> str:
    condition = src.test(src.value(expr.condition))
    result = src.fresh()
    with src.block(f"if {condition}:"):
        src.line(f"{result} = {src.value(expr.then)}")
    with src.block("else:"):
        src.line(f"{result} = {src.value(expr.otherwise)}")
    return result


def _per_element(src: Source, expr) -> str:
    """``subject[*]`` / ``subject[*]<suffix>`` / ``subject[* FILTER cond]``:
    a non-array subject yields ``[]``; otherwise the suffix or condition
    runs once per element with ``$CURRENT`` bound to it."""
    subject = src.local(src.value(expr.subject))
    is_array = f"type({subject}) is list or type_of({subject}) is ARRAY"
    if isinstance(expr, ast.Expansion) and expr.suffix is None:
        return src.assign(f"list({subject}) if {is_array} else []")
    keep = isinstance(expr, ast.InlineFilter)
    result = src.assign("[]")
    with src.block(f"if {is_array}:"):
        element = src.fresh()
        with src.block(f"for {element} in {subject}:"):
            src.bound["$CURRENT"] = src.overrides["$CURRENT"] = element
            value = src.value(expr.condition if keep else expr.suffix)
            if keep:
                with src.block(f"if {src.test(value)}:"):
                    src.line(f"{result}.append({element})")
            else:
                src.line(f"{result}.append({value})")
    return result


def _subquery(src: Source, expr: ast.SubQuery) -> str:
    # executor imports this module, so reach back into it lazily.
    from repro.query.executor import _run_pipeline

    frame = src.frame() if src.overrides else "dict(frame)"
    run, query = src.const(_run_pipeline), src.const(expr.query)
    return src.assign(f"{run}(ctx, {query}, {frame})[0]")


_LOWER = {
    ast.Literal: _literal,
    ast.VarRef: _var_ref,
    ast.BindVar: _bind_var,
    ast.AttrAccess: _attr_access,
    ast.IndexAccess: _index_access,
    ast.FuncCall: _func_call,
    ast.UnaryOp: _unary,
    ast.BinOp: _binary,
    ast.RangeExpr: _range,
    ast.ArrayLiteral: _array,
    ast.ObjectLiteral: _object,
    ast.Ternary: _ternary,
    ast.Expansion: _per_element,
    ast.InlineFilter: _per_element,
    ast.SubQuery: _subquery,
}


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
# kernels keep datamodel.compare's total order, with a direct numeric
# fast path when both sides are guaranteed numbers.

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


def _column_comparison(node: ast.Expr, var: str):
    """``(column, op, constant)`` when *node* is ``var.col <op> constant``
    (either orientation) and the constant a literal or bind parameter,
    else None."""
    if not (isinstance(node, ast.BinOp) and node.op in _FLIP):
        return None
    for column_side, constant, op in (
        (node.left, node.right, node.op), (node.right, node.left, _FLIP[node.op])
    ):
        column = columnar_attr(column_side, var)
        if column is not None and isinstance(constant, (ast.Literal, ast.BindVar)):
            return (column, op, constant)
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
            column, op, constant = found
            predicates.append((column, op, compile_expr(constant)))
    return predicates


def compile_filter_columnar(condition: ast.Expr, var: str):
    """Lower a FILTER condition into a columnar selection kernel
    ``fn(ctx, batch) -> selected_indices | None``, generated code.

    Supported shape: an AND-chain where every conjunct compares one
    column of *var* against a constant.  Returns None (compile-time
    fallback) for anything else; the kernel itself returns None
    (run-time fallback) when a segment lacks one of the columns.  Per
    conjunct, a typed int/float column meets a numeric constant directly
    (NULL sorts *below* every number, so ``<``/``<=``/``!=`` keep null
    rows and ``==``/``>``/``>=`` drop them — exactly compare()'s
    verdict); everything else goes through compare() per value."""
    found = [_column_comparison(node, var) for node in conjuncts(condition)]
    if not found or None in found:
        return None
    src = Source(f"Filter {unparse_expr(condition, explain=True)} columnar")
    with src.function("kernel", "ctx, batch"):
        src.line("segment = batch.segment", "indices = batch.indices()")
        for column, op, constant in found:
            src.line(f"column = segment.columns.get({column!r})", "if column is None:",
                     "    return None", f"constant = {src.value(constant)}",
                     f"nulls = segment.nulls.get({column!r})")
            keep_nulls = "i in nulls or" if op in ("!=", "<", "<=") else "i not in nulls and"
            fast = "isinstance(column, array) and type(constant) in NUMERIC"
            for header, pick in (
                (f"if {fast} and nulls:", f"{keep_nulls} column[i] {op} constant"),
                (f"elif {fast}:", f"column[i] {op} constant"),
                ("elif nulls:", f"compare(None if i in nulls else column[i], constant) {op} 0"),
                ("else:", f"compare(column[i], constant) {op} 0"),
            ):
                with src.block(header):
                    src.line(f"indices = [i for i in indices if {pick}]")
            src.line("if not indices:", "    return indices")
        src.line("return indices")
    return src.build(array=array)["kernel"]


def compile_projection_columnar(expr: ast.Expr, var: str):
    """Lower a RETURN projection into ``fn(ctx, batch) -> values | None``.

    Two shapes stay columnar: the whole row (``RETURN var`` — the stored
    record dicts, no frame copies) and a single column
    (``RETURN var.column`` — read straight out of the typed array)."""
    if isinstance(expr, ast.VarRef) and expr.name == var:
        return lambda ctx, batch: list(map(batch.segment.rows.__getitem__, batch.indices()))
    column_name = columnar_attr(expr, var)
    if column_name is None:
        return None

    def project_column(ctx, batch):
        column = batch.segment.columns.get(column_name)
        if column is None:
            return None
        nulls = batch.segment.nulls.get(column_name)
        if not nulls:
            return list(map(column.__getitem__, batch.indices()))
        return [None if i in nulls else column[i] for i in batch.indices()]

    return project_column
