"""Rewrite-rule registry for the MMQL optimizer.

The optimizer used to be four hand-ordered function calls; it is now a
**registry of rules** applied to a fixpoint by :func:`repro.query.
optimizer.optimize`.  Each rule is a named match+rewrite pair:

* ``rewrite(query, ctx)`` returns a rewritten :class:`ast.Query` (or the
  input unchanged when the rule does not apply) — rules never mutate the
  input plan;
* the ``name`` is what EXPLAIN's ``Rules fired:`` line reports and what
  :class:`RuleToggles` / the ablation suite toggle;
* ``ast_safe`` marks rules whose output is still pure AST (re-parseable
  through :mod:`repro.query.unparse`).  The cluster coordinator replans
  with only these before segmenting, since shard statements travel as
  text; physical rules (index scans, joins) fire shard-locally.

Registry order is the application order within one fixpoint pass:
normalization first (folding, predicate split, pushdown), then the
subquery rewrites (decorrelation, materialization), then access-path
selection (indexes before hash joins, so an index nested-loop keeps
first pick), and last the set-at-a-time lookup joins.

A rule rewrites one query's operations and never looks inside a
subquery: the optimizer plans each subquery left in the plan as a scope
of its own, through this same registry, and tells the rules which
variables the enclosing scopes bind (:attr:`RuleContext.scope`).

Rules also drive the index advisor: when a rewrite *almost* fires — the
predicate shape matches but no index exists — the rule records an
:class:`IndexSuggestion` on the database (``db.index_suggestions``),
surfaced by ``advise(db)`` and the shell's ``.advise``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.query import ast
from repro.query.optimizer import (
    _equality_probes,
    build_hash_joins,
    fold_constants,
    multi_frame,
    push_down_filters,
    select_indexes,
)
from repro.query.plan import AntiJoinOp, LookupJoinOp, MaterializeOp, SemiJoinOp
from repro.query.visit import (
    and_join,
    binds,
    conjuncts,
    contains_write,
    free_vars,
    map_children,
    map_operation_exprs,
    nested_queries,
    reads,
    variables_in,
    walk,
)

__all__ = [
    "Rule",
    "RuleContext",
    "RuleToggles",
    "IndexSuggestion",
    "SuggestionLog",
    "REGISTRY",
    "rule_names",
    "MAX_PASSES",
    "keeps_every_frame",
    "map_reached",
]

#: Fixpoint bound — every current rule is idempotent, so passes converge
#: in two or three iterations; the cap is a runaway backstop.
MAX_PASSES = 10


# ---------------------------------------------------------------------------
# Registry plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexSuggestion:
    """A near-miss recorded by a rule: the predicate shape matched but no
    index could serve it."""

    source: str
    path: tuple
    rule: str
    reason: str

    def describe(self) -> str:
        dotted = ".".join(self.path)
        return (
            f"CREATE hash INDEX ON {self.source}({dotted})  "
            f"-- {self.reason} [{self.rule}]"
        )


class SuggestionLog:
    """Bounded, deduplicated log of :class:`IndexSuggestion`s, hung off
    the database (``db.index_suggestions``).  Thread-safe: the optimizer
    runs on server worker threads."""

    def __init__(self, capacity: int = 256):
        self.capacity = max(int(capacity), 1)
        self._entries: "OrderedDict[tuple, list]" = OrderedDict()
        self._lock = threading.Lock()

    def record(self, suggestion: IndexSuggestion) -> None:
        key = (suggestion.source, suggestion.path, suggestion.rule)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = [suggestion, 1]
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
            else:
                entry[1] += 1

    def entries(self) -> list[tuple[IndexSuggestion, int]]:
        with self._lock:
            return [
                (suggestion, count)
                for suggestion, count in self._entries.values()
            ]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass
class RuleContext:
    """What a rule sees besides the plan: the database (None for
    ast-only replanning, e.g. on the cluster coordinator), the
    suggestion hook, and — when the plan is a nested query — where it
    sits.

    ``scope`` holds the variables the enclosing scopes bind around the
    query being rewritten (empty for the statement itself).  A rule that
    asks "does this read anything the loop binds" or "is this FOR over a
    collection or over a variable" must count them as bound: a subquery
    two levels down that reads the outermost variable is correlated,
    though nothing in its own query or its parent's binds it.
    ``writes`` is whether the statement performs DML, None until a rule
    asks (:meth:`statement_writes`)."""

    db: Any = None
    fired: list = field(default_factory=list)
    scope: frozenset = frozenset()
    writes: Optional[bool] = None

    def statement_writes(self, query: ast.Query) -> bool:
        """True when the statement performs DML.  Worked out from *query*
        — the statement being rewritten — the first time a rule asks, and
        kept: no rule adds or drops a write, and a nested scope inherits
        the verdict from its statement."""
        if self.writes is None:
            self.writes = contains_write(query)
        return self.writes

    def suggest(self, source: str, path: tuple, rule: str, reason: str) -> None:
        log = getattr(self.db, "index_suggestions", None)
        if log is not None:
            log.record(IndexSuggestion(source, tuple(path), rule, reason))


@dataclass(frozen=True)
class Rule:
    """One rewrite: ``rewrite(query, ctx) -> ast.Query``.

    ``ast_safe`` rules emit pure AST (unparseable back to MMQL text) and
    need no database — they are the subset the cluster coordinator may
    apply before shipping statements to shards."""

    name: str
    description: str
    rewrite: Callable[[ast.Query, RuleContext], ast.Query]
    ast_safe: bool = False


class RuleToggles:
    """Per-database rule switches (``db.optimizer_rules``), used by the
    ablation suite and by operators chasing a bad plan.

    The :func:`fingerprint` participates in the plan-cache key, so
    toggling a rule never serves a plan built under a different
    configuration (the cache-key bugfix this PR pins)."""

    def __init__(self):
        self._disabled: set[str] = set()

    @property
    def disabled(self) -> frozenset:
        return frozenset(self._disabled)

    def disable(self, name: str) -> None:
        if name not in rule_names():
            raise KeyError(f"unknown optimizer rule {name!r}")
        self._disabled.add(name)

    def enable(self, name: str) -> None:
        self._disabled.discard(name)

    def is_enabled(self, name: str) -> bool:
        return name not in self._disabled

    def fingerprint(self) -> tuple:
        """Sorted disabled-rule names — the plan-cache key component."""
        return tuple(sorted(self._disabled))

    def __repr__(self) -> str:
        return f"RuleToggles(disabled={sorted(self._disabled)})"


# ---------------------------------------------------------------------------
# Rule: predicate split
# ---------------------------------------------------------------------------


def _split_filter(condition: ast.Expr) -> Optional[list[ast.Expr]]:
    """Group the AND-conjuncts of one FILTER by the variable set each
    needs; >1 group means the filter can split so pushdown can move each
    part independently (e.g. the scan-var half of a mixed scan/traversal
    predicate slides down into the scan, where zone maps and index
    selection see it).  Same-variable conjuncts stay together, so index
    selection keeps its residual behavior."""
    parts = conjuncts(condition)
    if len(parts) < 2:
        return None
    groups: "OrderedDict[frozenset, list]" = OrderedDict()
    for conjunct in parts:
        groups.setdefault(frozenset(variables_in(conjunct)), []).append(
            conjunct
        )
    if len(groups) < 2:
        return None
    return [and_join(group) for group in groups.values()]


def _rule_predicate_split(query: ast.Query, ctx: RuleContext) -> ast.Query:
    operations: list = []
    changed = False
    for operation in query.operations:
        if isinstance(operation, ast.FilterOp):
            parts = _split_filter(operation.condition)
            if parts is not None:
                operations.extend(ast.FilterOp(part) for part in parts)
                changed = True
                continue
        operations.append(operation)
    return ast.Query(operations) if changed else query


# ---------------------------------------------------------------------------
# Rule: COLLECT … INTO members read only through aggregates
# ---------------------------------------------------------------------------

#: The array aggregates COLLECT … AGGREGATE folds into running accumulators
#: with the verdict the array function gives on the collected list: NULL
#: inputs skipped (COUNT counts them), the same error for a non-number,
#: sums added in member order.
_RUNNING_AGGREGATES = frozenset(("SUM", "MIN", "MAX", "AVG", "COUNT"))


def _member_path(suffix: Optional[ast.Expr], frame_vars: set) -> Optional[ast.Expr]:
    """``v.path`` for the suffix of ``members[*].v.path`` — a pure
    attribute chain under ``$CURRENT`` whose first step names a variable
    of the member frames — else None."""
    attributes: list = []
    node = suffix
    while isinstance(node, ast.AttrAccess):
        attributes.append(node.attribute)
        node = node.subject
    if (
        node != ast.VarRef("$CURRENT")
        or not attributes
        or attributes[-1] not in frame_vars
    ):
        return None
    member: ast.Expr = ast.VarRef(attributes.pop())
    for attribute in reversed(attributes):
        member = ast.AttrAccess(member, attribute)
    return member


def _collects_members(query: ast.Query) -> bool:
    """True when *query*, or a query nested in it, has a COLLECT … INTO:
    its member lists hold every variable of the frames they were built
    from, those of the enclosing scopes included."""
    return any(
        (type(operation) is ast.CollectOp and operation.into)
        or any(_collects_members(inner) for inner in nested_queries(operation))
        for operation in query.operations
    )


#: Operations that hand every frame on, one for one: an expression in or
#: below them still runs once for each group.
_KEEPS_EVERY_FRAME = (ast.LetOp, ast.SortOp)

#: Expression nodes that evaluate all their children whenever they are
#: evaluated themselves (a BinOp other than AND / OR is one too).
_EVALUATES_ALL = (
    ast.AttrAccess, ast.IndexAccess, ast.FuncCall, ast.UnaryOp,
    ast.RangeExpr, ast.ArrayLiteral, ast.ObjectLiteral,
)


def keeps_every_frame(operation: ast.Operation) -> bool:
    """True when *operation* hands every frame it is given on, one for
    one, so the operations after it still see each of them."""
    return type(operation) in _KEEPS_EVERY_FRAME or (
        type(operation) is LookupJoinOp and not operation.fans_out
    )


def map_reached(expr: ast.Expr, certain: bool, replace: Callable) -> ast.Expr:
    """*expr* rebuilt top-down through ``replace(node, certain)``: a node
    for which it returns an expression is replaced by it whole, any other
    is entered.  *certain* says the statement evaluates the node whenever
    it evaluates *expr*'s operation; below a ternary's arms, the right of
    AND / OR, an expansion or an inline filter it is False.

    This is the reachability guard of every rewrite that moves an
    aggregate over a group's members to where each group is built: an
    accumulator raises on a non-number while it runs, the array function
    only where it is called, so a use some group may never reach must
    stay where it is."""
    replaced = replace(expr, certain)
    if replaced is not None:
        return replaced
    if not (
        isinstance(expr, _EVALUATES_ALL)
        or (isinstance(expr, ast.BinOp) and expr.op not in ("AND", "OR"))
    ):
        certain = False
    return map_children(
        expr, lambda child: map_reached(child, certain, replace)
    )


def _fold_members(
    operations: list, index: int, frame_vars: set, taken: set
) -> Optional[list]:
    """*operations* with the COLLECT at *index* aggregating instead of
    collecting, or None when its member lists are needed as lists."""
    collect = operations[index]
    into = collect.into
    aggregates = list(collect.aggregates)
    folded: dict = {}

    def fold(expr: ast.Expr, certain: bool) -> Optional[ast.Expr]:
        """The aggregate variable for a use every group reaches (COUNT,
        which cannot fail, wherever it is)."""
        if (
            isinstance(expr, ast.FuncCall)
            and expr.name.upper() in _RUNNING_AGGREGATES
            and len(expr.args) == 1
            and isinstance(expr.args[0], ast.Expansion)
            and expr.args[0].subject == ast.VarRef(into)
        ):
            func = expr.name.upper()
            member = _member_path(expr.args[0].suffix, frame_vars)
            if member is not None and (certain or func == "COUNT"):
                key = (func, member)
                if key not in folded:
                    name = f"{into}_{len(folded)}"
                    while name in taken:
                        name = "_" + name
                    taken.add(name)
                    folded[key] = name
                    aggregates.append((name, func, member))
                return ast.VarRef(folded[key])
        return None

    downstream: list = []
    every_group = True
    for position in range(index + 1, len(operations)):
        operation = operations[position]
        if into in binds(operation):
            return None
        if any(_collects_members(inner) for inner in nested_queries(operation)):
            # A subquery's own INTO lists would show the members gone and
            # the aggregate variables in their place.
            return None
        operation = map_operation_exprs(
            operation, lambda expr: map_reached(expr, every_group, fold)
        )
        if into in reads(operation):
            # LENGTH(m), m returned or passed whole, m[*] bare, or an
            # aggregate a FILTER, LIMIT, FOR or short circuit may skip.
            return None
        downstream.append(operation)
        if type(operation) is ast.CollectOp:
            # The next COLLECT starts fresh frames: nothing after it sees
            # the members, or the aggregates that replace them.
            if operation.into or into in free_vars(operations[position + 1:]):
                return None
            downstream.extend(operations[position + 1:])
            break
        if not keeps_every_frame(operation):
            every_group = False
    if not folded:
        return None
    collect = ast.CollectOp(
        list(collect.groups), collect.count_into, None, aggregates
    )
    return operations[:index] + [collect] + downstream


def _rule_collect_into_aggregate(query: ast.Query, ctx: RuleContext) -> ast.Query:
    """``COLLECT g = e INTO m`` whose members are read only as
    ``SUM/MIN/MAX/AVG/COUNT(m[*].v.path)`` → ``COLLECT g = e AGGREGATE
    a = FUNC(v.path)``, the uses replaced by ``a``.

    The executor then keeps one running accumulator per group instead of a
    list of member frames it walks again, per member and per use, through
    an ``m[*]`` expansion.  An accumulator raises on a non-number
    input when it meets it, so only uses the statement evaluates for every
    group fold — none behind a FILTER, LIMIT or FOR, in a ternary's arm or
    right of AND / OR: a group such a guard spares must not fail the query
    (when no group is spared both forms raise, possibly naming another
    value).  Statements that write are left alone."""
    operations = query.operations
    for index, operation in enumerate(operations):
        if type(operation) is not ast.CollectOp or not operation.into:
            continue
        if ctx.statement_writes(query):
            return query
        # What the member frames hold: the variables bound since the last
        # COLLECT (which starts fresh frames), or since the enclosing scopes.
        frame_vars = set(ctx.scope)
        for upstream in operations[:index]:
            if type(upstream) is ast.CollectOp:
                frame_vars = set()
            frame_vars.update(binds(upstream))
        taken = frame_vars | free_vars(operations)
        for bound in operations:
            taken.update(binds(bound))
        rewritten = _fold_members(operations, index, frame_vars, taken)
        if rewritten is not None:
            # One COLLECT a pass; the fixpoint comes back for more.
            return ast.Query(rewritten)
    return query


# ---------------------------------------------------------------------------
# Rule: correlated subquery decorrelation (semi/anti join)
# ---------------------------------------------------------------------------


#: ``LENGTH(subq) <op> <n>`` forms that test pure existence.  Keys are the
#: normalized (operator, literal) with the call on the left.
_EXISTENCE_TESTS = {
    (">", 0): "semi",
    (">=", 1): "semi",
    ("!=", 0): "semi",
    ("==", 0): "anti",
    ("<", 1): "anti",
    ("<=", 0): "anti",
}

_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

_COUNT_FUNCS = {"LENGTH", "COUNT"}


def _existence_test(conjunct: ast.Expr) -> Optional[tuple]:
    """``(argument, "semi"|"anti")`` when *conjunct* is an existence test
    over ``LENGTH(...)``/``COUNT(...)``, else None."""
    if not isinstance(conjunct, ast.BinOp):
        return None
    op, left, right = conjunct.op, conjunct.left, conjunct.right
    if isinstance(left, ast.Literal):
        op, left, right = _MIRRORED.get(op, op), right, left
    if (
        not isinstance(left, ast.FuncCall)
        or left.name.upper() not in _COUNT_FUNCS
        or len(left.args) != 1
        or not isinstance(right, ast.Literal)
        or isinstance(right.value, bool)
        or not isinstance(right.value, int)
    ):
        return None
    kind = _EXISTENCE_TESTS.get((op, right.value))
    if kind is None:
        return None
    return left.args[0], kind


_SAFE_RETURN_NODES = (
    ast.Literal,
    ast.VarRef,
    ast.BindVar,
    ast.AttrAccess,
    ast.IndexAccess,
    ast.ArrayLiteral,
    ast.ObjectLiteral,
)


def _safe_return_expr(expr: ast.Expr) -> bool:
    """The decorrelated plan never evaluates the subquery's RETURN, so it
    must be an expression that could not have raised (no function calls,
    arithmetic, or nested subqueries)."""
    return all(isinstance(node, _SAFE_RETURN_NODES) for node in walk(expr))


def _match_semi_join(
    subquery: ast.Query, kind: str, bound: set, ctx: RuleContext
) -> Optional[ast.Operation]:
    """Build a Semi/AntiJoinOp from an existence-tested subquery of shape
    ``FOR x IN coll FILTER … RETURN safe-expr`` with an equality conjunct
    ``x.path == probe`` (probe independent of x — typically the outer
    correlation)."""
    operations = subquery.operations
    if len(operations) < 2:
        return None
    head, tail = operations[0], operations[-1]
    if (
        not isinstance(head, ast.ForOp)
        or not isinstance(head.source, ast.VarRef)
        or head.source.name in bound
    ):
        return None
    if not isinstance(tail, ast.ReturnOp) or not _safe_return_expr(tail.expr):
        return None
    middle = operations[1:-1]
    if not all(isinstance(op, ast.FilterOp) for op in middle):
        return None
    if contains_write(subquery):
        return None
    if ctx.db is not None:
        try:
            ctx.db.resolve(head.source.name)
        except Exception:
            return None
    parts: list = []
    for op in middle:
        parts.extend(conjuncts(op.condition))
    for position, path, probe_side in _equality_probes(parts, head.var):
        op_type = SemiJoinOp if kind == "semi" else AntiJoinOp
        joined = op_type(
            var=head.var,
            source_name=head.source.name,
            build_path=path,
            probe=probe_side,
            residual=and_join(parts[:position] + parts[position + 1:]),
            original_condition=and_join(parts),
        )
        _suggest_build_index(joined, ctx)
        return joined
    return None


def _suggest_build_index(operation, ctx: RuleContext) -> None:
    """Decorrelation fired on an unindexed build path: a point index
    would let index selection serve the inner side directly."""
    db = ctx.db
    if db is None:
        return
    try:
        namespace = db.resolve(operation.source_name).namespace
        existing = db.context.indexes.find(
            namespace, operation.build_path, "point"
        )
    except Exception:
        return
    if existing is None:
        ctx.suggest(
            operation.source_name,
            operation.build_path,
            "decorrelate_subquery",
            "decorrelated subquery builds a hash table over this path on "
            "every query; an index would serve it directly",
        )


def _rule_decorrelate(query: ast.Query, ctx: RuleContext) -> ast.Query:
    """Correlated existence subqueries → hash semi/anti joins.

    Two source shapes:

    * inline — ``FILTER LENGTH((FOR x IN coll FILTER … RETURN e)) > 0``;
    * via LET — ``LET v = (FOR x IN coll …)`` … ``FILTER LENGTH(v) > 0``
      with ``v`` used nowhere else.

    Executed naively the inner FOR rescans ``coll`` once per outer row;
    the join op builds one hash table and probes it per frame.  Only the
    existence of a match is observable (the RETURN value never escapes),
    so result parity holds for any safe RETURN expression."""
    operations = list(query.operations)
    changed = False
    guard = len(operations) + 1
    while guard:
        guard -= 1
        rewrote = False
        bound: set = set(ctx.scope)
        let_values: dict[str, tuple[int, ast.SubQuery]] = {}
        for index, operation in enumerate(operations):
            if isinstance(operation, ast.LetOp) and isinstance(
                operation.value, ast.SubQuery
            ):
                let_values[operation.var] = (index, operation.value)
            if not isinstance(operation, ast.FilterOp):
                bound.update(binds(operation))
                continue
            parts = conjuncts(operation.condition)
            for position, conjunct in enumerate(parts):
                test = _existence_test(conjunct)
                if test is None:
                    continue
                argument, kind = test
                let_index = None
                if isinstance(argument, ast.SubQuery):
                    subquery = argument.query
                elif (
                    isinstance(argument, ast.VarRef)
                    and argument.name in let_values
                ):
                    let_index, let_subquery = let_values[argument.name]
                    subquery = let_subquery.query
                    if not _let_var_is_private(
                        operations, argument.name, let_index, index, position
                    ):
                        continue
                else:
                    continue
                let_bound = set(bound)
                if let_index is not None:
                    # The subquery's scope is where the LET ran, not
                    # where the filter tests it.
                    let_bound = set(ctx.scope)
                    for earlier in operations[:let_index]:
                        let_bound.update(binds(earlier))
                joined = _match_semi_join(subquery, kind, let_bound, ctx)
                if joined is None:
                    continue
                rest = and_join(parts[:position] + parts[position + 1:])
                replacement: list = [joined]
                if rest is not None:
                    replacement.append(ast.FilterOp(rest))
                operations[index:index + 1] = replacement
                if let_index is not None:
                    del operations[let_index]
                rewrote = changed = True
                break
            if rewrote:
                break
            bound.update(binds(operation))
        if not rewrote:
            break
    return ast.Query(operations) if changed else query


def _let_var_is_private(
    operations: list, var: str, let_index: int, filter_index: int,
    conjunct_position: int,
) -> bool:
    """True when *var* (a LET of a subquery) is read only by the
    existence-test conjunct — the precondition for dropping the LET."""
    for index, operation in enumerate(operations):
        if index == let_index:
            continue
        if index == filter_index:
            for position, conjunct in enumerate(conjuncts(operation.condition)):
                if position == conjunct_position:
                    continue
                if var in variables_in(conjunct):
                    return False
            continue
        if var in reads(operation):
            return False
        if var in binds(operation):
            # Rebound downstream — shadowing, leave it alone.
            return False
    return True


# ---------------------------------------------------------------------------
# Rule: shared LET-subquery materialization
# ---------------------------------------------------------------------------


def _rule_materialize_let(query: ast.Query, ctx: RuleContext) -> ast.Query:
    """Uncorrelated ``LET v = (subquery)`` after a multi-frame operation
    → :class:`MaterializeOp`: the executor computes the rows **once per
    query** and shares them across every downstream frame, instead of
    re-running the subquery per frame.

    Guards: the subquery must read no variable bound upstream or by an
    enclosing scope (else it is genuinely correlated), and the whole
    statement must be read-only — re-execution of a subquery after DML
    could observe its own writes, and a one-shot materialization must not
    change that story because there is none to change."""
    operations = list(query.operations)
    changed = False
    fanned_out = False
    bound: set = set(ctx.scope)
    for index, operation in enumerate(operations):
        if (
            fanned_out
            and isinstance(operation, ast.LetOp)
            and isinstance(operation.value, ast.SubQuery)
            and not free_vars(operation.value.query.operations) & bound
        ):
            if ctx.statement_writes(query):
                return query
            operations[index] = MaterializeOp(
                var=operation.var, query=operation.value.query
            )
            changed = True
            bound.add(operation.var)
            continue
        if multi_frame(operation):
            fanned_out = True
        bound.update(binds(operation))
    return ast.Query(operations) if changed else query


# ---------------------------------------------------------------------------
# Rule: set-at-a-time cross-model lookups
# ---------------------------------------------------------------------------

#: The keyed functions a ``LET`` may call for a lookup join.
_LOOKUP_FUNCTIONS = ("DOCUMENT", "KV_GET")


def _lookup_join(operation: ast.Operation) -> Optional[LookupJoinOp]:
    """The :class:`LookupJoinOp` for a ``LET v = DOCUMENT('c', k)`` /
    ``LET v = KV_GET('b', k)`` or an edge-less ``1..1`` traversal, else
    None."""
    if type(operation) is ast.LetOp:
        value = operation.value
        if (
            type(value) is ast.FuncCall
            and value.name in _LOOKUP_FUNCTIONS
            and len(value.args) == 2
            and type(value.args[0]) is ast.Literal
            and type(value.args[0].value) is str
        ):
            return LookupJoinOp(
                operation.var, value.name, value.args[0].value, value.args[1]
            )
    elif (
        type(operation) is ast.TraversalOp
        and operation.min_depth == operation.max_depth == 1
        and operation.edge_var is None
    ):
        return LookupJoinOp(
            operation.var, "HOP", operation.graph, operation.start,
            operation.direction, operation.label,
        )
    return None


def _rule_lookup_join(query: ast.Query, ctx: RuleContext) -> ast.Query:
    """Per-frame cross-model lookups → :class:`LookupJoinOp`: the executor
    gathers a batch's keys, probes the store, bucket or adjacency once per
    distinct key and scatters the results back in frame order, instead of
    one scalar call per frame.

    Statements that write are left alone: a write landing between two
    probes of one batch would be seen by one frame and not the other."""
    operations = list(query.operations)
    changed = False
    for index, operation in enumerate(operations):
        joined = _lookup_join(operation)
        if joined is None:
            continue
        if ctx.statement_writes(query):
            return query
        operations[index] = joined
        changed = True
    return ast.Query(operations) if changed else query


# ---------------------------------------------------------------------------
# Rule wrappers for the classic rewrites
# ---------------------------------------------------------------------------


def _rule_constant_folding(query: ast.Query, ctx: RuleContext) -> ast.Query:
    return fold_constants(query)


def _rule_filter_pushdown(query: ast.Query, ctx: RuleContext) -> ast.Query:
    return push_down_filters(query)


def _rule_index_selection(query: ast.Query, ctx: RuleContext) -> ast.Query:
    rewritten = select_indexes(
        query, ctx.db, ctx.scope, writes=lambda: ctx.statement_writes(query)
    )
    _suggest_scan_near_misses(rewritten, ctx)
    return rewritten


def _rule_hash_join(query: ast.Query, ctx: RuleContext) -> ast.Query:
    return build_hash_joins(query, ctx.db, ctx.scope)


def _suggest_scan_near_misses(query: ast.Query, ctx: RuleContext) -> None:
    """Every FOR+FILTER equality pair still present after index selection
    is a near miss (a servable pair would have become an IndexScanOp):
    record the missing index."""
    db = ctx.db
    if db is None:
        return
    operations = query.operations
    for index, operation in enumerate(operations):
        if not (
            isinstance(operation, ast.ForOp)
            and isinstance(operation.source, ast.VarRef)
            and operation.source.name not in ctx.scope
        ):
            continue
        follower = operations[index + 1] if index + 1 < len(operations) else None
        if not isinstance(follower, ast.FilterOp):
            continue
        source_name = operation.source.name
        try:
            namespace = db.resolve(source_name).namespace
        except Exception:
            continue
        for _position, path, _probe in _equality_probes(
            conjuncts(follower.condition), operation.var
        ):
            try:
                if db.context.indexes.find(namespace, path, "point"):
                    continue
            except Exception:
                continue
            ctx.suggest(
                source_name,
                path,
                "index_selection",
                "equality predicate matched but no point index exists",
            )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


REGISTRY: tuple[Rule, ...] = (
    Rule(
        name="constant_folding",
        description="collapse pure arithmetic/boolean subtrees to literals",
        rewrite=_rule_constant_folding,
        ast_safe=True,
    ),
    Rule(
        name="predicate_split",
        description=(
            "split mixed-variable AND filters so each part can push down "
            "independently (through traversals into index/zone-map scans)"
        ),
        rewrite=_rule_predicate_split,
        ast_safe=True,
    ),
    Rule(
        name="filter_pushdown",
        description="move each FILTER just after the op binding its inputs",
        rewrite=_rule_filter_pushdown,
        ast_safe=True,
    ),
    Rule(
        name="collect_into_aggregate",
        description=(
            "COLLECT INTO members read only through SUM/MIN/MAX/AVG/COUNT "
            "keeps running aggregates instead of member lists"
        ),
        rewrite=_rule_collect_into_aggregate,
        ast_safe=True,
    ),
    Rule(
        name="decorrelate_subquery",
        description=(
            "existence-tested correlated subqueries become hash "
            "semi/anti joins"
        ),
        rewrite=_rule_decorrelate,
    ),
    Rule(
        name="materialize_let",
        description=(
            "uncorrelated LET subqueries materialize once per query "
            "instead of once per frame"
        ),
        rewrite=_rule_materialize_let,
    ),
    Rule(
        name="index_selection",
        description="scan+equality-filter pairs probe point indexes",
        rewrite=_rule_index_selection,
    ),
    Rule(
        name="hash_join",
        description="correlated inner scans become hash joins",
        rewrite=_rule_hash_join,
    ),
    Rule(
        name="lookup_join",
        description=(
            "LET DOCUMENT/KV_GET lookups and 1..1 traversals probe once "
            "per distinct key per batch"
        ),
        rewrite=_rule_lookup_join,
    ),
)


def rule_names() -> tuple[str, ...]:
    return tuple(rule.name for rule in REGISTRY)
