"""Rule-based query optimizer: a fixpoint engine over the rule registry.

The rewrites themselves live in two places: this module keeps the four
classic transformation functions (constant folding, filter pushdown,
index selection, hash joins — each still importable and independently
callable, as the ablation tests rely on), while :mod:`repro.query.rules`
wraps them — plus the subquery rewrites (decorrelation, shared LET
materialization) and predicate splitting — into a named, toggleable
:data:`~repro.query.rules.REGISTRY`.

:func:`optimize` drives that registry to a **fixpoint** of declared
dependencies (:func:`_fixpoint`).  The statement comes first; then every
subquery the outer rules left in the plan is planned the same way, as a
nested scope that knows which variables are bound around it.  The names
of the rules that fired — at any depth — land on
``query.rules_fired`` for EXPLAIN's ``Rules fired:`` line, and — when the
database carries a :class:`repro.query.statistics.StatisticsStore` — the
final plan is annotated with per-operator cardinality estimates that
EXPLAIN ANALYZE compares against actuals (Q-error), closing the feedback
loop.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Optional

from repro.query import ast
from repro.query.plan import (
    HashJoinOp,
    IndexScanOp,
    LookupJoinOp,
    MaterializeOp,
    SemiJoinOp,
)
from repro.query.visit import (
    WRITE_OPS,
    and_join,
    binds,
    conjuncts,
    contains_write,
    map_children,
    map_operation_exprs,
    nested_queries,
    operation_exprs,
    variables_in,
    walk,
)

__all__ = [
    "optimize",
    "summarize",
    "fold_constants",
    "push_down_filters",
    "select_indexes",
    "build_hash_joins",
]

_FOLDABLE_BINOPS = {"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "AND", "OR"}
_FOLDS = (ast.BinOp, ast.UnaryOp, ast.Ternary)


# ---------------------------------------------------------------------------
# Rule 1: constant folding
# ---------------------------------------------------------------------------


def _fold_expr(expr: ast.Expr) -> ast.Expr:
    expr = map_children(expr, _fold_expr)
    if isinstance(expr, ast.BinOp):
        if (
            isinstance(expr.left, ast.Literal)
            and isinstance(expr.right, ast.Literal)
            and expr.op in _FOLDABLE_BINOPS
        ):
            folded = _try_fold(expr.op, expr.left.value, expr.right.value)
            if folded is not _NO_FOLD:
                return ast.Literal(folded)
    elif isinstance(expr, ast.UnaryOp):
        operand = expr.operand
        if isinstance(operand, ast.Literal):
            if expr.op == "-" and isinstance(operand.value, (int, float)):
                return ast.Literal(-operand.value)
            if expr.op == "NOT":
                from repro.core.datamodel import truthy

                return ast.Literal(not truthy(operand.value))
    elif isinstance(expr, ast.Ternary):
        if isinstance(expr.condition, ast.Literal):
            from repro.core.datamodel import truthy

            return expr.then if truthy(expr.condition.value) else expr.otherwise
    return expr


class _NoFold:
    pass


_NO_FOLD = _NoFold()


def _try_fold(op: str, left: Any, right: Any) -> Any:
    from repro.core import datamodel

    try:
        if op in ("+", "-", "*", "/", "%"):
            if (
                datamodel.type_of(left) is not datamodel.TypeTag.NUMBER
                or datamodel.type_of(right) is not datamodel.TypeTag.NUMBER
            ):
                return _NO_FOLD
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return _NO_FOLD if right == 0 else left / right
            return _NO_FOLD if right == 0 else left % right
        comparison = datamodel.compare(left, right)
        if op == "==":
            return comparison == 0
        if op == "!=":
            return comparison != 0
        if op == "<":
            return comparison < 0
        if op == "<=":
            return comparison <= 0
        if op == ">":
            return comparison > 0
        if op == ">=":
            return comparison >= 0
        if op == "AND":
            return datamodel.truthy(left) and datamodel.truthy(right)
        if op == "OR":
            return datamodel.truthy(left) or datamodel.truthy(right)
    except Exception:
        return _NO_FOLD
    return _NO_FOLD


def _foldable(node: ast.Expr) -> bool:
    """True when :func:`_fold_expr` could collapse *node* as its operands
    stand: every fold starts from such a node."""
    kind = type(node)
    if kind is ast.Ternary:
        return type(node.condition) is ast.Literal
    return (kind is ast.UnaryOp or (kind is ast.BinOp and node.op in _FOLDABLE_BINOPS)) and all(
        type(child) is ast.Literal for child in node.children()
    )


def fold_constants(query: ast.Query) -> ast.Query:
    operations = [map_operation_exprs(op, _fold_expr) for op in query.operations]
    changed = any(new is not old for new, old in zip(operations, query.operations))
    return ast.Query(operations) if changed else query


# ---------------------------------------------------------------------------
# Rule 2: filter pushdown
# ---------------------------------------------------------------------------


def push_down_filters(query: ast.Query) -> ast.Query:
    """Move each FILTER to just after the last operation binding a variable
    it reads.  Barriers (SORT/LIMIT/COLLECT/DML) are never crossed because
    crossing them changes semantics."""
    operations = list(query.operations)
    barriers = (ast.SortOp, ast.LimitOp, ast.CollectOp) + WRITE_OPS
    moved = False
    changed = True
    while changed:
        changed = False
        for index, operation in enumerate(operations):
            if not isinstance(operation, ast.FilterOp):
                continue
            needed = variables_in(operation.condition)
            target = 0
            for earlier_index in range(index - 1, -1, -1):
                earlier = operations[earlier_index]
                if isinstance(earlier, barriers) or not needed.isdisjoint(
                    binds(earlier)
                ):
                    target = earlier_index + 1
                    break
            # Only move when the hop crosses a non-FILTER operation:
            # reordering a filter past sibling filters is semantically a
            # no-op, and attempting it makes two filters that share a
            # binder swap places forever.
            if target < index and any(
                not isinstance(operations[between], ast.FilterOp)
                for between in range(target, index)
            ):
                operations.pop(index)
                operations.insert(target, operation)
                changed = moved = True
                break
    return ast.Query(operations) if moved else query


# ---------------------------------------------------------------------------
# Rule 3: index selection
# ---------------------------------------------------------------------------


def _attr_path(expr: ast.Expr, var: str) -> Optional[tuple]:
    """``var.a.b`` → ("a", "b"); anything else → None."""
    steps: list[str] = []
    node = expr
    while isinstance(node, ast.AttrAccess):
        steps.append(node.attribute)
        node = node.subject
    if isinstance(node, ast.VarRef) and node.name == var and steps:
        return tuple(reversed(steps))
    return None


def _is_probe_value(expr: ast.Expr, loop_var: str) -> bool:
    """True when *expr* can serve as an index probe: it must not depend on
    the loop variable itself (correlated outer variables are fine — the
    probe is re-evaluated per outer frame, which is an index nested-loop
    join)."""
    if isinstance(expr, ast.SubQuery):
        return False
    return loop_var not in variables_in(expr)


def _equality_probes(parts: list, var: str) -> Iterator[tuple]:
    """``(position, path, probe)`` for each of the conjuncts *parts* that
    reads ``var.path == probe``, either way round, with a probe that does
    not depend on *var*."""
    for position, conjunct in enumerate(parts):
        if not (isinstance(conjunct, ast.BinOp) and conjunct.op == "=="):
            continue
        for path_side, probe_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            path = _attr_path(path_side, var)
            if path is not None and _is_probe_value(probe_side, var):
                yield position, path, probe_side


def _filter_run(operations: list, start: int) -> list:
    """The FILTERs that follow one another from *operations[start]* on."""
    end = start
    while end < len(operations) and isinstance(operations[end], ast.FilterOp):
        end += 1
    return operations[start:end]


def _run_probes(filters: list, var: str) -> Iterator[tuple]:
    """``(filter number, conjuncts, position, path, probe)`` for each
    equality probe on *var* among the conjuncts of the FILTERs *filters*,
    in the order they are written."""
    for number, filter_op in enumerate(filters):
        parts = conjuncts(filter_op.condition)
        for position, path, probe in _equality_probes(parts, var):
            yield number, parts, position, path, probe


def select_indexes(
    query: ast.Query, db, scope=frozenset(), writes=None, near_miss=None
) -> ast.Query:
    """Rewrite a scan and the run of FILTERs after it into an index scan
    where the catalog allows; *query* itself when no scan can be served.

    Every conjunct of every FILTER of the run is a candidate probe, so
    ``FILTER a FILTER b``, ``FILTER b FILTER a`` and ``FILTER a AND b``
    (split by ``predicate_split``) plan alike: the FILTER whose conjunct
    the index serves becomes the scan (its other conjuncts the residual),
    and the run's other FILTERs follow it in their order.

    *scope* holds the variables the enclosing scopes bind (empty for a
    top-level statement): a FOR over a name bound there or upstream
    iterates that variable's array, not the collection of the same name,
    so no index can serve it.  In a statement that writes the scans probe
    frame by frame (:attr:`IndexScanOp.per_frame`); *writes()*, asked once a
    scan is made, says whether it does (by default, whether *query* does).
    ``near_miss(source, path)`` hears of each path a scan had no index for."""
    operations = query.operations
    result: list[ast.Operation] = []
    bound_vars = set(scope)
    per_frame = None
    index = 0
    while index < len(operations):
        operation = operations[index]
        next_operation = operations[index + 1] if index + 1 < len(operations) else None
        rewritten = None
        if (
            isinstance(operation, ast.ForOp)
            and isinstance(operation.source, ast.VarRef)
            and operation.source.name not in bound_vars
            and isinstance(next_operation, ast.FilterOp)
        ):
            filters = _filter_run(operations, index + 1)
            rewritten = _try_index_scan(operation, filters, db, near_miss)
        bound_vars.update(binds(operation))
        if rewritten is not None:
            rewritten, rest = rewritten
            if per_frame is None:
                per_frame = contains_write(query) if writes is None else writes()
            rewritten.per_frame = per_frame
            result.append(rewritten)
            result.extend(rest)
            index += 1 + len(filters)
        else:
            result.append(operation)
            index += 1
    return query if per_frame is None else ast.Query(result)


def _try_index_scan(
    for_op: ast.ForOp, filters: list, db, near_miss=None
) -> Optional[tuple]:
    """``(index scan, the run's other FILTERs)`` for *for_op* and the
    FILTERs *filters* after it, or None.  Besides the secondary indexes,
    the store's primary key (:attr:`~repro.core.context.BaseStore.key_path`)
    is a unique point access path that is always there."""
    from repro.query.statistics import index_selectivity

    source_name = for_op.source.name
    try:
        store = db.resolve(source_name)
        namespace = store.namespace
    except Exception:
        return None
    key_path = getattr(store, "key_path", None)
    # Collect every index-servable conjunct, then pick the most selective
    # index (fewest expected matches per probe) — the cost-based choice;
    # on a tie, the first written.  The primary key matches at most one
    # record.
    candidates: list[tuple] = []
    missed: list[tuple] = []
    for number, parts, position, path, value_side in _run_probes(
        filters, for_op.var
    ):
        index_view = db.context.indexes.find(namespace, path, "point")
        if index_view is not None:
            candidates.append((
                index_selectivity(index_view), number, position,
                parts, index_view, path, value_side,
            ))
        elif path == key_path:
            candidates.append((0.0, number, position, parts, None, path, value_side))
        else:
            missed.append(path)
    if not candidates:
        if near_miss is not None:
            for path in missed:
                near_miss(source_name, path)
        return None
    candidates.sort(key=lambda entry: entry[:3])
    _selectivity, number, position, parts, index_view, path, value_side = (
        candidates[0]
    )
    if index_view is None:
        index_name, index_kind = f"primary:{namespace}:{'.'.join(path)}", "primary"
    else:
        index_name, index_kind = index_view.index.name, index_view.index.kind
    scan = IndexScanOp(
        var=for_op.var,
        source_name=source_name,
        path=path,
        value=value_side,
        index_name=index_name,
        index_kind=index_kind,
        residual=and_join(parts[:position] + parts[position + 1:]),
        original_condition=filters[number].condition,
    )
    return scan, filters[:number] + filters[number + 1:]


# ---------------------------------------------------------------------------
# Rule 4: hash joins
# ---------------------------------------------------------------------------

#: Operations that can emit more than one frame per input frame — the
#: signal that everything downstream runs once *per outer row*.
_MULTI_FRAME_OPS = (
    ast.ForOp,
    ast.TraversalOp,
    ast.ShortestPathOp,
    IndexScanOp,
    HashJoinOp,
)


def multi_frame(operation: ast.Operation) -> bool:
    """True when *operation* can emit more than one frame per input frame:
    the multi-frame operations, and a lookup join of the traversal form."""
    return isinstance(operation, _MULTI_FRAME_OPS) or (
        type(operation) is LookupJoinOp and operation.fans_out
    )


def build_hash_joins(query: ast.Query, db, scope=frozenset()) -> ast.Query:
    """Rewrite correlated inner scans into hash joins.

    Pattern: an inner ``FOR x IN coll`` + ``FILTER … x.path == probe …``
    pair (after filter pushdown has made them adjacent, and after index
    selection has taken every pair an index can serve); as in
    :func:`select_indexes`, the probe may sit in any FILTER of the run
    after the FOR.  Executed naively
    the pair rescans *coll* once per outer frame — O(outer x inner); the
    :class:`HashJoinOp` builds a hash table over *coll* once and probes it
    per frame — O(outer + inner).

    The rewrite only fires when an earlier operation can produce multiple
    frames (otherwise the scan runs once and a plain filter — or an index
    scan — is already optimal), and never when the FOR source is a variable
    bound upstream or in *scope*, the enclosing scopes' variables (that is
    array iteration, not a collection scan).  Hence the head FOR of a
    subquery never becomes a hash join, however often the enclosing query
    runs it: its build would be redone per outer row, which is the rescan
    the join was meant to replace.  Returns *query* itself when no scan
    becomes a join.
    """
    operations = query.operations
    result: list[ast.Operation] = []
    bound_vars: set[str] = set(scope)
    inner_loop = joined = False
    index = 0
    while index < len(operations):
        operation = operations[index]
        next_operation = (
            operations[index + 1] if index + 1 < len(operations) else None
        )
        if (
            inner_loop
            and isinstance(operation, ast.ForOp)
            and isinstance(operation.source, ast.VarRef)
            and operation.source.name not in bound_vars
            and isinstance(next_operation, ast.FilterOp)
        ):
            filters = _filter_run(operations, index + 1)
            rewritten = _try_hash_join(operation, filters, db)
            if rewritten is not None:
                rewritten, rest = rewritten
                result.append(rewritten)
                result.extend(rest)
                bound_vars.update(binds(rewritten))
                inner_loop = joined = True
                index += 1 + len(filters)
                continue
        if multi_frame(operation):
            inner_loop = True
        bound_vars.update(binds(operation))
        result.append(operation)
        index += 1
    return ast.Query(result) if joined else query


def _try_hash_join(
    for_op: ast.ForOp, filters: list, db
) -> Optional[tuple]:
    """``(hash join, the run's other FILTERs)`` for *for_op* and the
    FILTERs *filters* after it, or None."""
    source_name = for_op.source.name
    try:
        db.resolve(source_name)
    except Exception:
        return None
    for number, parts, position, path, probe_side in _run_probes(
        filters, for_op.var
    ):
        join = HashJoinOp(
            var=for_op.var,
            source_name=source_name,
            build_path=path,
            probe=probe_side,
            residual=and_join(parts[:position] + parts[position + 1:]),
            original_condition=filters[number].condition,
        )
        return join, filters[:number] + filters[number + 1:]
    return None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def optimize(
    query: ast.Query,
    db,
    disabled=None,
    ast_only: bool = False,
) -> ast.Query:
    """Drive the rule registry to a fixpoint over *query*.

    Rules apply in registry order (normalization → subquery rewrites →
    access paths; hash joins run last so index selection gets first pick:
    an index nested-loop probe needs no build and stays current under
    writes), each only on a statement that holds what it can match (one
    :func:`summarize` walk), again only when a fired rule enables it.

    Toggles compose from two sources: the ``disabled`` iterable of rule
    names and the database's ``optimizer_rules``
    (:class:`repro.query.rules.RuleToggles`).  A disabled rule never
    fires — the ablation suite proves result parity for every single-rule
    ablation.

    ``ast_only=True`` applies only the AST-safe subset (folding,
    predicate split, pushdown): the output is guaranteed re-parseable
    through :mod:`repro.query.unparse`, which is what the cluster
    coordinator needs before segmenting a statement for shards.  Rules
    that inspect the catalog are likewise skipped when *db* is None.

    With physical planning on (a database, not ``ast_only``), every
    subquery still in the plan after the statement's own fixpoint — so
    decorrelation and LET materialization keep first pick on the
    unplanned subquery — is planned through the same rules and toggles as
    a nested scope (:func:`_plan_nested_scopes`); the summary tells
    whether the statement holds any.

    The names of the rules that fired, inside subqueries included, are
    recorded on ``query.rules_fired`` (EXPLAIN renders them); with a
    database attached, the statement's own operators are annotated with
    cardinality estimates fed by the statistics store's observed feedback.
    """
    from repro.query import rules as rules_module
    from repro.query.statistics import annotate_estimates

    off = set(disabled or ())
    toggles = getattr(db, "optimizer_rules", None)
    if toggles is not None:
        off |= set(toggles.disabled)
    physical = db is not None and not ast_only
    active = [
        rule
        for rule in rules_module.REGISTRY
        if rule.name not in off and (rule.ast_safe or physical)
    ]
    context = rules_module.RuleContext(db=db)
    features = summarize(query)
    # No rule adds a subquery: a statement without one keeps none, and
    # writes iff one of its own operations does.
    nested = physical and ast.SubQuery in features
    if physical and not nested:
        context.writes = not features.isdisjoint(WRITE_OPS)
    optimized = _fixpoint(query, active, context, features)
    if nested and any(nested_queries(op) for op in optimized.operations):
        # Settle the verdict on the whole statement: a nested scope's rules
        # would otherwise work it out from their own query.
        context.statement_writes(optimized)
        optimized = _plan_nested_scopes(optimized, active, context)
    if optimized is query:
        # Never hand back the caller's object with mutated metadata.
        optimized = ast.Query(list(query.operations))
    optimized.rules_fired = tuple(context.fired)
    if physical:
        annotate_estimates(optimized, db)
    return optimized


def summarize(query: ast.Query) -> set:
    """The types of *query*'s operations and of the expression nodes in
    them (a subquery is one ``ast.SubQuery``, not entered), plus the
    ``rules.FOLDABLE`` and ``rules.COLLECT_INTO`` features."""
    from repro.query.rules import COLLECT_INTO, FOLDABLE

    found: set = set()
    for operation in query.operations:
        kind = type(operation)
        found.add(kind)
        if kind is ast.CollectOp and operation.into:
            found.add(COLLECT_INTO)
        elif kind is MaterializeOp:
            found.add(ast.SubQuery)
        for expr in operation_exprs(operation):
            for node in walk(expr):
                node_kind = type(node)
                found.add(node_kind)
                if node_kind in _FOLDS and _foldable(node):
                    found.add(FOLDABLE)
    return found


def _fixpoint(query: ast.Query, active, context, features: set) -> ast.Query:
    """Apply the *active* rules to a fixpoint; *query* itself when none
    fired.  The first pass calls each rule whose ``matches`` meet the
    query's *features*; a rule that fires returns a new query, and only
    the rules it ``enables`` run again (this pass when they come after
    it, the next when before), for at most ``rules.MAX_PASSES``."""
    from repro.query.rules import MAX_PASSES

    names = {rule.name for rule in active}
    pending = {rule.name for rule in active if not features.isdisjoint(rule.matches)}
    optimized = query
    for _pass in range(MAX_PASSES):
        if not pending:
            break
        for rule in active:
            if rule.name not in pending:
                continue
            pending.discard(rule.name)
            rewritten = rule.rewrite(optimized, context)
            if rewritten is not optimized:
                optimized = rewritten
                if rule.name not in context.fired:
                    context.fired.append(rule.name)
                pending.update(names.intersection(rule.enables))
    return optimized


def _plan_nested_scopes(query: ast.Query, active, context) -> ast.Query:
    """Plan every query nested in *query* (itself already at its
    fixpoint) as a scope of its own: the same rules, with the variables
    bound around it in ``context.scope``, then its own nested queries."""

    def plan_scope(inner: ast.Query, scope: frozenset) -> ast.Query:
        inner_context = dataclasses.replace(context, scope=scope)
        settled = _fixpoint(inner, active, inner_context, summarize(inner))
        return _plan_nested_scopes(settled, active, inner_context)

    bound = set(context.scope)
    operations: list[ast.Operation] = []
    for operation in query.operations:
        # The operation's own variables are in scope for a residual; for
        # its other expressions they only make the scope larger, which
        # errs towards "correlated".
        bound.update(binds(operation))
        if isinstance(operation, MaterializeOp):
            # Runs once, from an empty frame: a top-level scope.
            operation = dataclasses.replace(
                operation, query=plan_scope(operation.query, frozenset())
            )
        elif nested_queries(operation):
            scope = frozenset(bound)
            if isinstance(operation, SemiJoinOp):
                # Its residual runs with the join's variable bound,
                # which nothing downstream ever sees.
                scope |= {operation.var}
            # By node identity: a scan or join holds a subquery of its
            # residual or probe in its original condition too; it is
            # planned once and stays one node.
            planned: dict[int, ast.SubQuery] = {}

            def plan_in(expr: ast.Expr) -> ast.Expr:
                if not isinstance(expr, ast.SubQuery):
                    return map_children(expr, plan_in)
                if id(expr) not in planned:
                    planned[id(expr)] = ast.SubQuery(plan_scope(expr.query, scope))
                return planned[id(expr)]

            operation = map_operation_exprs(operation, plan_in)
        operations.append(operation)
    return ast.Query(operations)
