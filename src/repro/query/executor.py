"""MMQL execution: the batched operation pipeline.

Execution is *vectorized*: each operation transforms a stream of frame
**batches** (``list[dict]`` of variable bindings, ``ctx.batch_size`` frames
per batch) rather than single frames.  Per-row costs that used to be paid
on every frame — deadline checks, row-budget checks, probe bookkeeping,
generator suspensions — are amortized to once per batch, while the
per-frame loops of FOR, FILTER / LET / RETURN runs, COLLECT and the lookup
key gather are Python source generated once per plan, expressions inlined
(:mod:`repro.query.compile`).

Sources pull batches straight from the unified store cursors
(:func:`repro.core.cursor.open_scan_cursor`); RETURN materializes result
rows batch-at-a-time, which is also what lets the server stream results
through wire cursors without materializing everything.  Batches flow
lazily through FOR/FILTER/LET; SORT and COLLECT are pipeline breakers.

Statistics are collected per query (documents scanned, index lookups,
filters applied) so benchmarks and EXPLAIN ANALYZE-style assertions can
verify *how* a result was produced, not just what it is.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterator, Optional

from repro.core import datamodel
from repro.core.cursor import DEFAULT_BATCH_SIZE, open_scan_cursor
from repro.errors import (
    ExecutionError,
    FunctionError,
    QueryTimeoutError,
    ResourceExhaustedError,
    UnknownCollectionError,
)
from repro.obs import metrics as obs_metrics
from repro.query import ast
from repro.query.compile import (
    Source,
    columnar_attr,
    compile_expr,
    compile_filter_columnar,
    compile_projection_columnar,
    extract_zone_predicates,
    range_values,
)
from repro.query.functions import call_function, keyed_reader
from repro.query.plan import (
    AntiJoinOp,
    HashJoinOp,
    IndexScanOp,
    LookupJoinOp,
    MaterializeOp,
    SemiJoinOp,
    operation_label,
)
from repro.query.visit import conjuncts
from repro.storage.segments import ColumnBatch, segment_may_match

__all__ = ["ExecContext", "OpProbe", "Result", "execute_stream"]


def _generated(operation: Any, slot: str, generate, *args):
    """``generate(*args)``, memoized on the operation node under *slot*.

    Plans live in the plan cache across executions, so code is generated
    once per plan, not once per query; a warm cache runs straight
    generated code (:mod:`repro.query.compile`)."""
    fn = getattr(operation, slot, None)
    if fn is None:
        fn = generate(*args)
        setattr(operation, slot, fn)
    return fn


def _compiled(operation: Any, slot: str, expr: ast.Expr):
    """The generated ``fn(ctx, frame)`` of one of *operation*'s
    expressions, memoized under *slot*; an absent one is None."""
    fn = getattr(operation, slot, None)
    if fn is None and expr is not None:
        fn = compile_expr(expr, f"{operation_label(operation)} {slot.rsplit('_', 1)[-1]}")
        setattr(operation, slot, fn)
    return fn


@dataclass
class ExecContext:
    """Everything evaluation needs: the database, bind parameters, the
    optional enclosing transaction, and the stats accumulator.

    ``batch_size`` is the vectorization width: how many frames each
    pipeline batch carries (per-batch bookkeeping amortizes over it).

    ``analyze=True`` (the EXPLAIN ANALYZE path) wraps every top-level
    pipeline operator with an :class:`OpProbe` that records rows/batches
    produced and wall-time; probes land in ``probes`` in operation order.

    ``deadline``/``max_rows`` are the graceful-degradation guardrails
    (``deadline`` is an absolute ``time.perf_counter()`` instant).  Both
    default to None — fully disabled — and are enforced per batch at the
    row sources and the result materializer, so subqueries inherit them
    through the shared context."""

    db: Any
    bind_vars: dict
    txn: Any = None
    analyze: bool = False
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Columnar execution switch: catalog scans of segment-registered
    #: stores emit :class:`ColumnBatch`es (typed-array kernels, zone-map
    #: pruning) instead of frame batches.  Off inside transactions —
    #: segments reflect latest-committed state, not a snapshot.
    columnar: bool = True
    deadline: Optional[float] = None
    timeout: Optional[float] = None
    max_rows: Optional[int] = None
    probes: list = field(default_factory=list)
    #: Shared results of :class:`MaterializeOp` nodes, keyed by plan-node
    #: identity — computed at most once per execution, so every frame of
    #: every batch reads the same row list.
    materialized: dict = field(default_factory=dict)
    stats: dict = field(
        default_factory=lambda: {
            "scanned": 0,
            "filtered_out": 0,
            "index_lookups": 0,
            "indexes_used": [],
            "rows_returned": 0,
            "batches": 0,
            "writes": 0,
            "hash_join_builds": 0,
            "semi_join_builds": 0,
            "materialized_subqueries": 0,
            "plan_cached": False,
            "segments_scanned": 0,
            "segments_pruned": 0,
            "columnar_batches": 0,
            "columnar_kernel_rows": 0,
        }
    )


@dataclass
class OpProbe:
    """Per-operator execution measurements (EXPLAIN ANALYZE).

    ``seconds`` is *cumulative*: the time spent pulling this operator's
    entire output, which includes its upstream. Self-time is derived by
    subtracting the previous operator's cumulative time (the pipeline is
    a chain, so upstream work happens inside downstream pulls).
    ``batches_out`` counts the batches the operator emitted — with
    vectorized execution the rows/batches ratio shows the effective
    batch width.  ``columnar_batches`` counts how many of those stayed
    in columnar form (EXPLAIN ANALYZE renders ``columnar=yes``)."""

    operation: Any
    rows_out: int = 0
    seconds: float = 0.0
    batches_out: int = 0
    columnar_batches: int = 0


def _probed(batches: Iterator[list], probe: OpProbe) -> Iterator[list]:
    """Wrap a batch stream, charging pull time and row counts to *probe*."""
    perf_counter = time.perf_counter
    while True:
        start = perf_counter()
        try:
            batch = next(batches)
        except StopIteration:
            probe.seconds += perf_counter() - start
            return
        probe.seconds += perf_counter() - start
        probe.rows_out += len(batch)
        probe.batches_out += 1
        if type(batch) is ColumnBatch:
            probe.columnar_batches += 1
        yield batch


@dataclass
class Result:
    """Query result: rows plus execution statistics.

    ``analyzed``/``op_stats`` are populated only on the EXPLAIN ANALYZE
    path: the annotated physical plan as text, and the per-operator
    measurements as a list of dicts."""

    rows: list
    stats: dict
    analyzed: Optional[str] = None
    op_stats: Optional[list] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def first(self):
        return self.rows[0] if self.rows else None


# ---------------------------------------------------------------------------
# Guardrails
# ---------------------------------------------------------------------------


def _check_deadline(ctx: ExecContext) -> None:
    """Raise :class:`QueryTimeoutError` when the query's wall-clock budget
    is spent.  Called per-batch at the sources and batch-flush points,
    only when a deadline is set."""
    now = time.perf_counter()
    if now > ctx.deadline:
        limit = ctx.timeout or 0.0
        raise QueryTimeoutError(
            f"query exceeded its {limit:g}s timeout",
            elapsed=now - (ctx.deadline - limit),
            limit=limit,
        )


def _check_row_budget(ctx: ExecContext, produced: int) -> None:
    """Raise :class:`ResourceExhaustedError` when the result would exceed
    the max-rows budget.  The check runs once per result batch, so
    *produced* may overshoot by up to a batch; the reported row count is
    clamped to ``max_rows + 1`` (the first row that broke the budget)."""
    if produced > ctx.max_rows:
        raise ResourceExhaustedError(
            f"query produced more than max_rows={ctx.max_rows} result rows",
            rows=min(produced, ctx.max_rows + 1),
            limit=ctx.max_rows,
        )


# ---------------------------------------------------------------------------
# Data sources
# ---------------------------------------------------------------------------


def _source_batches(ctx: ExecContext, name: str) -> Iterator[list]:
    """Stream frame batches from the unified scan cursor of any catalog
    object, charging scanned-row stats and the query deadline once per
    batch.  The cursor is snapshot/txn-aware and is always closed, even
    when the pipeline stops early (LIMIT, errors, abandoned wire
    cursors)."""
    cursor = open_scan_cursor(ctx.db, name, txn=ctx.txn)
    width = ctx.batch_size
    try:
        while True:
            batch = cursor.next_batch(width)
            if not batch:
                return
            ctx.stats["scanned"] += len(batch)
            if ctx.deadline is not None:
                _check_deadline(ctx)
            yield batch
    finally:
        cursor.close()


def _flatten(batches: Iterator[list]) -> Iterator[Any]:
    for batch in batches:
        yield from batch


def _chunked(values: list, width: int) -> Iterator[list]:
    for start in range(0, len(values), max(width, 1)):
        yield values[start:start + width]


# ---------------------------------------------------------------------------
# Columnar scan path (segments + zone maps — see repro.storage.segments)
# ---------------------------------------------------------------------------


_UNSET = object()

#: Aggregate functions with running accumulators (everything else buffers
#: its inputs per group and calls the library function once at the end).
_AGG_MODES = {
    "COUNT": "count",
    "LENGTH": "count",
    "SUM": "sum",
    "MIN": "min",
    "MAX": "max",
    "AVG": "avg",
}


def _attach_zone_sources(query: ast.Query) -> None:
    """Pre-pass: hand each plain FOR scan the conditions of the FILTERs
    immediately following it (filter pushdown makes them adjacent), so
    the scan can consult zone maps and skip whole segments.  Memoized on
    the query object — plans are cached and re-executed."""
    if getattr(query, "_zone_attached", False):
        return
    operations = query.operations
    for position, operation in enumerate(operations):
        if type(operation) is not ast.ForOp:
            continue
        conditions = []
        for follower in operations[position + 1:]:
            if not isinstance(follower, ast.FilterOp):
                break
            conditions.append(follower.condition)
        operation._zone_conditions = tuple(conditions)
    query._zone_attached = True


def _zone_bounds(ctx, operation: ast.ForOp, frame: dict) -> list:
    """``(column, op, value)`` triples usable for zone pruning on this
    scan, constants evaluated once per scan."""
    predicates = getattr(operation, "_c_zone", None)
    if predicates is None:
        predicates = []
        for condition in getattr(operation, "_zone_conditions", ()):
            predicates.extend(
                extract_zone_predicates(condition, operation.var)
            )
        operation._c_zone = predicates
    return [
        (column, op, value_fn(ctx, frame))
        for column, op, value_fn in predicates
    ]


def _columnar_segments(ctx, name: str):
    """``(segment, row_count)`` pairs when *name* is a catalog store with
    registered columnar segments, else None (row path — which also owns
    reporting unknown names)."""
    try:
        store = ctx.db.resolve(name)
    except UnknownCollectionError:
        return None
    namespace = getattr(store, "namespace", None)
    if namespace is None:
        return None
    return ctx.db.context.segments.segments_for_scan(namespace)


def _columnar_for(ctx, operation: ast.ForOp, frame: dict, pairs):
    """Emit one :class:`ColumnBatch` per surviving segment, consulting
    the zone maps first: a segment whose min/max range cannot satisfy a
    pushed-down conjunct is skipped without touching its rows."""
    bounds = _zone_bounds(ctx, operation, frame)
    var = operation.var
    pruned = 0
    for segment, length in pairs:
        if bounds and not all(
            segment_may_match(segment, column, op, value)
            for column, op, value in bounds
        ):
            pruned += 1
            continue
        ctx.stats["segments_scanned"] += 1
        ctx.stats["scanned"] += length
        ctx.stats["columnar_batches"] += 1
        if ctx.deadline is not None:
            _check_deadline(ctx)
        yield ColumnBatch(var, frame, segment, length)
    if pruned:
        ctx.stats["segments_pruned"] += pruned
        if obs_metrics.ENABLED:
            obs_metrics.counter("columnar_segments_pruned_total").inc(pruned)


def _columnar_slot(operation, slot: str, var: str, factory, expr):
    """Per-(operation, var) memo for columnar kernel compilation.  None
    is a valid, cached "not columnar" verdict — hence the _UNSET probe."""
    cache = getattr(operation, slot, None)
    if cache is None:
        cache = {}
        setattr(operation, slot, cache)
    kernel = cache.get(var, _UNSET)
    if kernel is _UNSET:
        kernel = factory(expr, var)
        cache[var] = kernel
    return kernel


#: A fresh accumulator per aggregate mode.
_INITIAL = {
    "count": int, "sum": int, "avg": lambda: [0, 0], "buffer": list,
    "min": lambda: _UNSET, "max": lambda: _UNSET,
}


def _new_group(key_values, agg_specs: list) -> dict:
    aggs = [_INITIAL[mode]() for _name, _func, mode, _arg in agg_specs]
    return {"keys": dict(key_values), "count": 0, "members": [], "aggs": aggs}


def _empty_group(key_values, agg_specs: list) -> dict:
    """A group nothing is folded into yet, finished as AQL and SQL do: its
    COUNT is 0 and its SUM null like its AVG, MIN and MAX (a fold's first
    input makes a group whose SUM starts at 0)."""
    group = _new_group(key_values, agg_specs)
    group["aggs"] = [None if spec[2] == "sum" else a for a, spec in zip(group["aggs"], agg_specs)]
    return group


def _is_number(value) -> bool:
    value_type = type(value)
    return (
        value_type is int
        or value_type is float
        or datamodel.type_of(value) is datamodel.TypeTag.NUMBER
    )


def _not_a_number(func: str, value) -> FunctionError:
    """The error a numeric aggregate raises for a non-number input: the
    same verdict and message ``_numbers()`` would have produced had the
    inputs been buffered and aggregated at the end."""
    return FunctionError(
        f"{func}: array contains a {datamodel.type_name(value)}"
    )


#: One aggregate's fold of its input ``{a}`` into ``aggs[{p}]``, by mode.
#: COLLECT's generated row loop, :func:`_agg_add` and the columnar path's
#: per-slot folds are all generated from these lines.
_FOLD_LINES = {
    "count": ["aggs[{p}] += 1"],  # COUNT is LENGTH of the inputs: NULLs count
    "buffer": ["aggs[{p}].append({a})"],
    "sum": ["aggs[{p}] += {a}"],
    "avg": ["state = aggs[{p}]", "state[0] += {a}", "state[1] += 1"],
    "min": ["if aggs[{p}] is UNSET or {a} < aggs[{p}]:", "    aggs[{p}] = {a}"],
    "max": ["if aggs[{p}] is UNSET or {a} > aggs[{p}]:", "    aggs[{p}] = {a}"],
}


def _emit_fold(src: Source, mode: str, func: str, position, value: str) -> None:
    """Emit the fold of *value* into ``aggs[position]``: a numeric mode
    skips NULL and raises :func:`_not_a_number` for any other non-number."""
    lines = [line.format(p=position, a=value) for line in _FOLD_LINES[mode]]
    if mode in ("count", "buffer"):
        return src.line(*lines)
    with src.block(f"if {value} is not None:"):
        src.raise_if(f"type({value}) is not int and type({value}) is not float "
                     f"and not is_number({value})", f"not_a_number({func}, {value})")
        src.line(*lines)


def _generate_folds():
    """Per mode, ``add(aggs, position, func, value)`` — one input, as the
    row path folds it — and ``fold(pairs, aggs)`` over ``(slot, number)``
    pairs the columnar path has checked already, in row order."""
    src = Source("aggregate folds")
    for mode, lines in _FOLD_LINES.items():
        with src.function(f"add_{mode}", "aggs, p, func, a"):
            _emit_fold(src, mode, "func", "p", "a")
        with src.function(f"fold_{mode}", "pairs, aggs"), src.block("for p, a in pairs:"):
            src.line(*(line.format(p="p", a="a") for line in lines))
    namespace = src.build(**_FOLD_NAMES)
    return [{mode: namespace[f"{kind}_{mode}"] for mode in _FOLD_LINES}
            for kind in ("add", "fold")]


_FOLD_NAMES = {"UNSET": _UNSET, "is_number": _is_number, "not_a_number": _not_a_number}
_ADD, _FOLD = _generate_folds()


def _agg_add(aggs: list, position: int, mode: str, func: str, value) -> None:
    """Fold one input into a running accumulator.  Streamable aggregates
    keep O(groups) state; only library functions without a running form
    (UNIQUE, …) still buffer their inputs."""
    _ADD[mode](aggs, position, func, value)


def _agg_final(ctx, state, mode: str, func: str):
    if mode == "buffer":
        return call_function(ctx, func, [state])
    if mode == "avg":
        return state[0] / state[1] if state[1] else None
    if mode in ("min", "max"):
        return None if state is _UNSET else state
    return state


def _collect_columns(operation: ast.CollectOp, var: str):
    """``(group_columns, agg_columns)`` when every group key and every
    non-COUNT aggregate input is a plain ``var.column`` access, else
    None.  COUNT counts rows whatever its input evaluates to, so its
    argument never needs a column (its entry is None)."""
    counts = [_AGG_MODES.get(func.upper()) == "count" for _n, func, _a in operation.aggregates]
    group_columns = [(name, columnar_attr(expr, var)) for name, expr in operation.groups]
    agg_columns = [
        None if count else columnar_attr(arg, var)
        for count, (_name, _func, arg) in zip(counts, operation.aggregates)
    ]
    if any(column is None for _name, column in group_columns) or any(
        column is None and not count for column, count in zip(agg_columns, counts)
    ):
        return None
    return group_columns, agg_columns


def _selected_values(segment, column_name: str, indices, length: int):
    """``(values, typecode, nulls)`` for one column over the selected rows.

    *values* is a copy of the column's captured prefix when every row is
    selected, else the picked values; ``None`` when the segment lacks the
    column.  Never the column itself: the tail segment's columns grow in
    place under concurrent appends, and the kernels read *values* in
    several passes, so each must see only the rows the scan captured.
    *typecode* is the typed array's (``'q'`` / ``'d'``), ``None`` for an
    object list.  In a typed array the NULL positions (*nulls*) still
    hold the 0 sentinel; an object list holds ``None`` there."""
    column = segment.columns.get(column_name)
    if column is None:
        return None, None, None
    if type(indices) is range:
        values = column[:length]
    else:
        values = list(map(column.__getitem__, indices))
    typecode = column.typecode if isinstance(column, array) else None
    return values, typecode, segment.nulls.get(column_name)


def _null_filled(values, indices, nulls) -> list:
    """A typed column's selected values with ``None`` at its NULLs."""
    return [
        None if i in nulls else value for i, value in zip(indices, values)
    ]


def _group_slots(segment, indices, length, group_columns, agg_specs, groups,
                 order):
    """Assign each selected row to its group in one pass: ``(assign,
    slot_groups)``, where ``assign[k]`` is the batch-local slot of the
    k-th selected row and ``slot_groups[slot]`` its group state.

    Tokens are :func:`~repro.core.datamodel.value_token`'s, as on the row
    path (strings and typed ints are their own token); new groups keep the
    first-seen key value and join *order* in first-appearance order."""
    total = len(indices)
    token_lists = []
    value_lists = []
    for _name, column_name in group_columns:
        values, typecode, nulls = _selected_values(
            segment, column_name, indices, length
        )
        if values is None:
            values = [None] * total
        elif typecode and nulls:
            values = _null_filled(values, indices, nulls)
        if typecode == "q":
            tokens = values
        else:
            tokens = [
                value if type(value) is str else datamodel.value_token(value)
                for value in values
            ]
        token_lists.append(tokens)
        value_lists.append(values)
    single = len(group_columns) == 1
    if single:
        tokens = token_lists[0]
    else:
        tokens = list(zip(*token_lists))
    local = dict.fromkeys(tokens)  # distinct tokens, first-appearance order
    first_values = None
    slot_groups = []
    for slot, token in enumerate(local):
        local[token] = slot
        key = (token,) if single else token
        group = groups.get(key)
        if group is None:
            if first_values is None:
                raw = value_lists[0] if single else list(zip(*value_lists))
                first_values = dict(zip(reversed(tokens), reversed(raw)))
            value = first_values[token]
            group = _new_group(
                [
                    (name, key_value)
                    for (name, _column), key_value in zip(
                        group_columns, (value,) if single else value
                    )
                ],
                agg_specs,
            )
            groups[key] = group
            order.append(key)
        slot_groups.append(group)
    return list(map(local.__getitem__, tokens)), slot_groups


def _first_non_number(values) -> Optional[int]:
    for offset, value in enumerate(values):
        if value is not None and not _is_number(value):
            return offset
    return None


def _collect_columnar(
    ctx, operation: ast.CollectOp, batch, agg_specs, groups, order
) -> bool:
    """Fold one ColumnBatch into the COLLECT state without building row
    frames, a column at a time: one pass assigns every selected row to its
    group (:func:`_group_slots`), then each aggregate makes one pass over
    its column.  Returns False when the shape is not columnar (the caller
    pivots to rows).

    Same groups, arithmetic and errors as the row path: a typed, null-free
    column skips the per-value type check; otherwise the first input that
    is not a number — first by row, then by aggregate, as the row path
    meets them — raises :func:`_agg_add`'s ``FunctionError``."""
    plan = _columnar_slot(operation, "_cc_collect", batch.var, _collect_columns, operation)
    if plan is None:
        return False
    total = len(batch)
    if total == 0:
        return True
    group_columns, agg_columns = plan
    segment = batch.segment
    length = batch.length
    indices = batch.indices()
    ctx.stats["columnar_kernel_rows"] += total
    if obs_metrics.ENABLED:
        obs_metrics.counter(
            "columnar_kernel_rows_total", kernel="collect"
        ).inc(total)
    if group_columns:
        assign, slot_groups = _group_slots(
            segment, indices, length, group_columns, agg_specs, groups, order
        )
        tally = Counter(assign)
        counts = [tally[slot] for slot in range(len(slot_groups))]
    else:
        # Global aggregate: one group, every row in slot 0.
        group = groups.get(())
        if group is None:
            group = _new_group([], agg_specs)
            groups[()] = group
            order.append(())
        assign = repeat(0)
        slot_groups = [group]
        counts = [total]
    for group, count in zip(slot_groups, counts):
        group["count"] += count
    failures = []
    for position, (_name, func, mode, _arg_fn) in enumerate(agg_specs):
        if mode == "count":
            for group, count in zip(slot_groups, counts):
                group["aggs"][position] += count
            continue
        values, typecode, nulls = _selected_values(
            segment, agg_columns[position], indices, length
        )
        acc = [group["aggs"][position] for group in slot_groups]
        if mode == "buffer":
            if values is None:
                values = [None] * total
            elif typecode and nulls:
                values = _null_filled(values, indices, nulls)
            for slot, value in zip(assign, values):
                acc[slot].append(value)
            continue
        if values is None:
            continue  # every input NULL: nothing to fold
        if typecode and not nulls:
            if not group_columns and type(indices) is range:
                # Whole typed column into one group: builtins (C loops).
                if mode == "sum":
                    acc[0] += sum(values)
                elif mode == "avg":
                    acc[0][0] += sum(values)
                    acc[0][1] += len(values)
                else:
                    extreme = min(values) if mode == "min" else max(values)
                    current = acc[0]
                    if (
                        current is _UNSET
                        or (mode == "min" and extreme < current)
                        or (mode == "max" and extreme > current)
                    ):
                        acc[0] = extreme
            else:
                _FOLD[mode](zip(assign, values), acc)
        elif typecode:
            _FOLD[mode](
                [
                    (slot, value)
                    for slot, value, i in zip(assign, values, indices)
                    if i not in nulls
                ],
                acc,
            )
        else:
            offset = _first_non_number(values)
            if offset is not None:
                failures.append((offset, position, func, values[offset]))
                continue
            _FOLD[mode](
                [
                    (slot, value)
                    for slot, value in zip(assign, values)
                    if value is not None
                ],
                acc,
            )
        for group, state in zip(slot_groups, acc):
            group["aggs"][position] = state
    if failures:
        _offset, _position, func, value = min(failures, key=lambda f: f[:2])
        raise _not_a_number(func, value)
    return True


# ---------------------------------------------------------------------------
# Operation pipeline (batch in, batch out)
# ---------------------------------------------------------------------------


def _apply_for(ctx, operation: ast.ForOp, batches):
    return _generated(operation, "_g_for", _generate_for, operation)(ctx, batches)


def _generate_for(operation: ast.ForOp):
    """FOR as one generated loop ``scan(ctx, batches)`` over the source
    expression's array, a child frame per element, flushed every
    ``batch_size`` frames.  A bare name the frame does not bind is a
    catalog object (collections are shadowable by variables):
    :func:`_scan_catalog`.  A ``low..high`` source is iterated as a
    ``range``, never built, so the deadline check at each flush bounds it
    in time and memory."""
    src = Source(operation_label(operation))
    source = operation.source
    with src.function("scan", "ctx, batches"):
        src.line("out = []", "width = ctx.batch_size")
        with src.block("for batch in batches:"), src.block("for frame in batch:"):
            if isinstance(source, ast.VarRef):
                with src.block(f"if {source.name!r} not in frame:"):
                    src.line("out = yield from scan_catalog(ctx, operation, frame, out)",
                             "continue")
            if isinstance(source, ast.RangeExpr):
                values = src.assign(range_values(src, source))
            else:
                values = src.local(src.value(source))
                src.raise_if(
                    f"type({values}) is not list and type_of({values}) is not ARRAY",
                    f"ExecutionError('FOR expects an array or collection, got ' "
                    f"+ type_name({values}))")
            with src.block(f"for value in {values}:"):
                src.line(f"out.append({{**frame, {operation.var!r}: value}})")
                with src.block("if len(out) >= width:"):
                    src.line("if ctx.deadline is not None:", "    check_deadline(ctx)",
                             "yield out", "out = []")
        src.line("if out:", "    yield out")
    return src.build(operation=operation, scan_catalog=_scan_catalog,
                     check_deadline=_check_deadline)["scan"]


def _scan_catalog(ctx, operation: ast.ForOp, frame: dict, out: list):
    """FOR over a catalog object: columnar segments when the store
    maintains them (zone maps prune inside; not in a transaction, as they do
    not take the visibility rule yet), else the store cursor batch-at-a-time.
    Yields the full batches of *out*; returns the rest."""
    name = operation.source.name
    if ctx.columnar and ctx.txn is None:
        pairs = _columnar_segments(ctx, name)
        if pairs is not None:
            if out:
                yield out
            yield from _columnar_for(ctx, operation, frame, pairs)
            return []
    var = operation.var
    width = ctx.batch_size
    for source_batch in _source_batches(ctx, name):
        for value in source_batch:
            out.append({**frame, var: value})
            if len(out) >= width:
                yield out
                out = []
    return out


def _lookup_token(key: Any) -> Any:
    """The dedupe token of a lookup key.  Exact ``str`` / ``int`` /
    ``float`` keys dedupe under :func:`~repro.core.datamodel.value_token`
    (1 and 1.0 meet, ``true`` never meets 1); any other key — NULL, a
    boolean, an object, an array — gets a token equal to no other, so it
    is probed per frame."""
    key_type = type(key)
    if key_type is str or key_type is int:
        return key
    if key_type is float:
        return datamodel.value_token(key)
    return object()


def _generate_key(parts: list, label: str):
    """``(key_fn, gather)`` of a lookup.  ``key_fn(ctx, frame)`` is one
    frame's key; ``gather(ctx, frames)`` runs it over a batch in frame
    order and returns ``(distinct, positions, failure)``: the distinct keys
    (first occurrences), each frame's index into them, and the error of
    the frame that raised, which ends the gather.  *parts* are ``(key,
    wrap)`` pairs — an expression or an ``fn(ctx, frame)``, passed through
    *wrap* when there is one; several parts make a tuple key."""
    src = Source(label)

    def key() -> str:
        values = []
        for part, wrap in parts:
            value = (src.value(part) if isinstance(part, ast.Expr)
                     else src.assign(f"{src.const(part)}(ctx, frame)"))
            values.append(src.assign(f"{src.const(wrap)}({value})") if wrap else value)
        return values[0] if len(values) == 1 else f"({', '.join(values)})"

    with src.function("key_fn", "ctx, frame"):
        src.line(f"return {key()}")
    with src.function("gather", "ctx, frames"):
        src.line("slots = {}", "distinct = []", "positions = []")
        with src.block("for frame in frames:"):
            with src.block("try:"):
                src.line(f"key = {key()}")
            src.line("except Exception as error:", "    return distinct, positions, error",
                     "token = key if type(key) is str or type(key) is int else lookup_token(key)",
                     "position = slots.get(token)", "if position is None:",
                     "    position = slots[token] = len(distinct)", "    distinct.append(key)",
                     "positions.append(position)")
        src.line("return distinct, positions, None")
    namespace = src.build(lookup_token=_lookup_token)
    return namespace["key_fn"], namespace["gather"]


def _lookup_key(operation, slot: str, *parts):
    """:func:`_generate_key` of *operation*, memoized under *slot*."""
    fns = getattr(operation, slot, None)
    if fns is None:
        fns = _generate_key(list(parts), f"{operation_label(operation)} key")
        setattr(operation, slot, fns)
    return fns


def _lookup_join(ctx, batches, key_fn, probe, emit, per_frame=False, gather=None):
    """The one gather → dedupe → probe-once → scatter path of lookup
    joins, traversals, index scans and hash joins.  Per batch, the
    generated ``gather`` (:func:`_generate_key`, built from ``key_fn(ctx,
    frame)`` when not given) runs the key of every frame in frame order;
    ``probe(keys)`` answers the distinct keys (first occurrences, in frame
    order) in one call; ``emit(frame, result)`` gives each frame's output
    frames, in frame order.  Nothing is kept across batches.  Errors come
    from the frame that raises first, as frame by frame: a key that raises
    is re-raised after the frames before it are probed and emitted; a probe
    that raises sends the batch through again frame by frame — the way a
    one-frame batch and, with ``per_frame`` (writes), every batch goes."""
    if gather is None:
        key_fn, gather = _generate_key([(key_fn, None)], "lookup key")
    width = ctx.batch_size
    out: list = []
    for batch in batches:
        failure = scattered = None
        if len(batch) == 1:
            scattered = zip(batch, probe([key_fn(ctx, batch[0])]))
        elif not per_frame:
            distinct, positions, failure = gather(ctx, batch)
            try:
                results = probe(distinct) if distinct else ()
            except Exception:  # raised again below, from the frame that raises first
                failure = None
            else:
                scattered = zip(batch, map(results.__getitem__, positions))
        if scattered is None:
            scattered = ((frame, probe([key_fn(ctx, frame)])[0]) for frame in batch)
        for frame, result in scattered:
            for child in emit(frame, result):
                out.append(child)
                if len(out) >= width:
                    if ctx.deadline is not None:
                        _check_deadline(ctx)
                    yield out
                    out = []
        if failure is not None:
            raise failure
    if out:
        yield out


def _bind_matches(ctx, frame, var, records, residual_fn) -> list:
    """*frame* with *var* bound to each of *records* that passes the
    residual (a miss counts as filtered out)."""
    children = [{**frame, var: record} for record in records]
    if residual_fn is None:
        return children
    kept = [child for child in children if datamodel.truthy(residual_fn(ctx, child))]
    ctx.stats["filtered_out"] += len(children) - len(kept)
    return kept


def _apply_index_scan(ctx, operation: IndexScanOp, batches):
    """Equality probes of a point index, through :func:`_lookup_join`.  The
    index answers as of latest; the original full predicate rechecks, per
    frame, the visibility rule's changed records and a NULL probe's scan
    (the index holds no NULL keys, yet ``attr == NULL`` matches missing).
    The primary key (:func:`_primary_probe`) is probed by keyed reads."""
    stats = ctx.stats
    name = operation.index_name
    lookups = (
        obs_metrics.counter("index_lookups_total", index=name)
        if obs_metrics.ENABLED else None
    )

    def count(made):
        stats["index_lookups"] += made
        if lookups is not None:
            lookups.inc(made)
        if name not in stats["indexes_used"]:
            stats["indexes_used"].append(name)

    if operation.index_kind == "primary":
        probe, emit = _primary_probe(ctx, operation, count)
    else:
        probe, emit = _index_probe(ctx, operation, count)
    key_fn, gather = _lookup_key(operation, "_g_value", (operation.value, None))
    yield from _lookup_join(
        ctx, batches, key_fn, probe, emit, operation.per_frame, gather
    )


def _index_probe(ctx, operation: IndexScanOp, count):
    """``(probe, emit)`` of a secondary point index."""
    namespace = ctx.db.resolve(operation.source_name).namespace
    rows = ctx.db.context.rows
    var = operation.var
    residual_fn = _compiled(operation, "_c_residual", operation.residual)

    def probe(values):
        made = len(values) - values.count(None)
        if not made:
            return values  # every frame scans
        search = ctx.db.context.indexes.get(operation.index_name).search
        count(made)
        found = [
            None if value is None else [
                (key, record) for key in search(value)
                if (record := rows.get(namespace, key)) is not None
            ]
            for value in values
        ]
        changed = ctx.db.context.transactions.changed(ctx.txn, namespace)
        recheck = [record for record in changed.values() if record is not None]
        return [
            None if pairs is None
            else ([pair for pair in pairs if pair[0] not in changed] if changed else pairs, recheck)
            for pairs in found
        ]

    def emit(frame, found):
        pairs, recheck = found or ((), _flatten(_source_batches(ctx, operation.source_name)))
        children = _bind_matches(ctx, frame, var, map(itemgetter(1), pairs), residual_fn)
        if recheck:
            original_fn = _compiled(operation, "_c_original", operation.original_condition)
            children.extend(
                child for child in ({**frame, var: record} for record in recheck)
                if original_fn is None or datamodel.truthy(original_fn(ctx, child))
            )
        return children

    return probe, emit


def _primary_probe(ctx, operation: IndexScanOp, count):
    """``(probe, emit)`` of the store's primary key: one keyed read per
    key, which takes the visibility rule in a transaction (under
    SERIALIZABLE it records the key, not the namespace).  The store's map
    meets keys by Python's equality (``true`` finds key 1), so each record
    read is rechecked against the full predicate, under the model's; a NULL
    or unhashable key (an array, an object) reads nothing."""
    read = ctx.db.resolve(operation.source_name).keyed_frame
    txn = ctx.txn
    var = operation.var
    original_fn = _compiled(operation, "_c_original", operation.original_condition)

    def probe(keys):
        count(len(keys) - keys.count(None))
        found = []
        for key in keys:
            try:
                found.append(None if key is None else read(key, txn))
            except TypeError:  # unhashable
                found.append(None)
        return found

    def emit(frame, record):
        return () if record is None else _bind_matches(ctx, frame, var, (record,), original_fn)

    return probe, emit


def _apply_lookup_join(ctx, operation: LookupJoinOp, batches):
    """``LET var = DOCUMENT/KV_GET('source', key)`` set at a time: one
    store read per distinct key of a batch (the traversal form goes to
    :func:`_apply_traversal`)."""
    if operation.fans_out:
        return _apply_traversal(ctx, operation, batches)
    key_fn, gather = _lookup_key(operation, "_g_key", (operation.key, None))
    var = operation.var
    read = None

    def probe(keys):
        nonlocal read
        if read is None:
            read = keyed_reader(ctx, operation.kind, operation.source)
        return [read(key) for key in keys]

    return _lookup_join(
        ctx, batches, key_fn, probe,
        lambda frame, value: ({**frame, var: value},), gather=gather,
    )


def _apply_traversal(ctx, operation, batches):
    """Graph traversals and shortest paths through :func:`_lookup_join`:
    each distinct start of a batch is walked once, each vertex fetched
    once.  A ``1..1`` traversal without an edge variable — a
    :class:`LookupJoinOp` once the ``lookup_join`` rule fired — takes the
    batch's adjacency lists in one
    :meth:`~repro.graph.store.PropertyGraph.one_hop` call, no BFS."""
    kind = type(operation)
    graph = ctx.db.graph(operation.source if kind is LookupJoinOp else operation.graph)
    var = operation.var
    edge_var = operation.edge_var if kind is ast.TraversalOp else None
    txn = ctx.txn
    if kind is ast.ShortestPathOp:
        key_fn, gather = _lookup_key(
            operation, "_g_ends",
            (operation.start, partial(_coerce_vertex_key, what="shortest-path start")),
            (operation.goal, partial(_coerce_vertex_key, what="shortest-path goal")),
        )

        def walk(ends):
            paths = (graph.shortest_path(*end, operation.direction, txn=txn) for end in ends)
            return [[(key, None) for key in path or ()] for path in paths]
    else:
        key_fn, gather = _lookup_key(
            operation, "_g_start",
            (operation.key if kind is LookupJoinOp else operation.start,
             partial(_coerce_vertex_key, what="traversal start")),
        )

        def walk(starts):
            if kind is LookupJoinOp:
                hops = graph.one_hop(starts, operation.direction, operation.label, txn=txn)
                return [[(key, None) for key in hops[start]] for start in starts]
            # (key, depth) visits, or (key, depth, discovery edge) ones.
            visit = graph.traverse if edge_var is None else graph.traverse_with_edges
            return [
                [
                    (found[0], found[2] if edge_var is not None else None)
                    for found in visit(
                        start, operation.min_depth, operation.max_depth,
                        operation.direction, operation.label, txn=txn,
                    )
                ]
                for start in starts
            ]

    def probe(starts):
        vertices: dict = {}
        found = []
        for pairs in walk(starts):
            matched = []
            for key, edge in pairs:
                vertex = vertices.get(key, _UNSET)
                if vertex is _UNSET:
                    vertex = vertices[key] = graph.vertex(key, txn=txn)
                if vertex is not None:
                    matched.append((vertex, edge))
            found.append(matched)
        return found

    def emit(frame, matched):
        ctx.stats["scanned"] += len(matched)
        if edge_var is None:
            return [{**frame, var: vertex} for vertex, _edge in matched]
        return [{**frame, var: vertex, edge_var: edge} for vertex, edge in matched]

    yield from _lookup_join(ctx, batches, key_fn, probe, emit, gather=gather)


def _apply_join(ctx, operation, batches):
    """Hash, semi and anti joins — the linear-time replacement for a
    correlated rescan: a ``value_token(key) -> [record, …]`` table over
    the named collection, built once and lazily (an empty outer side never
    scans; the scan is txn-aware), probed once per distinct key through
    :func:`_lookup_join`.  The token is exact under the model's equality,
    so ``null == null`` / ``1 == 1.0`` match as in the FILTER or subquery
    replaced and nothing else does.  A hash join binds each match that
    passes the residual; a semi join passes the frame unchanged iff some
    match does (an anti join iff none does)."""
    key_fn, gather = _lookup_key(operation, "_g_probe", (operation.probe, None))
    residual_fn = _compiled(operation, "_c_residual", operation.residual)
    value_token = datamodel.value_token
    kind = "semi_join" if isinstance(operation, SemiJoinOp) else "hash_join"
    table: Optional[dict] = None

    def built(batches):
        # The table is built before the first key of the first non-empty
        # batch is read, as a per-frame build-on-first-key would.
        nonlocal table
        for batch in batches:
            if batch and table is None:
                table = {}
                for record in _flatten(_source_batches(ctx, operation.source_name)):
                    key = datamodel.deep_get(record, operation.build_path)
                    table.setdefault(value_token(key), []).append(record)
                ctx.stats[f"{kind}_builds"] += 1
                if obs_metrics.ENABLED:
                    obs_metrics.counter(f"{kind}_builds_total").inc()
            yield batch

    def probe(values):
        return [table.get(value_token(value), ()) for value in values]

    var = operation.var
    anti = isinstance(operation, AntiJoinOp)

    def emit(frame, records):
        if kind == "hash_join":
            return _bind_matches(ctx, frame, var, records, residual_fn)
        matched = any(
            residual_fn is None or datamodel.truthy(residual_fn(ctx, {**frame, var: record}))
            for record in records
        )
        if matched != anti:
            return (frame,)
        ctx.stats["filtered_out"] += 1
        return ()

    return _lookup_join(ctx, built(batches), key_fn, probe, emit, gather=gather)


def _apply_materialize(ctx, operation: MaterializeOp, batches):
    """Bind the subquery's rows — computed once per execution, shared —
    into every frame (the rewritten form of an uncorrelated
    ``LET var = (subquery)``).  The rewrite only fires on read-only
    statements, so sharing one evaluation cannot observe different
    states; bind parameters vary per execution, hence the per-context
    (not per-plan) cache."""
    var = operation.var
    token = id(operation)
    for batch in batches:
        rows = ctx.materialized.get(token)
        if rows is None:
            rows, _writes = _run_pipeline(ctx, operation.query, {})
            ctx.materialized[token] = rows
            ctx.stats["materialized_subqueries"] += 1
        yield [{**frame, var: rows} for frame in batch]


def _coerce_vertex_key(value, what: str) -> str:
    if isinstance(value, dict):
        value = value.get("_key")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # Vertex keys are strings; numeric ids (e.g. from a relational
        # primary key) coerce, so `FOR f IN 1..1 OUTBOUND c.id …` works.
        value = str(int(value))
    if not isinstance(value, str):
        raise ExecutionError(f"{what} must be a vertex key or vertex")
    return value


def _generate_steps(steps: tuple):
    """A run of FILTER / LET steps, maybe ended by the RETURN projection,
    as one generated loop ``steps(ctx, frames, seen) -> list``: the kept
    frames (a LET's value added), or the RETURN values — under DISTINCT
    only those whose exact token *seen* does not hold yet.  A frame goes
    through every step before the next frame starts, as at batch size 1;
    a FILTER's conjuncts drop it one by one and count it filtered out."""
    src = Source(" | ".join(map(operation_label, steps)))
    terminal = steps[-1] if isinstance(steps[-1], ast.ReturnOp) else None
    with src.function("steps", "ctx, frames, seen"):
        src.line("out = []", "dropped = 0")
        with src.block("for frame in frames:"):
            for step in steps:
                if isinstance(step, ast.FilterOp):
                    for node in conjuncts(step.condition):
                        with src.block(f"if not {src.test(src.value(node))}:"):
                            src.line("dropped += 1", "continue")
                elif isinstance(step, ast.LetOp):
                    value = src.value(step.value)
                    src.bound[step.var] = src.overrides[step.var] = value
            if terminal is None:
                src.line(f"out.append({src.frame()})")
            else:
                value = src.value(terminal.expr)
                if terminal.distinct:
                    token = src.assign(
                        f"{value} if type({value}) is str else value_token({value})"
                    )
                    with src.block(f"if {token} in seen:"):
                        src.line("continue")
                    src.line(f"seen.add({token})")
                src.line(f"out.append({value})")
        src.line("if dropped:", "    ctx.stats['filtered_out'] += dropped",
                 "return out")
    return src.build()["steps"]


def _steps_from(steps: tuple, start: int):
    """The generated loop of ``steps[start:]``, memoized on its first step
    by length (a step heads one run per plan, or a run of one when EXPLAIN
    ANALYZE probes every step)."""
    memo = _generated(steps[start], "_g_steps", dict)
    length = len(steps) - start
    fn = memo.get(length)
    if fn is None:
        fn = memo[length] = _generate_steps(steps[start:])
    return fn


def _apply_step(ctx, operation, batches):
    """One FILTER or LET as its own loop (EXPLAIN ANALYZE probes each)."""
    return _apply_steps(ctx, (operation,), batches)


def _columnar_steps(ctx, steps: tuple, batch: ColumnBatch, seen):
    """Run the leading steps a ColumnBatch takes as kernels: FILTERs
    narrow its selection vector column-at-a-time, a RETURN reads its
    column.  ``(position, batch)``: at ``len(steps)`` the batch is the
    output (a ColumnBatch, RETURN values, or None when nothing is left),
    else the rows the steps from *position* on still have to run over."""
    for position, step in enumerate(steps):
        returns = isinstance(step, ast.ReturnOp)
        if returns:
            kernel = _columnar_slot(step, "_cc_project", batch.var,
                                    compile_projection_columnar, step.expr)
        elif isinstance(step, ast.FilterOp):
            kernel = _columnar_slot(step, "_cc_filters", batch.var,
                                    compile_filter_columnar, step.condition)
        else:
            kernel = None
        found = kernel(ctx, batch) if kernel is not None else None
        if found is None:
            return position, batch.to_rows()
        total = len(found) if returns else len(batch)
        ctx.stats["columnar_kernel_rows"] += total
        if obs_metrics.ENABLED:
            obs_metrics.counter("columnar_kernel_rows_total",
                                kernel="project" if returns else "filter").inc(total)
        if returns:
            return len(steps), _distinct(found, seen) if step.distinct else found
        if total - len(found):
            ctx.stats["filtered_out"] += total - len(found)
        if not found:
            return len(steps), None
        batch = batch.with_selection(found)
    return len(steps), batch


def _distinct(values: list, seen: set) -> list:
    """*values* less those whose exact token *seen* holds (it learns the rest)."""
    kept = []
    for value in values:
        token = datamodel.value_token(value)
        if token not in seen:
            seen.add(token)
            kept.append(value)
    return kept


def _apply_steps(ctx, steps: tuple, batches, seen: Optional[set] = None):
    """FILTER / LET steps — and the RETURN projection that may end them —
    over each batch in one generated loop (:func:`_generate_steps`).  A
    ColumnBatch first takes what it can as kernels (:func:`_columnar_steps`)
    and stays columnar when every step did.  Batches a FILTER or RETURN
    leaves empty are dropped; a run of LETs passes every batch on."""
    returns = isinstance(steps[-1], ast.ReturnOp)
    keep_empty = not returns and all(type(step) is ast.LetOp for step in steps)
    for batch in batches:
        if returns and ctx.deadline is not None:
            _check_deadline(ctx)
        start = 0
        if type(batch) is ColumnBatch:
            start, batch = _columnar_steps(ctx, steps, batch, seen)
            if start == len(steps):
                if batch:
                    yield batch
                continue
        out = _steps_from(steps, start)(ctx, batch, seen)
        if out or keep_empty:
            yield out


def _apply_sort(ctx, operation: ast.SortOp, batches):
    """Decorate-sort-undecorate: every sort key is evaluated exactly once
    per frame (the old comparator re-evaluated both sides on *every*
    comparison, O(n log n) evaluations and allocations).

    :class:`repro.core.datamodel.SortKey` supplies the engine's cross-type
    total order; NULL has the lowest type tag, so NULLs sort **first**
    ascending and **last** descending.  Uniform-direction sorts are a
    single tuple sort; mixed ASC/DESC runs one stable pass per key from
    the least-significant key outward.  A pipeline breaker: materializes
    every upstream frame, then re-chunks downstream."""
    keys = ast.ArrayLiteral(tuple(key.expr for key in operation.keys))
    keys_fn = _compiled(operation, "_c_keys", keys)
    sort_key = datamodel.SortKey
    decorated = [
        (tuple(map(sort_key, keys_fn(ctx, frame))), frame) for frame in _flatten(batches)
    ]
    directions = [key.ascending for key in operation.keys]
    if directions:
        if all(directions) or not any(directions):
            decorated.sort(key=lambda entry: entry[0], reverse=not directions[0])
        else:
            for position in range(len(directions) - 1, -1, -1):
                ascending = directions[position]
                decorated.sort(
                    key=lambda entry: entry[0][position],
                    reverse=not ascending,
                )
    return _chunked([frame for _keys, frame in decorated], ctx.batch_size)


def _apply_limit(ctx, operation: ast.LimitOp, batches):
    to_skip = operation.offset
    remaining = operation.count
    if remaining <= 0:
        return
    for batch in batches:
        if to_skip:
            if to_skip >= len(batch):
                to_skip -= len(batch)
                continue
            batch = batch[to_skip:]
            to_skip = 0
        if len(batch) > remaining:
            batch = batch[:remaining]
        remaining -= len(batch)
        if batch:
            yield batch
        if remaining <= 0:
            # Early out: stop pulling upstream; source cursors close via
            # their generators' finally blocks when the pipeline is dropped.
            return


def _apply_collect(ctx, operation: ast.CollectOp, batches):
    """Group + aggregate, a pipeline breaker.

    Streamable aggregates (COUNT/SUM/MIN/MAX/AVG) fold into running
    accumulators — memory stays O(groups), not O(rows); only library
    functions without a running form (UNIQUE, …) and ``INTO`` member
    lists still buffer.  ColumnBatches whose group keys and aggregate
    inputs are plain column reads are folded without building frames
    (:func:`_collect_columnar`), the rest by one generated loop
    (:func:`_generate_fold`); both key groups on
    :func:`~repro.core.datamodel.value_token`, so groups merge correctly
    across mixed batch kinds."""
    agg_specs = getattr(operation, "_c_agg_specs", None)
    if agg_specs is None:
        agg_specs = [
            (name, func.upper(), _AGG_MODES.get(func.upper(), "buffer"), arg)
            for name, func, arg in operation.aggregates
        ]
        operation._c_agg_specs = agg_specs
    fold = _generated(operation, "_g_fold", _generate_fold, operation, agg_specs)
    into = operation.into
    groups: dict = {}
    order: list = []
    for batch in batches:
        if (
            type(batch) is ColumnBatch
            and not into
            and _collect_columnar(
                ctx, operation, batch, agg_specs, groups, order
            )
        ):
            continue
        fold(ctx, batch, groups, order)
    if not order and not operation.groups:
        # Without group keys one frame comes out over no input too.
        groups[()] = _empty_group([], agg_specs)
        order.append(())
    out: list = []
    width = ctx.batch_size
    for token in order:
        group = groups[token]
        frame = dict(group["keys"])
        aggs = group["aggs"]
        for position, (name, func, mode, _arg) in enumerate(agg_specs):
            frame[name] = _agg_final(ctx, aggs[position], mode, func)
        if operation.count_into:
            frame[operation.count_into] = group["count"]
        if into:
            frame[into] = group["members"]
        out.append(frame)
        if len(out) >= width:
            yield out
            out = []
    if out:
        yield out


def _generate_fold(operation: ast.CollectOp, agg_specs: list):
    """COLLECT's row path as one generated loop ``fold(ctx, frames, groups,
    order)``: per frame the group keys, their exact token, the group (new
    ones join *order*), then each aggregate's input folded in, and the
    member frame under INTO — :func:`_agg_add` inlined."""
    src = Source(operation_label(operation))
    with src.function("fold", "ctx, frames, groups, order"):
        with src.block("for frame in frames:"):
            keys = [src.local(src.value(expr)) for _name, expr in operation.groups]
            token = src.assign("(" + "".join(
                f"{key} if type({key}) is str or type({key}) is int or "
                f"{key} is None else value_token({key}), " for key in keys
            ) + ")")
            src.line(f"group = groups.get({token})")
            with src.block("if group is None:"):
                pairs = ", ".join(f"({name!r}, {key})"
                                  for (name, _expr), key in zip(operation.groups, keys))
                src.line(f"group = groups[{token}] = new_group([{pairs}], agg_specs)",
                         f"order.append({token})")
            src.line("group['count'] += 1", "aggs = group['aggs']")
            for position, (_name, func, mode, arg) in enumerate(agg_specs):
                _emit_fold(src, mode, repr(func), position, src.local(src.value(arg)))
            if operation.into:
                src.line("group['members'].append({name: value for name, value in "
                         "frame.items() if not name.startswith('$')})")
    return src.build(new_group=_new_group, agg_specs=agg_specs, **_FOLD_NAMES)["fold"]


def _dml_target(ctx, name: str):
    return ctx.db.kind_of(name), ctx.db.resolve(name)


def _apply_insert(ctx, operation: ast.InsertOp, frames):
    kind, store = _dml_target(ctx, operation.target)
    document_fn = _compiled(operation, "_c_document", operation.document)
    for frame in frames:
        document = document_fn(ctx, frame)
        if kind in ("collection", "table"):
            key = store.insert(document, txn=ctx.txn)
        elif kind == "bucket":
            if (
                datamodel.type_of(document) is not datamodel.TypeTag.OBJECT
                or "_key" not in document
            ):
                raise ExecutionError(
                    "INSERT into a bucket needs {_key: …, value: …}"
                )
            store.put(document["_key"], document.get("value"), txn=ctx.txn)
            key = document["_key"]
        else:
            raise ExecutionError(f"cannot INSERT into a {kind}")
        ctx.stats["writes"] += 1
        yield key


#: UPDATE / REPLACE: the slot of the new value, the method of a collection
#: or table that writes it, and how other kinds are refused.
_KEYED_WRITES = {
    ast.UpdateOp: ("changes", "update", "UPDATE a"),
    ast.ReplaceOp: ("document", "replace", "REPLACE in a"),
}


def _apply_keyed(ctx, operation, frames):
    """UPDATE / REPLACE / REMOVE of the key each frame names (an object
    names its ``_key``, else its ``id``); a bucket puts the new value."""
    kind, store = _dml_target(ctx, operation.target)
    key_fn = _compiled(operation, "_c_key", operation.key)
    slot, method, refusal = _KEYED_WRITES.get(type(operation), (None, None, None))
    value_fn = slot and _compiled(operation, f"_c_{slot}", getattr(operation, slot))
    for frame in frames:
        key = key_fn(ctx, frame)
        if isinstance(key, dict):
            key = key.get("_key", key.get("id"))
        if value_fn is None:
            written = store.delete(key, txn=ctx.txn)
        elif kind in ("collection", "table"):
            written = getattr(store, method)(key, value_fn(ctx, frame), txn=ctx.txn)
        elif kind == "bucket":
            store.put(key, value_fn(ctx, frame), txn=ctx.txn)
            written = True
        else:
            value_fn(ctx, frame)
            raise ExecutionError(f"cannot {refusal} {kind}")
        if written:
            ctx.stats["writes"] += 1
            yield key


def _apply_upsert(ctx, operation: ast.UpsertOp, frames):
    kind, store = _dml_target(ctx, operation.target)
    search_fn = _compiled(operation, "_c_search", operation.search)
    patch_fn = _compiled(operation, "_c_patch", operation.update_patch)
    insert_fn = _compiled(operation, "_c_insert", operation.insert_doc)
    for frame in frames:
        search = search_fn(ctx, frame)
        if datamodel.type_of(search) is not datamodel.TypeTag.OBJECT:
            raise ExecutionError("UPSERT search must be an object example")
        existing_key = None
        if kind == "collection":
            matches = store.find_by_example(search, txn=ctx.txn)
            if matches:
                existing_key = matches[0]["_key"]
        elif kind == "table":
            for row in store.scan_cursor(txn=ctx.txn):
                if all(
                    datamodel.values_equal(row.get(column), value)
                    for column, value in search.items()
                ):
                    existing_key = row[store.schema.primary_key]
                    break
        else:
            raise ExecutionError(f"cannot UPSERT into a {kind}")
        if existing_key is not None:
            store.update(existing_key, patch_fn(ctx, frame), txn=ctx.txn)
            key = existing_key
        else:
            key = store.insert(insert_fn(ctx, frame), txn=ctx.txn)
        ctx.stats["writes"] += 1
        yield key


_DML_APPLIERS = {
    ast.InsertOp: _apply_insert,
    ast.UpdateOp: _apply_keyed,
    ast.RemoveOp: _apply_keyed,
    ast.ReplaceOp: _apply_keyed,
    ast.UpsertOp: _apply_upsert,
}

_BATCH_APPLIERS = (
    (IndexScanOp, _apply_index_scan),
    (HashJoinOp, _apply_join),
    (SemiJoinOp, _apply_join),  # AntiJoinOp included
    (MaterializeOp, _apply_materialize),
    (LookupJoinOp, _apply_lookup_join),
    (ast.ForOp, _apply_for),
    (ast.TraversalOp, _apply_traversal),
    (ast.ShortestPathOp, _apply_traversal),
    (ast.FilterOp, _apply_step),
    (ast.LetOp, _apply_step),
    (ast.SortOp, _apply_sort),
    (ast.LimitOp, _apply_limit),
    (ast.CollectOp, _apply_collect),
)


def _open_pipeline(ctx: ExecContext, query: ast.Query, initial_frame: dict):
    """Chain every non-terminal operation over the initial frame.

    Returns ``(batches, steps, terminal, probes)``: *terminal* is the
    RETURN/DML operation (or None for a headless pipeline), *steps* the
    FILTER / LET run right before a RETURN, left to run in its projection's
    loop, and *probes* the probe list when this is the outermost EXPLAIN
    ANALYZE pipeline, else None.  Unprobed, each run of adjacent FILTER /
    LET steps is one generated loop (:func:`_apply_steps`).

    A probe's clock starts at the construction time of its operator and of
    every operator upstream of it, so each ``cum`` holds its input's."""
    _attach_zone_sources(query)
    batches: Iterator[list] = iter([[initial_frame]])
    # Only the outermost pipeline is probed: subqueries run inside a parent
    # operator and their cost is already charged to it.
    probes = ctx.probes if ctx.analyze else None
    if probes is not None:
        ctx.analyze = False
    steps: list = []
    built = 0.0
    for operation in query.operations:
        if probes is None and type(operation) in (ast.FilterOp, ast.LetOp):
            steps.append(operation)
            continue
        terminal = isinstance(operation, ast.ReturnOp)
        if not terminal:
            if steps:
                batches = _apply_steps(ctx, tuple(steps), batches)
                steps = []
            terminal = type(operation) in _DML_APPLIERS
        if terminal:
            if probes is not None:
                probes.append(OpProbe(operation, seconds=built))
            return batches, tuple(steps), operation, probes
        start = time.perf_counter() if probes is not None else 0.0
        for op_type, applier in _BATCH_APPLIERS:
            if isinstance(operation, op_type):
                batches = applier(ctx, operation, batches)
                break
        else:
            raise ExecutionError(f"cannot execute {type(operation).__name__}")
        if probes is not None:
            # Charge construction time too: generator appliers return
            # instantly, but pipeline breakers (SORT) materialize upstream
            # inside the call above.
            built += time.perf_counter() - start
            probe = OpProbe(operation, seconds=built)
            probes.append(probe)
            batches = _probed(batches, probe)
    if steps:
        batches = _apply_steps(ctx, tuple(steps), batches)
    return batches, (), None, probes


def _return_batches(ctx: ExecContext, operation: ast.ReturnOp, steps: tuple,
                    batches, probes):
    """Project RETURN over the pipeline, batch-at-a-time, in one loop with
    the FILTER / LET *steps* before it (:func:`_apply_steps`).  DISTINCT
    keeps one set of exact tokens across batches
    (:func:`~repro.core.datamodel.value_token`: 1 == 1.0, true != 1, and no
    two distinct rows can meet).  The row budget is charged per batch."""
    values_batches = _apply_steps(
        ctx, (*steps, operation), batches, set() if operation.distinct else None
    )
    if probes is not None:
        values_batches = _probed(values_batches, probes[-1])
    produced = 0
    for values in values_batches:
        produced += len(values)
        if ctx.max_rows is not None:
            _check_row_budget(ctx, produced)
        yield values


def _execute_batches(
    ctx: ExecContext, query: ast.Query, initial_frame: dict
) -> Iterator[list]:
    """Run a (sub)query, yielding result-row batches lazily.

    DML pipelines are always drained eagerly (their side effects must not
    depend on how far a client reads); RETURN pipelines stream."""
    batches, steps, terminal, probes = _open_pipeline(ctx, query, initial_frame)
    if terminal is None:
        # No RETURN/DML: drain the pipeline for its side effects (none)
        # and produce no rows.
        for _batch in batches:
            pass
        return
    dml_applier = _DML_APPLIERS.get(type(terminal))
    if dml_applier is not None:
        start = time.perf_counter() if probes is not None else 0.0
        rows = list(dml_applier(ctx, terminal, _flatten(batches)))
        if probes is not None:
            probe = probes[-1]
            probe.seconds += time.perf_counter() - start
            probe.rows_out, probe.batches_out = len(rows), 1 if rows else 0
        if rows:
            yield rows
        return
    yield from _return_batches(ctx, terminal, steps, batches, probes)


def _run_pipeline(ctx: ExecContext, query: ast.Query, initial_frame: dict):
    """Execute a (sub)query eagerly; returns (rows, write_count_delta)."""
    writes_before = ctx.stats["writes"]
    rows: list = []
    for batch in _execute_batches(ctx, query, initial_frame):
        rows.extend(batch)
    return rows, ctx.stats["writes"] - writes_before


def execute_stream(ctx: ExecContext, query: ast.Query) -> Iterator[list]:
    """Run an optimized query, yielding result-row **batches** lazily — the
    one execution entry point (:class:`repro.query.engine.QueryCursor`
    pulls it; a drained cursor is an eager query).

    ``ctx.stats["rows_returned"]`` advances as batches are consumed, so a
    cursor abandoned mid-stream reports how far it actually got."""
    for batch in _execute_batches(ctx, query, {}):
        ctx.stats["rows_returned"] += len(batch)
        ctx.stats["batches"] += 1
        yield batch
