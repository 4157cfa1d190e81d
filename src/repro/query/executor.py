"""MMQL execution: the batched operation pipeline.

Execution is *vectorized*: each operation transforms a stream of frame
**batches** (``list[dict]`` of variable bindings, ``ctx.batch_size`` frames
per batch) rather than single frames.  Per-row costs that used to be paid
on every frame — deadline checks, row-budget checks, probe bookkeeping,
generator suspensions — are amortized to once per batch, while the
per-frame work inside a batch is a tight Python loop or a compiled batch
closure (:mod:`repro.query.compile`).

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
from dataclasses import dataclass, field
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
    columnar_attr,
    compile_expr,
    compile_filter_batch,
    compile_filter_columnar,
    compile_projection_batch,
    compile_projection_columnar,
    extract_zone_predicates,
)
from repro.query.functions import call_function, keyed_reader
from repro.query.plan import (
    AntiJoinOp,
    HashJoinOp,
    IndexScanOp,
    LookupJoinOp,
    MaterializeOp,
    SemiJoinOp,
)
from repro.storage.segments import ColumnBatch, segment_may_match

__all__ = ["ExecContext", "OpProbe", "Result", "execute", "execute_stream"]


def _compiled(operation: Any, slot: str, expr: ast.Expr):
    """Memoized compiled form of *expr*, cached on the operation node.

    Plans live in the plan cache across executions, so compilation happens
    once per plan, not once per query; a warm cache executes straight
    closures.  An absent expression (a residual there is none of)
    compiles to None."""
    fn = getattr(operation, slot, None)
    if fn is None and expr is not None:
        fn = compile_expr(expr)
        setattr(operation, slot, fn)
    return fn


def _compiled_batch(operation: Any, slot: str, expr: ast.Expr, factory):
    """Like :func:`_compiled` but for batch closures (``fn(ctx, frames)``)."""
    fn = getattr(operation, slot, None)
    if fn is None:
        fn = factory(expr)
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


def _iter_source(ctx: ExecContext, name: str) -> Iterator[Any]:
    """Row-at-a-time view of :func:`_source_batches` (hash-join builds and
    snapshot fallbacks that want plain values)."""
    for batch in _source_batches(ctx, name):
        yield from batch


def _flatten(batches: Iterator[list]) -> Iterator[dict]:
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


def _group_token(value: Any) -> Any:
    """Hashable group key under the model's equality: cheap scalar fast
    path (1 and 1.0 unify, booleans stay distinct from numbers), model
    hash for containers.  Both the row and the columnar COLLECT paths
    tokenize through here, so groups merge across mixed batch kinds."""
    value_type = type(value)
    if value_type is str or value is None:
        return value
    if value_type is bool:
        return ("$bool", value)
    if value_type is int:
        return value
    if value_type is float:
        return int(value) if value.is_integer() else value
    return ("$hash", datamodel.hash_value(value))


def _new_group(key_values: list, agg_specs: list) -> dict:
    aggs: list = []
    for _name, _func, mode, _arg_fn in agg_specs:
        if mode in ("count", "sum"):
            aggs.append(0)
        elif mode == "avg":
            aggs.append([0, 0])
        elif mode == "buffer":
            aggs.append([])
        else:  # min / max
            aggs.append(_UNSET)
    return {"keys": dict(key_values), "count": 0, "members": [], "aggs": aggs}


def _agg_add(aggs: list, position: int, mode: str, func: str, value) -> None:
    """Fold one input into a running accumulator.  Streamable aggregates
    keep O(groups) state; only library functions without a running form
    (UNIQUE, …) still buffer their inputs."""
    if mode == "count":
        # COUNT is LENGTH of the input array — NULLs count.
        aggs[position] += 1
        return
    if mode == "buffer":
        aggs[position].append(value)
        return
    if value is None:
        return
    if datamodel.type_of(value) is not datamodel.TypeTag.NUMBER:
        # Same verdict and message _numbers() would have produced had the
        # inputs been buffered and aggregated at the end.
        raise FunctionError(
            f"{func}: array contains a {datamodel.type_name(value)}"
        )
    if mode == "sum":
        aggs[position] += value
    elif mode == "avg":
        state = aggs[position]
        state[0] += value
        state[1] += 1
    elif mode == "min":
        current = aggs[position]
        if current is _UNSET or value < current:
            aggs[position] = value
    else:  # max
        current = aggs[position]
        if current is _UNSET or value > current:
            aggs[position] = value


def _agg_final(ctx, state, mode: str, func: str):
    if mode == "buffer":
        return call_function(ctx, func, [state])
    if mode == "avg":
        return state[0] / state[1] if state[1] else None
    if mode in ("min", "max"):
        return None if state is _UNSET else state
    return state


def _collect_plan(operation: ast.CollectOp, var: str):
    """``(group_columns, agg_columns)`` when every group key and every
    non-COUNT aggregate input is a plain ``var.column`` access, else
    None.  COUNT counts rows whatever its input evaluates to, so its
    argument never needs a column."""
    cache = getattr(operation, "_cc_collect", None)
    if cache is None:
        cache = {}
        operation._cc_collect = cache
    plan = cache.get(var, _UNSET)
    if plan is not _UNSET:
        return plan

    def build():
        group_columns = []
        for name, expr in operation.groups:
            column = columnar_attr(expr, var)
            if column is None:
                return None
            group_columns.append((name, column))
        agg_columns: list = []
        for _name, func, arg in operation.aggregates:
            if _AGG_MODES.get(func.upper()) == "count":
                agg_columns.append(None)
                continue
            column = columnar_attr(arg, var)
            if column is None:
                return None
            agg_columns.append(column)
        return (group_columns, agg_columns)

    plan = build()
    cache[var] = plan
    return plan


def _collect_columnar(
    ctx, operation: ast.CollectOp, batch, agg_specs, groups, order
) -> bool:
    """Fold one ColumnBatch into the COLLECT state without building row
    frames: group-key columns are read directly and tokenized once per
    row, aggregate inputs come straight from the typed arrays.  Returns
    False when the shape is not columnar (the caller pivots to rows)."""
    plan = _collect_plan(operation, batch.var)
    if plan is None:
        return False
    total = len(batch)
    if total == 0:
        return True
    group_columns, agg_columns = plan
    segment = batch.segment
    columns = segment.columns
    nulls_map = segment.nulls
    ctx.stats["columnar_kernel_rows"] += total
    if obs_metrics.ENABLED:
        obs_metrics.counter(
            "columnar_kernel_rows_total", kernel="collect"
        ).inc(total)
    if not group_columns:
        # Global aggregate: one group; whole-column builtins (C loops)
        # when a typed, null-free column is fully selected.
        group = groups.get(())
        if group is None:
            group = _new_group([], agg_specs)
            groups[()] = group
            order.append(())
        group["count"] += total
        aggs = group["aggs"]
        full = batch.selection is None
        for position, (_name, func, mode, _arg_fn) in enumerate(agg_specs):
            if mode == "count":
                aggs[position] += total
                continue
            column_name = agg_columns[position]
            column = columns.get(column_name)
            nulls = nulls_map.get(column_name)
            if (
                full
                and not nulls
                and isinstance(column, array)
                and mode != "buffer"
            ):
                data = (
                    column
                    if len(column) == batch.length
                    else column[:batch.length]
                )
                if mode == "sum":
                    aggs[position] += sum(data)
                elif mode == "avg":
                    state = aggs[position]
                    state[0] += sum(data)
                    state[1] += len(data)
                else:
                    extreme = min(data) if mode == "min" else max(data)
                    current = aggs[position]
                    if (
                        current is _UNSET
                        or (mode == "min" and extreme < current)
                        or (mode == "max" and extreme > current)
                    ):
                        aggs[position] = extreme
                continue
            for i in batch.indices():
                value = (
                    None
                    if column is None or (nulls and i in nulls)
                    else column[i]
                )
                _agg_add(aggs, position, mode, func, value)
        return True
    key_readers = [
        (name, columns.get(column), nulls_map.get(column))
        for name, column in group_columns
    ]
    agg_readers: list = []
    for position, (_name, _func, mode, _arg_fn) in enumerate(agg_specs):
        if mode == "count":
            agg_readers.append(None)
        else:
            column_name = agg_columns[position]
            agg_readers.append(
                (columns.get(column_name), nulls_map.get(column_name))
            )
    group_token = _group_token
    for i in batch.indices():
        key_values = [
            (
                name,
                None
                if column is None or (nulls and i in nulls)
                else column[i],
            )
            for name, column, nulls in key_readers
        ]
        token = tuple(group_token(value) for _name, value in key_values)
        group = groups.get(token)
        if group is None:
            group = _new_group(key_values, agg_specs)
            groups[token] = group
            order.append(token)
        group["count"] += 1
        aggs = group["aggs"]
        for position, (_name, func, mode, _arg_fn) in enumerate(agg_specs):
            reader = agg_readers[position]
            if reader is None:
                aggs[position] += 1
                continue
            column, nulls = reader
            value = (
                None if column is None or (nulls and i in nulls) else column[i]
            )
            _agg_add(aggs, position, mode, func, value)
    return True


# ---------------------------------------------------------------------------
# Operation pipeline (batch in, batch out)
# ---------------------------------------------------------------------------


def _apply_for(ctx, operation: ast.ForOp, batches):
    source_fn = _compiled(operation, "_c_source", operation.source)
    source_is_name = isinstance(operation.source, ast.VarRef)
    var = operation.var
    width = ctx.batch_size
    out: list = []
    for batch in batches:
        for frame in batch:
            if source_is_name and operation.source.name not in frame:
                # a catalog name (collections shadowable by variables):
                # columnar segments when the store maintains them (zone
                # maps prune inside; transactions need snapshot reads so
                # they take the row path), else the store cursor
                # batch-at-a-time.
                if ctx.columnar and ctx.txn is None:
                    pairs = _columnar_segments(ctx, operation.source.name)
                    if pairs is not None:
                        if out:
                            yield out
                            out = []
                        yield from _columnar_for(ctx, operation, frame, pairs)
                        continue
                for source_batch in _source_batches(ctx, operation.source.name):
                    for value in source_batch:
                        child = dict(frame)
                        child[var] = value
                        out.append(child)
                        if len(out) >= width:
                            yield out
                            out = []
                continue
            values = source_fn(ctx, frame)
            if datamodel.type_of(values) is not datamodel.TypeTag.ARRAY:
                raise ExecutionError(
                    f"FOR expects an array or collection, got "
                    f"{datamodel.type_name(values)}"
                )
            for value in values:
                child = dict(frame)
                child[var] = value
                out.append(child)
                if len(out) >= width:
                    if ctx.deadline is not None:
                        _check_deadline(ctx)
                    yield out
                    out = []
    if out:
        yield out


def _lookup_token(key: Any) -> Any:
    """The dedupe token of a lookup key.  Exact ``str`` / ``int`` /
    ``float`` keys dedupe under :func:`_group_token` (1 and 1.0 meet,
    ``true`` never meets 1); any other key — NULL, a boolean, an object,
    an array — gets a token equal to no other, so it is probed per frame."""
    key_type = type(key)
    if key_type is str or key_type is int:
        return key
    if key_type is float:
        return _group_token(key)
    return object()


def _lookup_join(ctx, batches, key_fn, probe, emit, per_frame=False):
    """The one gather → dedupe → probe-once → scatter path of lookup
    joins, traversals, index scans and hash joins.  Per batch,
    ``key_fn(ctx, frame)`` runs for every frame in frame order;
    ``probe(keys)`` answers the distinct keys (first occurrences, in frame
    order) in one call; ``emit(frame, result)`` gives each frame's output
    frames, in frame order.  Nothing is kept across batches.  Errors come
    from the frame that raises first, as frame by frame: a key that raises
    is re-raised after the frames before it are probed and emitted; a probe
    that raises sends the batch through again frame by frame — the way a
    one-frame batch and, with ``per_frame`` (writes), every batch goes."""
    width = ctx.batch_size
    out: list = []
    for batch in batches:
        failure = scattered = None
        if len(batch) == 1:
            scattered = zip(batch, probe([key_fn(ctx, batch[0])]))
        elif not per_frame:
            slots: dict = {}
            distinct: list = []
            positions: list = []
            for frame in batch:
                try:
                    key = key_fn(ctx, frame)
                except Exception as error:  # re-raised after the frames before it
                    failure = error
                    break
                token = _lookup_token(key)
                position = slots.get(token)
                if position is None:
                    position = slots[token] = len(distinct)
                    distinct.append(key)
                positions.append(position)
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
    index cannot answer a NULL probe (it holds no NULL keys, while ``attr ==
    NULL`` matches NULL and missing attributes) nor one inside a transaction
    (it holds committed state, not the snapshot's): those frames fall back
    to a scan + the original full predicate."""
    namespace = ctx.db.resolve(operation.source_name).namespace
    rows = ctx.db.context.rows
    stats = ctx.stats
    var = operation.var
    value_fn = _compiled(operation, "_c_value", operation.value)
    residual_fn = _compiled(operation, "_c_residual", operation.residual)
    lookups = (
        obs_metrics.counter("index_lookups_total", index=operation.index_name)
        if obs_metrics.ENABLED else None
    )

    def probe(values):
        made = len(values) - values.count(None)
        if not made:
            return values  # every frame scans
        search = ctx.db.context.indexes.get(operation.index_name).search
        stats["index_lookups"] += made
        if lookups is not None:
            lookups.inc(made)
        if operation.index_name not in stats["indexes_used"]:
            stats["indexes_used"].append(operation.index_name)
        return [
            None if value is None else [
                record for key in search(value)
                if (record := rows.get(namespace, key)) is not None
            ]
            for value in values
        ]

    def emit(frame, records):
        if records is not None:
            return _bind_matches(ctx, frame, var, records, residual_fn)
        scanned = ({**frame, var: value} for value in _iter_source(ctx, operation.source_name))
        original_fn = _compiled(operation, "_c_original", operation.original_condition)
        if original_fn is None:
            return scanned
        return (child for child in scanned if datamodel.truthy(original_fn(ctx, child)))

    key_fn = value_fn if ctx.txn is None else (lambda ctx, frame: None)
    yield from _lookup_join(ctx, batches, key_fn, probe, emit, operation.per_frame)


def _apply_lookup_join(ctx, operation: LookupJoinOp, batches):
    """``LET var = DOCUMENT/KV_GET('source', key)`` set at a time: one
    store read per distinct key of a batch (the traversal form goes to
    :func:`_apply_traversal`)."""
    if operation.fans_out:
        return _apply_traversal(ctx, operation, batches)
    key_fn = _compiled(operation, "_c_key", operation.key)
    var = operation.var
    read = None

    def probe(keys):
        nonlocal read
        if read is None:
            read = keyed_reader(ctx, operation.kind, operation.source)
        return [read(key) for key in keys]

    return _lookup_join(
        ctx, batches, key_fn, probe, lambda frame, value: ({**frame, var: value},)
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
        start_fn = _compiled(operation, "_c_start", operation.start)
        goal_fn = _compiled(operation, "_c_goal", operation.goal)

        def start_of(ctx, frame):
            start = _coerce_vertex_key(start_fn(ctx, frame), "shortest-path start")
            return start, _coerce_vertex_key(goal_fn(ctx, frame), "shortest-path goal")

        def walk(ends):
            paths = (graph.shortest_path(*end, operation.direction, txn=txn) for end in ends)
            return [[(key, None) for key in path or ()] for path in paths]
    else:
        start_expr = operation.key if kind is LookupJoinOp else operation.start
        start_fn = _compiled(operation, "_c_start", start_expr)

        def start_of(ctx, frame):
            return _coerce_vertex_key(start_fn(ctx, frame), "traversal start")

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

    yield from _lookup_join(ctx, batches, start_of, probe, emit)


def _apply_join(ctx, operation, batches):
    """Hash, semi and anti joins — the linear-time replacement for a
    correlated rescan: a ``hash_value(key) -> [(key, record), …]`` table
    over the named collection, built once and lazily (an empty outer side
    never scans; the scan is txn-aware), probed once per distinct key
    through :func:`_lookup_join`.  Probes confirm with ``compare() == 0``,
    so collisions cannot leak rows and ``null == null`` / ``1 == 1.0``
    match as in the FILTER or subquery replaced.  A hash join binds each
    match that passes the residual; a semi join passes the frame unchanged
    iff some match does (an anti join iff none does)."""
    probe_fn = _compiled(operation, "_c_probe", operation.probe)
    residual_fn = _compiled(operation, "_c_residual", operation.residual)
    hash_value = datamodel.hash_value
    compare = datamodel.compare
    kind = "semi_join" if isinstance(operation, SemiJoinOp) else "hash_join"
    table: Optional[dict] = None

    def key_of(ctx, frame):
        nonlocal table
        if table is None:
            table = {}
            for record in _iter_source(ctx, operation.source_name):
                key = datamodel.deep_get(record, operation.build_path)
                table.setdefault(hash_value(key), []).append((key, record))
            ctx.stats[f"{kind}_builds"] += 1
            if obs_metrics.ENABLED:
                obs_metrics.counter(f"{kind}_builds_total").inc()
        return probe_fn(ctx, frame)

    def probe(values):
        return [
            [record for key, record in table.get(hash_value(value), ())
             if compare(key, value) == 0]
            for value in values
        ]

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

    return _lookup_join(ctx, batches, key_of, probe, emit)


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


def _apply_filter(ctx, operation: ast.FilterOp, batches):
    predicate = _compiled_batch(
        operation, "_cb_condition", operation.condition, compile_filter_batch
    )
    for batch in batches:
        if type(batch) is ColumnBatch:
            kernel = _columnar_slot(
                operation,
                "_cc_filters",
                batch.var,
                compile_filter_columnar,
                operation.condition,
            )
            selection = kernel(ctx, batch) if kernel is not None else None
            if selection is not None:
                # Vectorized: the kernel narrowed the selection vector
                # column-at-a-time; the batch stays columnar downstream.
                total = len(batch)
                ctx.stats["columnar_kernel_rows"] += total
                if obs_metrics.ENABLED:
                    obs_metrics.counter(
                        "columnar_kernel_rows_total", kernel="filter"
                    ).inc(total)
                dropped = total - len(selection)
                if dropped:
                    ctx.stats["filtered_out"] += dropped
                if selection:
                    yield batch.with_selection(selection)
                continue
            batch = batch.to_rows()
            if not batch:
                continue
        kept = predicate(ctx, batch)
        dropped = len(batch) - len(kept)
        if dropped:
            ctx.stats["filtered_out"] += dropped
        if kept:
            yield kept


def _apply_let(ctx, operation: ast.LetOp, batches):
    value_fn = _compiled(operation, "_c_value", operation.value)
    var = operation.var
    for batch in batches:
        yield [{**frame, var: value_fn(ctx, frame)} for frame in batch]


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
    key_fns = getattr(operation, "_c_keys", None)
    if key_fns is None:
        key_fns = [compile_expr(key.expr) for key in operation.keys]
        operation._c_keys = key_fns
    sort_key = datamodel.SortKey
    decorated = [
        (
            tuple(sort_key(fn(ctx, frame)) for fn in key_fns),
            frame,
        )
        for frame in _flatten(batches)
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
    (:func:`_collect_columnar`); both paths share :func:`_group_token`,
    so groups merge correctly across mixed batch kinds."""
    group_fns = getattr(operation, "_c_groups", None)
    if group_fns is None:
        group_fns = [
            (name, compile_expr(expr)) for name, expr in operation.groups
        ]
        operation._c_groups = group_fns
    agg_specs = getattr(operation, "_c_agg_specs", None)
    if agg_specs is None:
        agg_specs = []
        for name, func, arg in operation.aggregates:
            func = func.upper()
            agg_specs.append(
                (name, func, _AGG_MODES.get(func, "buffer"), compile_expr(arg))
            )
        operation._c_agg_specs = agg_specs

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
        for frame in batch:
            key_values = [(name, fn(ctx, frame)) for name, fn in group_fns]
            token = tuple(_group_token(value) for _name, value in key_values)
            group = groups.get(token)
            if group is None:
                group = _new_group(key_values, agg_specs)
                groups[token] = group
                order.append(token)
            group["count"] += 1
            aggs = group["aggs"]
            for position, (_name, func, mode, arg_fn) in enumerate(agg_specs):
                _agg_add(aggs, position, mode, func, arg_fn(ctx, frame))
            if into:
                group["members"].append(
                    {
                        name: value
                        for name, value in frame.items()
                        if not name.startswith("$")
                    }
                )
    out: list = []
    width = ctx.batch_size
    for token in order:
        group = groups[token]
        frame = dict(group["keys"])
        aggs = group["aggs"]
        for position, (name, func, mode, _arg_fn) in enumerate(agg_specs):
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


def _dml_target(ctx, name: str):
    kind = ctx.db.kind_of(name)
    store = ctx.db.resolve(name)
    return kind, store


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


def _apply_update(ctx, operation: ast.UpdateOp, frames):
    kind, store = _dml_target(ctx, operation.target)
    key_fn = _compiled(operation, "_c_key", operation.key)
    changes_fn = _compiled(operation, "_c_changes", operation.changes)
    for frame in frames:
        key = key_fn(ctx, frame)
        if isinstance(key, dict):
            key = key.get("_key", key.get("id"))
        changes = changes_fn(ctx, frame)
        if kind in ("collection", "table"):
            updated = store.update(key, changes, txn=ctx.txn)
        elif kind == "bucket":
            store.put(key, changes, txn=ctx.txn)
            updated = True
        else:
            raise ExecutionError(f"cannot UPDATE a {kind}")
        if updated:
            ctx.stats["writes"] += 1
            yield key


def _apply_remove(ctx, operation: ast.RemoveOp, frames):
    kind, store = _dml_target(ctx, operation.target)
    key_fn = _compiled(operation, "_c_key", operation.key)
    for frame in frames:
        key = key_fn(ctx, frame)
        if isinstance(key, dict):
            key = key.get("_key", key.get("id"))
        removed = store.delete(key, txn=ctx.txn)
        if removed:
            ctx.stats["writes"] += 1
            yield key


def _apply_replace(ctx, operation: ast.ReplaceOp, frames):
    kind, store = _dml_target(ctx, operation.target)
    key_fn = _compiled(operation, "_c_key", operation.key)
    document_fn = _compiled(operation, "_c_document", operation.document)
    for frame in frames:
        key = key_fn(ctx, frame)
        if isinstance(key, dict):
            key = key.get("_key", key.get("id"))
        document = document_fn(ctx, frame)
        if kind in ("collection", "table"):
            replaced = store.replace(key, document, txn=ctx.txn)
        elif kind == "bucket":
            store.put(key, document, txn=ctx.txn)
            replaced = True
        else:
            raise ExecutionError(f"cannot REPLACE in a {kind}")
        if replaced:
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
    ast.UpdateOp: _apply_update,
    ast.RemoveOp: _apply_remove,
    ast.ReplaceOp: _apply_replace,
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
    (ast.FilterOp, _apply_filter),
    (ast.LetOp, _apply_let),
    (ast.SortOp, _apply_sort),
    (ast.LimitOp, _apply_limit),
    (ast.CollectOp, _apply_collect),
)


def _open_pipeline(ctx: ExecContext, query: ast.Query, initial_frame: dict):
    """Chain every non-terminal operation over the initial frame.

    Returns ``(batches, terminal, probes)`` where *terminal* is the
    RETURN/DML operation (or None for a headless pipeline) and *probes*
    is the probe list when this is the outermost EXPLAIN ANALYZE
    pipeline, else None."""
    _attach_zone_sources(query)
    batches: Iterator[list] = iter([[initial_frame]])
    # Only the outermost pipeline is probed: subqueries run inside a parent
    # operator and their cost is already charged to it.
    probes = ctx.probes if ctx.analyze else None
    if probes is not None:
        ctx.analyze = False
    for operation in query.operations:
        if (
            type(operation) in _DML_APPLIERS
            or isinstance(operation, ast.ReturnOp)
        ):
            return batches, operation, probes
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
            probe = OpProbe(operation, seconds=time.perf_counter() - start)
            probes.append(probe)
            batches = _probed(batches, probe)
    return batches, None, probes


def _return_batches(ctx: ExecContext, operation: ast.ReturnOp, batches, probes):
    """Project RETURN over the pipeline, batch-at-a-time.

    DISTINCT dedups through the model hash (compare-equal values hash
    equally); each bucket is verified with values_equal so a hash
    collision can never drop a distinct row.  Strings skip that: a string
    equals nothing but an equal string, so a plain ``set`` holds them and
    every other type (1 == 1.0, true != 1, NULL, arrays, objects) keeps
    the model-hash path.  Deadline and row-budget guardrails are charged
    once per batch."""
    project = _compiled_batch(
        operation, "_cb_expr", operation.expr, compile_projection_batch
    )
    probe = None
    if probes is not None:
        probe = OpProbe(operation)
        probes.append(probe)
    perf_counter = time.perf_counter
    seen: Optional[dict] = {} if operation.distinct else None
    seen_strings: set = set()
    produced = 0
    start = perf_counter() if probe is not None else 0.0
    for batch in batches:
        if ctx.deadline is not None:
            _check_deadline(ctx)
        values = None
        if type(batch) is ColumnBatch:
            kernel = _columnar_slot(
                operation,
                "_cc_project",
                batch.var,
                compile_projection_columnar,
                operation.expr,
            )
            if kernel is not None:
                values = kernel(ctx, batch)
                if values is not None:
                    ctx.stats["columnar_kernel_rows"] += len(values)
                    if obs_metrics.ENABLED:
                        obs_metrics.counter(
                            "columnar_kernel_rows_total", kernel="project"
                        ).inc(len(values))
        if values is None:
            values = project(ctx, batch)
        if seen is not None:
            kept = []
            for value in values:
                if isinstance(value, str):
                    if value in seen_strings:
                        continue
                    seen_strings.add(value)
                else:
                    bucket = seen.setdefault(datamodel.hash_value(value), [])
                    if any(
                        datamodel.values_equal(value, known)
                        for known in bucket
                    ):
                        continue
                    bucket.append(value)
                kept.append(value)
            values = kept
        produced += len(values)
        if ctx.max_rows is not None:
            _check_row_budget(ctx, produced)
        if values:
            if probe is not None:
                probe.seconds += perf_counter() - start
                probe.rows_out += len(values)
                probe.batches_out += 1
            yield values
            if probe is not None:
                start = perf_counter()
    if probe is not None:
        probe.seconds += perf_counter() - start


def _execute_batches(
    ctx: ExecContext, query: ast.Query, initial_frame: dict
) -> Iterator[list]:
    """Run a (sub)query, yielding result-row batches lazily.

    DML pipelines are always drained eagerly (their side effects must not
    depend on how far a client reads); RETURN pipelines stream."""
    batches, terminal, probes = _open_pipeline(ctx, query, initial_frame)
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
            probes.append(
                OpProbe(
                    terminal,
                    rows_out=len(rows),
                    seconds=time.perf_counter() - start,
                    batches_out=1 if rows else 0,
                )
            )
        if rows:
            yield rows
        return
    yield from _return_batches(ctx, terminal, batches, probes)


def _run_pipeline(ctx: ExecContext, query: ast.Query, initial_frame: dict):
    """Execute a (sub)query eagerly; returns (rows, write_count_delta)."""
    writes_before = ctx.stats["writes"]
    rows: list = []
    for batch in _execute_batches(ctx, query, initial_frame):
        rows.extend(batch)
    return rows, ctx.stats["writes"] - writes_before


def execute(ctx: ExecContext, query: ast.Query) -> Result:
    """Run an optimized query and package the result."""
    rows: list = []
    for batch in _execute_batches(ctx, query, {}):
        rows.extend(batch)
        ctx.stats["batches"] += 1
    ctx.stats["rows_returned"] = len(rows)
    return Result(rows=rows, stats=ctx.stats)


def execute_stream(ctx: ExecContext, query: ast.Query) -> Iterator[list]:
    """Run an optimized query, yielding result-row **batches** lazily.

    ``ctx.stats["rows_returned"]`` advances as batches are consumed, so a
    cursor abandoned mid-stream reports how far it actually got."""
    for batch in _execute_batches(ctx, query, {}):
        ctx.stats["rows_returned"] += len(batch)
        ctx.stats["batches"] += 1
        yield batch
