"""The scatter-gather MMQL coordinator.

The coordinator turns one MMQL statement into per-shard statements plus a
merge step, using only information that is *static* per query: the shard
map's placements and the statement's AST.  The planning model:

* Every frame produced while executing a pipeline is **located**: it
  exists on exactly one shard (because some hash-partitioned FOR bound a
  row that lives there) or on every shard identically (reference data and
  broadcast frames).  A query segment is shippable to all shards when
  every hash-store access inside it is **aligned** — reachable from the
  segment's anchor partition value through equality predicates — so that
  each shard computes exactly the assignments whose located rows it owns.
* When an access is *not* aligned (Q1's ``FOR o IN orders FILTER
  o.Order_no == order_no``), the pipeline is **cut**: the prefix runs
  scattered, the coordinator gathers the surviving variable frames, and
  the suffix is broadcast to every shard as ``FOR __cluster_f IN
  @__cluster_frames …`` — the unaligned FOR localizes again because each
  matching row exists on one shard only.
* A terminal COLLECT in a multi-shard segment is split: shards compute
  partial aggregates, the coordinator folds each group's partials with
  the executor's own accumulators (count/length/sum partials add, min/max
  compare, avg ships its sum and its count as two SUM partials), and any
  post-COLLECT operations are evaluated locally with the real executor
  over the combined groups.  Member lists are elided by one rule only,
  the optimizer's ``collect_into_aggregate`` (run here with the other
  ast-safe rules): an ``INTO`` it leaves ships its members.
* A terminal SORT in a multi-shard segment becomes a :func:`heapq.merge`
  of the shards' sorted runs on the shipped sort keys.  ``LIMIT`` then
  ``RETURN DISTINCT`` apply to the merged rows in that order, as the
  executor applies them: frames are cut before they are de-duplicated
  (with the executor's own group-token canonicalization).
* One placement walk (:meth:`Coordinator._walk`) checks a pipeline, its
  subqueries and the coordinator-side remainder of a COLLECT alike; what
  differs is its argument — whether frames may gather at a cut, and what
  placement a store has (none, after a distributed COLLECT).

Single-shard fast path: when the anchor store's partition key is bound by
an equality predicate to a literal or bind parameter, the whole statement
routes to the owning shard (``fan_out=1``).  DML routes to the owning
shard when the partition value is statically evaluable, broadcasts
otherwise (UPDATE/REMOVE/REPLACE are self-locating: a shard that does not
hold the key no-ops).

Each statement shape is planned once.  Everything above depends on the
bind parameters' names and types only — whether a value is static at all,
whether it is an object — except which shard owns a value.  So a plan is
built as a *template* that records :class:`Route` terms where shard ids
would go, cached in a :class:`~repro.query.engine.PlanCache` keyed on the
text, the bind shape and the shard-map version, and every call routes it:
the terms are evaluated against that call's bind values into a fresh
:class:`ClusterPlan`.  The value-dependent refusals run there, on every
call.

Statements the placement model cannot execute correctly raise
:class:`~repro.errors.ClusterUnsupportedError` — an honest refusal
instead of a silently partial answer.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import (
    ClusterError,
    ClusterUnsupportedError,
    ReproError,
    ShardMapStaleError,
    ShardUnavailableError,
)
from repro.obs import metrics as obs_metrics
from repro.query import ast, visit
from repro.query.engine import PlanCache
from repro.query.executor import _agg_add, _agg_final, _distinct, _new_group
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.unparse import _operation, unparse
from repro.core.datamodel import compare, value_token

from repro.cluster.shardmap import ShardMap

__all__ = [
    "Coordinator",
    "ClusterPlan",
    "SegmentPlan",
    "Route",
    "ClusterResult",
]

#: Reserved identifier prefix for coordinator-generated variables.
_PREFIX = "__cluster_"

#: Aggregate functions with a distributive/algebraic partial form, and
#: the executor accumulator mode that folds their shard partials into one
#: value (AVG's partials are two SUMs, folded ``sum``; ``avg`` divides).
_PARTIAL_MODES = {
    "COUNT": "sum",
    "LENGTH": "sum",
    "SUM": "sum",
    "MIN": "min",
    "MAX": "max",
    "AVG": "avg",
}

obs_metrics.describe(
    "cluster_fanout_queries_total",
    "Statements the coordinator scattered to more than one shard",
)
obs_metrics.describe(
    "cluster_single_shard_queries_total",
    "Statements the coordinator routed to exactly one shard",
)
obs_metrics.describe(
    "cluster_merge_rows_total",
    "Rows that flowed through the coordinator's merge stage",
)
obs_metrics.describe(
    "cluster_shard_errors_total",
    "Per-shard failures observed during scatter-gather",
)
obs_metrics.describe(
    "cluster_plan_cache_hits_total",
    "Statements the coordinator routed from a cached plan template",
)
obs_metrics.describe(
    "cluster_plan_cache_misses_total",
    "Statements the coordinator had to plan (no cached template)",
)
obs_metrics.describe(
    "cluster_plan_cache_evictions_total",
    "Plan templates dropped from the coordinator's full plan cache",
)


# ---------------------------------------------------------------------------
# Plan data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Route:
    """A shard choice a plan template leaves to each call: the owner, in
    *store*, of the value *expr* takes under the call's bind values — of
    that value's *attribute* when one is named.  *absent* says what a
    value without the attribute means: route by NULL (``"null"``, an
    INSERT's document), every shard (``"broadcast"``, a by-key write) or
    a refusal (``"refuse"``, an UPSERT's search document)."""

    store: str
    expr: Any
    attribute: Optional[str] = None
    absent: str = "null"


@dataclass
class SegmentPlan:
    """One shippable slice of the pipeline."""

    ops: list
    multi: bool  # scatter to every shard vs. one shard
    pinned: Optional[int] = None  # single-shard target, set per call
    #: The terms that pin a single-shard segment; all must name one shard.
    routes: tuple = ()
    #: ``(store, partition attribute)`` of the FOR that locates the frames.
    anchor: Optional[tuple] = None
    input_vars: list = field(default_factory=list)
    output_vars: Optional[list] = None  # None = final segment
    statement: Optional[str] = None  # rendered shard-side MMQL
    merge: dict = field(default_factory=dict)

    @property
    def final(self) -> bool:
        return self.output_vars is None


@dataclass
class ClusterPlan:
    """What the coordinator decided for one statement."""

    kind: str  # "read" | "dml"
    strategy: str
    segments: list = field(default_factory=list)
    dml: Optional[dict] = None
    fan_out: int = 1
    #: A standalone write's owner, resolved per call (routed or broadcast).
    route: Optional[Route] = None
    #: Served from the coordinator's plan cache (``stats["plan_cached"]``).
    cached: bool = False

    def describe(self, shard_map: ShardMap) -> str:
        lines = [
            f"cluster plan [strategy={self.strategy} fan_out={self.fan_out} "
            f"shards={shard_map.num_shards} map_version={shard_map.version}]"
        ]
        if self.dml is not None:
            target = self.dml.get("shard")
            where = (
                f"shard {target}" if target is not None
                else f"all {shard_map.num_shards} shards"
            )
            lines.append(f"  dml → {where}: {self.dml['statement']}")
            return "\n".join(lines)
        for index, segment in enumerate(self.segments):
            if segment.multi:
                where = f"scatter({shard_map.num_shards})"
            elif segment.pinned is not None:
                where = f"shard {segment.pinned}"
            else:
                where = "any single shard"
            merge = segment.merge.get("kind", "rows")
            lines.append(f"  segment {index} [{where} merge={merge}]")
            lines.append(f"    {segment.statement}")
            post = segment.merge.get("post_ops")
            if post:
                rendered = " ".join(_operation(op) for op in post)
                lines.append(f"    coordinator: {rendered}")
        return "\n".join(lines)


class ClusterResult:
    """Result of a coordinated statement — quacks like the client's
    :class:`~repro.client.client.ResultCursor` (``rows``, ``stats``,
    ``analyzed``, ``fetch_all``)."""

    def __init__(self, rows, stats, analyzed=None, trace=None):
        self.rows = rows
        self.stats = stats
        self.analyzed = analyzed
        self.trace = trace

    def fetch_all(self) -> list:
        return self.rows

    def __iter__(self):
        return iter(self.rows)


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _static_value(expr, binds: dict):
    """Evaluate an expression without a database; returns ``(ok, value)``."""
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.BindVar):
        if binds is not None and expr.name in binds:
            return True, binds[expr.name]
        return False, None
    if isinstance(expr, ast.ObjectLiteral):
        out = {}
        for key, value in expr.items:
            ok, evaluated = _static_value(value, binds)
            if not ok:
                return False, None
            out[key] = evaluated
        return True, out
    if isinstance(expr, ast.ArrayLiteral):
        out = []
        for item in expr.items:
            ok, evaluated = _static_value(item, binds)
            if not ok:
                return False, None
            out.append(evaluated)
        return True, out
    return False, None


def _store_of(op: ast.ForOp, bound: set) -> bool:
    """True when the FOR *op* scans a store, not a bound variable."""
    return isinstance(op.source, ast.VarRef) and op.source.name not in bound


def _equalities(op):
    """``(one, other)`` for each ``==`` conjunct of a FILTER *op*, both
    ways round."""
    if isinstance(op, ast.FilterOp):
        for conjunct in visit.conjuncts(op.condition):
            if isinstance(conjunct, ast.BinOp) and conjunct.op == "==":
                yield conjunct.left, conjunct.right
                yield conjunct.right, conjunct.left


def _aligned_ahead(partition, anchor: list, ops_ahead: list) -> bool:
    """Is there an unconditional equality linking *partition* to the
    anchor set in the ops ahead (before the pipeline re-shapes)?"""
    for op in ops_ahead:
        if isinstance(op, (ast.CollectOp, ast.LimitOp)):
            return False
        if any(
            one == partition and other in anchor
            for one, other in _equalities(op)
        ):
            return True
    return False


def _no_store(store: str):
    """The placement of every store for the remainder of a distributed
    COLLECT, which the coordinator runs over the combined groups: none."""
    raise ClusterUnsupportedError(
        "pipeline stages after a distributed COLLECT must not touch stores"
    )


def _local_statement(exports: list, post_ops: list) -> Optional[str]:
    """The MMQL the coordinator runs over the combined groups of a
    distributed COLLECT: each group's *exports* bound from
    ``@__cluster_groups``, then the *post_ops*; None when there are none."""
    if not post_ops:
        return None
    group_var = _PREFIX + "g"
    ops: list = [ast.ForOp(group_var, ast.BindVar(_PREFIX + "groups"))]
    ops += [
        ast.LetOp(name, ast.AttrAccess(ast.VarRef(group_var), name))
        for name in exports
    ]
    return unparse(ast.Query(ops + list(post_ops)))


def _upsert_refusal(store: str, partition_key: str) -> ClusterUnsupportedError:
    return ClusterUnsupportedError(
        f"UPSERT into hash-partitioned {store!r} needs the partition key "
        f"{partition_key!r} in a statically evaluable search document"
    )


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class Coordinator:
    """Plans and executes MMQL statements against a sharded topology.

    Transport-agnostic: ``execute`` takes a *runner* callable
    ``runner(shard_id, text, bind_vars, analyze, consistency, trace) ->
    (rows, stats, analyzed)`` — the :class:`ClusterClient` supplies one
    backed by per-shard replica sets over the wire protocol."""

    def __init__(self, shard_map: ShardMap):
        self.shard_map = shard_map
        #: Plan templates by (text, bind shape, map version).  A new map
        #: means a new coordinator, so the version in the key only guards
        #: a map swapped under a live one.
        self.plan_cache = PlanCache(name="cluster_plan_cache")
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._local_db = None  # lazily-created store-free evaluator
        self._pool = None  # lazily-created scatter thread pool
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    # -- planning --------------------------------------------------------

    def plan(self, text: str, bind_vars: Optional[dict] = None) -> ClusterPlan:
        """The plan for one call: the statement's cached template (built
        on a miss; a statement that is refused while it is built is not
        cached), routed with this call's bind values."""
        binds = bind_vars or {}
        key = PlanCache.key(text, binds, True, (self.shard_map.version,))
        template = self.plan_cache.get(key, ())
        cached = template is not None
        if not cached:
            template = self._template(text, binds)
            self.plan_cache.put(key, template, ())
        return self._route(template, binds, cached)

    def _template(self, text: str, binds: dict) -> ClusterPlan:
        """Parse, rewrite, segment and render *text*.  Reads only the
        names and types of *binds*, never a value's owner: where a shard
        id depends on a value the plan holds a :class:`Route`."""
        query = parse(text)
        terminal = query.operations[-1] if query.operations else None
        if isinstance(terminal, visit.WRITE_OPS):
            return self._plan_dml(query, binds)
        if visit.contains_write(query):
            raise ClusterUnsupportedError(
                "writes inside subqueries cannot be routed across shards"
            )
        # Coordinator-side rewrite: only the *ast-safe* rules run here
        # (constant folding, predicate split, filter pushdown) — they emit
        # pure AST that unparses back to MMQL text for the shards.
        # Physical rules (index selection, decorrelation, hash joins) fire
        # shard-locally where the indexes live.
        query = optimize(query, None, ast_only=True)
        return self._plan_read(query, binds)

    def _route(
        self, template: ClusterPlan, binds: dict, cached: bool
    ) -> ClusterPlan:
        """A fresh plan for one call: *template* with every route resolved
        against *binds*.  The template itself is never changed."""
        dml = dict(template.dml) if template.dml is not None else None
        if template.route is not None:
            dml["shard"] = self._owner(template.route, binds)
            routed = dml["shard"] is not None
            return dataclasses.replace(
                template,
                strategy="dml_routed" if routed else "dml_broadcast",
                fan_out=1 if routed else self.shard_map.num_shards,
                dml=dml,
                cached=cached,
            )
        segments = [
            dataclasses.replace(
                segment, pinned=self._pin(segment.routes, binds)
            )
            if segment.routes
            else segment
            for segment in template.segments
        ]
        return dataclasses.replace(
            template, segments=segments, dml=dml, cached=cached
        )

    def _owner(self, route: Route, binds: dict) -> Optional[int]:
        """The shard *route* names under *binds*; None for a broadcast."""
        _static, value = _static_value(route.expr, binds)
        if route.attribute is not None:
            if route.attribute in value:
                value = value[route.attribute]
            elif route.absent == "broadcast":
                return None
            elif route.absent == "refuse":
                raise _upsert_refusal(route.store, route.attribute)
            else:
                value = None
        return self.shard_map.owner(route.store, value)

    def _pin(self, routes: tuple, binds: dict) -> int:
        shards = {self._owner(route, binds) for route in routes}
        if len(shards) > 1:
            raise ClusterUnsupportedError(
                "statement pins keys on different shards; split it or "
                "use a scatter-friendly predicate"
            )
        return shards.pop()

    # .. read planning ...................................................

    def _plan_read(self, query: ast.Query, binds: dict) -> ClusterPlan:
        segments = self._segment(query.operations, binds)
        self._render_segments(segments, binds)
        multi_any = any(segment.multi for segment in segments)
        fan_out = self.shard_map.num_shards if multi_any else 1
        if len(segments) == 1 and segments[0].routes:
            strategy = "single_shard"
        elif not multi_any:
            strategy = "reference"
        elif len(segments) == 1:
            strategy = "scatter"
        else:
            strategy = "multi_segment"
        return ClusterPlan(
            kind="read",
            strategy=strategy,
            segments=segments,
            fan_out=fan_out,
        )

    def _segment(self, ops: list, binds: dict) -> list:
        """Split the pipeline where its located frames must gather at the
        coordinator: at unaligned hash-store FORs, and at a COLLECT."""
        segments: list[SegmentPlan] = []
        anchor: list = []  # exprs equal to the partition value
        routes: list = []
        bound: set = set()
        start = 0
        located: Optional[tuple] = None

        def cut(index: int, store: str, partition) -> None:
            nonlocal start, located
            if anchor:
                # Cut: gather frames, broadcast the suffix.
                segments.append(
                    SegmentPlan(ops=ops[start:index], multi=True, anchor=located)
                )
                start = index
                routes.clear()
            located = (store, partition)

        stop = self._walk(
            ops, binds, anchor, bound, routes, self.shard_map.placement, cut
        )
        segment = SegmentPlan(
            ops=ops[start:stop + 1],
            multi=bool(anchor),
            routes=() if anchor else tuple(routes),
            anchor=located,
        )
        if stop < len(ops):
            # Merge point: partials on the shards, combine + evaluate the
            # (store-free) remainder at the coordinator.
            post_ops = ops[stop + 1:]
            self._walk(post_ops, binds, [], bound, [], _no_store)
            segment.merge = {"kind": "collect", "post_ops": post_ops}
        segments.append(segment)
        return self._finish_segments(segments)

    def _finish_segments(self, segments: list) -> list:
        """Assign inter-segment frame variables."""
        # Live variables across each cut: a variable reaches segment k+1
        # only through segment k's output frames, so the candidates are
        # the segment's own bindings plus whatever was shipped into it.
        for position, segment in enumerate(segments[:-1]):
            later_ops: list = []
            for later in segments[position + 1:]:
                later_ops.extend(later.ops)
                post = later.merge.get("post_ops")
                if post:
                    later_ops.extend(post)
            candidates: list = list(segment.input_vars)
            for op in segment.ops:
                for name in visit.binds(op):
                    if name not in candidates:
                        candidates.append(name)
            # Free names include the stores the later segments scan; only
            # the ones that are this segment's variables travel.
            used = visit.free_vars(later_ops)
            live = [name for name in candidates if name in used]
            segment.output_vars = live
            segments[position + 1].input_vars = live
        return segments

    def _walk(
        self, ops, binds, anchor, bound, routes, placement_of, cut=None
    ) -> int:
        """The placement walk: check every store *ops* touch against
        *placement_of*, collect a :class:`Route` for each lookup by a
        static key in *routes*, and grow *anchor* — the expressions equal
        to the partition value of the shard the frames are on, empty while
        they are on no shard in particular — through hash-store FORs, LETs
        and equality FILTERs.

        At a hash-store FOR the anchor does not reach, the frames must
        gather: *cut* is called with its index, store and partition
        attribute, and that FOR anchors what follows.  Given *cut* (the
        statement's own pipeline), a LIMIT over anchored frames must end
        it, and the walk stops at a COLLECT over anchored frames and
        returns its index (else ``len(ops)``).  Without it — a subquery,
        which runs whole on its frame's shard — such a FOR is refused."""
        for index, op in enumerate(ops):
            if isinstance(op, ast.ForOp) and _store_of(op, bound):
                store = op.source.name
                placement = placement_of(store)
                if placement.mode == "hash":
                    partition = ast.AttrAccess(
                        ast.VarRef(op.var), placement.partition_key
                    )
                    if not _aligned_ahead(partition, anchor, ops[index + 1:]):
                        if cut is None:
                            raise ClusterUnsupportedError(
                                f"subquery over hash-partitioned {store!r} is "
                                "not aligned with the enclosing partition value"
                            )
                        cut(index, store, partition)
                        anchor.clear()
                    anchor.append(partition)
            elif isinstance(op, (ast.TraversalOp, ast.ShortestPathOp)):
                if placement_of(op.graph).mode == "hash":
                    raise ClusterUnsupportedError(
                        f"graph {op.graph!r} is hash-partitioned; "
                        "traversals need a reference placement"
                    )
            elif isinstance(op, ast.LimitOp) and anchor and cut is not None:
                tail = ops[index + 1:]
                if not all(isinstance(o, ast.ReturnOp) for o in tail):
                    raise ClusterUnsupportedError(
                        "LIMIT before further pipeline stages cannot be "
                        "applied per shard; move it to the end of the query"
                    )
            # Expression-level store accesses (DOCUMENT/KV_GET/…).
            for expr in visit.operation_exprs(op):
                for node in visit.walk(expr):
                    if isinstance(node, ast.SubQuery):
                        self._walk(
                            node.query.operations, binds, list(anchor),
                            set(bound), routes, placement_of,
                        )
                    elif isinstance(node, ast.FuncCall):
                        self._check_store_func(
                            node, anchor, binds, routes, placement_of
                        )
            if isinstance(op, ast.LetOp) and op.value in anchor:
                anchor.append(ast.VarRef(op.var))
            for one, other in _equalities(op):
                if other in anchor and one not in anchor:
                    anchor.append(one)
            bound.update(visit.binds(op))
            if isinstance(op, ast.CollectOp) and anchor and cut is not None:
                return index
        return len(ops)

    def _check_store_func(
        self, node, anchor, binds, routes: list, placement_of
    ) -> None:
        if node.name == "FULLTEXT":
            raise ClusterUnsupportedError(
                "FULLTEXT cannot be routed (the coordinator cannot map an "
                "index name to a store placement); run it per shard"
            )
        family = visit.STORE_FUNCS.get(node.name)
        if family is None or not node.args:
            return
        store_arg = node.args[0]
        if not isinstance(store_arg, ast.Literal) or not isinstance(
            store_arg.value, str
        ):
            raise ClusterUnsupportedError(
                f"{node.name} needs a literal store name under a cluster"
            )
        store = store_arg.value
        placement = placement_of(store)
        if placement.mode != "hash":
            return
        if family in ("graph", "tree", "triple", "spatial", "kv_all"):
            raise ClusterUnsupportedError(
                f"{node.name} on hash-partitioned store {store!r} needs a "
                "global view; declare it as a reference store"
            )
        # Point lookups route by the store's *primary* key; that only
        # determines a shard when it doubles as the partition key (KV
        # buckets partition on the key itself, so they always qualify).
        if family == "keyed" and not placement.key_routable:
            raise ClusterUnsupportedError(
                f"{node.name} on {store!r} looks up by "
                f"{placement.primary_key or '_key'!r} but the store is "
                f"partitioned by {placement.partition_key!r}; the owner "
                "shard cannot be derived from the lookup key"
            )
        key_expr = node.args[1] if len(node.args) > 1 else None
        if key_expr is not None and key_expr in anchor:
            return  # aligned: the frame already lives on the owner shard
        if key_expr is not None and _static_value(key_expr, binds)[0]:
            route = Route(store, key_expr)
            if route not in routes:
                routes.append(route)
            return
        raise ClusterUnsupportedError(
            f"{node.name}({store!r}, …) key is neither aligned with the "
            "segment's partition value nor statically evaluable"
        )

    # .. rendering .......................................................

    def _render_segments(self, segments: list, binds: dict) -> None:
        for segment in segments:
            prefix = self._input_prefix(segment)
            if not segment.final:
                wrapper = ast.ReturnOp(
                    ast.ObjectLiteral(
                        tuple(
                            (name, ast.VarRef(name))
                            for name in segment.output_vars
                        )
                    ),
                    distinct=False,
                )
                segment.statement = unparse(
                    ast.Query(prefix + segment.ops + [wrapper])
                )
                segment.merge = {"kind": "frames"}
                continue
            self._render_final(segment, prefix, binds)

    def _input_prefix(self, segment: SegmentPlan) -> list:
        if not segment.input_vars:
            return []
        frame_var = _PREFIX + "f"
        prefix: list = [
            ast.ForOp(frame_var, ast.BindVar(_PREFIX + "frames"))
        ]
        prefix += [
            ast.LetOp(name, ast.AttrAccess(ast.VarRef(frame_var), name))
            for name in segment.input_vars
        ]
        return prefix

    def _render_final(self, segment, prefix, binds) -> None:
        ops = segment.ops
        if not segment.multi:
            segment.statement = unparse(ast.Query(prefix + ops))
            segment.merge = {"kind": "rows"}
            return
        # Fast path: anchored scatter whose partition key is statically
        # equality-bound routes to the owner and ships verbatim.
        route = self._fast_path_route(segment, binds)
        if route is not None:
            segment.multi = False
            segment.routes = (route,)
            segment.statement = unparse(ast.Query(prefix + ops))
            segment.merge = {"kind": "rows"}
            return
        if segment.merge.get("kind") == "collect":
            self._render_collect(segment, prefix)
            return
        # Tail analysis: [SORT] [LIMIT] RETURN.
        terminal = ops[-1] if ops else None
        if not isinstance(terminal, ast.ReturnOp):
            # Headless pipeline (no RETURN): nothing to merge.
            segment.statement = unparse(ast.Query(prefix + ops))
            segment.merge = {"kind": "concat", "headless": True}
            return
        body = ops[:-1]
        limit: Optional[ast.LimitOp] = None
        sort: Optional[ast.SortOp] = None
        if body and isinstance(body[-1], ast.LimitOp):
            limit = body[-1]
            body = body[:-1]
        if body and isinstance(body[-1], ast.SortOp):
            sort = body[-1]
            body = body[:-1]
        # The executor cuts frames before RETURN DISTINCT dedupes what is
        # left, so under a LIMIT the shards ship their cut frames as they
        # are and the coordinator dedupes after its own cut.
        distinct = terminal.distinct and limit is None
        merge = {
            "offset": limit.offset if limit else 0,
            "count": limit.count if limit else None,
            "distinct": terminal.distinct,
        }
        if sort is not None:
            shard_ops = list(body) + [sort]
            if limit is not None:
                shard_ops.append(ast.LimitOp(0, limit.offset + limit.count))
            wrapper = ast.ReturnOp(
                ast.ObjectLiteral(
                    (
                        (
                            _PREFIX + "k",
                            ast.ArrayLiteral(
                                tuple(key.expr for key in sort.keys)
                            ),
                        ),
                        (_PREFIX + "v", terminal.expr),
                    )
                ),
                distinct=distinct,
            )
            segment.statement = unparse(
                ast.Query(prefix + shard_ops + [wrapper])
            )
            segment.merge = {
                "kind": "sort",
                "ascending": [key.ascending for key in sort.keys],
                **merge,
            }
            return
        shard_ops = list(body)
        if limit is not None:
            shard_ops.append(ast.LimitOp(0, limit.offset + limit.count))
        shard_ops.append(ast.ReturnOp(terminal.expr, distinct))
        segment.statement = unparse(ast.Query(prefix + shard_ops))
        segment.merge = {"kind": "concat", **merge}

    def _fast_path_route(self, segment, binds) -> Optional[Route]:
        if segment.anchor is None:
            return None
        store, partition = segment.anchor
        for op in segment.ops:
            for one, other in _equalities(op):
                if one == partition and _static_value(other, binds)[0]:
                    return Route(store, other)
        return None

    def _render_collect(self, segment, prefix) -> None:
        collect = segment.ops[-1]
        assert isinstance(collect, ast.CollectOp)
        body = segment.ops[:-1]
        group_names = [name for name, _expr in collect.groups]
        # (name, func, mode, position of its first partial)
        finals: list = []
        shard_aggregates: list = []
        for position, (name, func, arg) in enumerate(collect.aggregates):
            func = func.upper()
            mode = _PARTIAL_MODES.get(func)
            if mode is None:
                raise ClusterUnsupportedError(
                    f"AGGREGATE {func} has no distributive partial form; "
                    "COLLECT it on a single shard or use INTO + a local "
                    "expression"
                )
            finals.append((name, func, mode, len(shard_aggregates)))
            if func == "AVG":
                shard_aggregates.append((f"{_PREFIX}a{position}_s", "SUM", arg))
                shard_aggregates.append(
                    (
                        f"{_PREFIX}a{position}_n",
                        "SUM",
                        ast.Ternary(
                            ast.BinOp("==", arg, ast.Literal(None)),
                            ast.Literal(0),
                            ast.Literal(1),
                        ),
                    )
                )
            else:
                shard_aggregates.append((name, func, arg))
        into = collect.into
        shard_collect = ast.CollectOp(
            list(collect.groups),
            collect.count_into,
            into,
            shard_aggregates,
        )
        fields: list = [
            (
                _PREFIX + "k",
                ast.ArrayLiteral(
                    tuple(ast.VarRef(name) for name in group_names)
                ),
            )
        ]
        fields += [
            (field, ast.VarRef(field)) for field, _func, _arg in shard_aggregates
        ]
        if collect.count_into:
            fields.append((collect.count_into, ast.VarRef(collect.count_into)))
        if into:
            fields.append((into, ast.VarRef(into)))
        wrapper = ast.ReturnOp(ast.ObjectLiteral(tuple(fields)))
        segment.statement = unparse(
            ast.Query(prefix + body + [shard_collect, wrapper])
        )
        exports = (
            group_names
            + [name for name, _func, _mode, _position in finals]
            + ([collect.count_into] if collect.count_into else [])
            + ([into] if into else [])
        )
        segment.merge.update(
            {
                "kind": "collect",
                "groups": group_names,
                # The executor's accumulator specs, one per shipped partial.
                "partials": [
                    (field, func, _PARTIAL_MODES[func], None)
                    for field, func, _arg in shard_aggregates
                ],
                "aggs": finals,
                "count_into": collect.count_into,
                "into": into,
                "local": _local_statement(exports, segment.merge["post_ops"]),
            }
        )

    # -- execution -------------------------------------------------------

    def execute(
        self,
        plan: ClusterPlan,
        bind_vars: Optional[dict],
        runner: Callable,
        analyze: bool = False,
        consistency: Optional[str] = None,
        trace: Any = None,
    ) -> ClusterResult:
        binds = dict(bind_vars or {})
        if plan.kind == "dml":
            return self._execute_dml(plan, binds, runner, consistency, trace)
        return self._execute_read(
            plan, binds, runner, analyze, consistency, trace
        )

    def _next_single_shard(self) -> int:
        with self._rr_lock:
            shard = self.shard_map.all_shard_ids()[
                self._rr % self.shard_map.num_shards
            ]
            self._rr += 1
        return shard

    def _scatter(
        self, shard_ids, statement, binds, runner, analyze, consistency, trace
    ):
        """Run one statement on many shards concurrently; returns
        ``{shard_id: (rows, stats, analyzed)}`` or raises."""
        results: dict = {}
        errors: dict = {}

        def one(shard_id: int) -> None:
            try:
                results[shard_id] = runner(
                    shard_id, statement, binds,
                    analyze=analyze, consistency=consistency, trace=trace,
                )
            except BaseException as error:  # noqa: BLE001 - sorted below
                errors[shard_id] = error

        if len(shard_ids) == 1:
            one(shard_ids[0])
        else:
            # A persistent pool, not per-query threads: scatter happens on
            # every fan-out statement, and thread spawn is pure overhead.
            # The calling thread takes one shard itself, so a query always
            # progresses even when the pool is busy with other statements.
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=max(2, 2 * self.shard_map.num_shards),
                        thread_name_prefix="cluster-scatter",
                    )
            futures = [
                pool.submit(one, shard_id) for shard_id in shard_ids[1:]
            ]
            one(shard_ids[0])
            for future in futures:
                future.result()  # `one` captures; this only joins
        if errors:
            self._raise_scatter_errors(errors)
        return results

    def _raise_scatter_errors(self, errors: dict) -> None:
        if obs_metrics.ENABLED:
            obs_metrics.counter("cluster_shard_errors_total").inc(len(errors))
        for shard_id, error in sorted(errors.items()):
            if isinstance(error, ShardMapStaleError):
                raise error
        for shard_id, error in sorted(errors.items()):
            if isinstance(error, ReproError):
                raise error
        shard_id, error = sorted(errors.items())[0]
        raise ShardUnavailableError(
            f"shard {shard_id} failed during scatter: "
            f"{type(error).__name__}: {error}",
            shard=shard_id,
        ) from error

    def _execute_read(
        self, plan, binds, runner, analyze, consistency, trace
    ) -> ClusterResult:
        frames: Optional[list] = None
        stats_total: dict = {}
        analyzed_parts: list = []
        rows: list = []
        fan_out_seen = 1
        for position, segment in enumerate(plan.segments):
            seg_binds = dict(binds)
            if segment.input_vars:
                seg_binds[_PREFIX + "frames"] = frames or []
            if segment.multi:
                shard_ids = self.shard_map.all_shard_ids()
            else:
                shard_ids = [
                    segment.pinned
                    if segment.pinned is not None
                    else self._next_single_shard()
                ]
            fan_out_seen = max(fan_out_seen, len(shard_ids))
            results = self._scatter(
                shard_ids, segment.statement, seg_binds, runner,
                analyze, consistency, trace,
            )
            self._fold_stats(stats_total, results)
            if analyze:
                for shard_id in sorted(results):
                    shard_analyzed = results[shard_id][2]
                    if shard_analyzed:
                        analyzed_parts.append(
                            (position, shard_id, shard_analyzed)
                        )
            ordered = [results[shard_id] for shard_id in sorted(results)]
            if not segment.final:
                frames = [
                    row for result in ordered for row in result[0]
                ]
                continue
            rows = self._merge_final(segment, ordered, binds)
        merged = len(rows)
        if obs_metrics.ENABLED:
            if fan_out_seen > 1:
                obs_metrics.counter("cluster_fanout_queries_total").inc()
            else:
                obs_metrics.counter("cluster_single_shard_queries_total").inc()
            obs_metrics.counter("cluster_merge_rows_total").inc(merged)
        stats = self._final_stats(stats_total, plan, fan_out_seen, merged)
        analyzed = (
            self._render_analyzed(plan, analyzed_parts, fan_out_seen, merged)
            if analyze
            else None
        )
        return ClusterResult(rows, stats, analyzed=analyzed, trace=trace)

    def _fold_stats(self, total: dict, results: dict) -> None:
        for rows, stats, _analyzed in results.values():
            for key, value in (stats or {}).items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                total[key] = total.get(key, 0) + value

    def _final_stats(self, total, plan, fan_out, merged) -> dict:
        stats = dict(total)
        stats.setdefault("scanned", 0)
        stats.setdefault("index_lookups", 0)
        stats["rows_returned"] = merged
        stats["fan_out"] = fan_out
        stats["cluster_strategy"] = plan.strategy
        stats["cluster_segments"] = len(plan.segments) or 1
        stats["merged_rows"] = merged
        stats["plan_cached"] = plan.cached
        return stats

    def _render_analyzed(self, plan, parts, fan_out, merged) -> str:
        lines = [
            f"cluster {plan.strategy} [fan_out={fan_out} "
            f"shards={self.shard_map.num_shards} "
            f"segments={len(plan.segments) or 1} merged_rows={merged}]"
        ]
        for position, shard_id, text in parts:
            lines.append(f"  segment {position} shard {shard_id}:")
            for line in text.splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)

    # .. merge implementations ...........................................

    def _merge_final(self, segment, ordered, binds) -> list:
        merge = segment.merge
        kind = merge.get("kind", "rows")
        if kind == "rows":
            return list(ordered[0][0])
        if kind == "concat":
            rows = [row for result in ordered for row in result[0]]
            return _limit_then_distinct(rows, merge)
        if kind == "sort":
            return self._merge_sorted(segment, ordered)
        if kind == "collect":
            return self._merge_collect(segment, ordered, binds)
        raise ClusterError(f"unknown merge kind {kind!r}")

    def _merge_sorted(self, segment, ordered) -> list:
        merge = segment.merge
        ascending = merge["ascending"]
        key_field = _PREFIX + "k"
        merged = heapq.merge(
            *(result[0] for result in ordered),
            key=lambda row: _MergeKey(row[key_field], ascending),
        )
        rows = [row[_PREFIX + "v"] for row in merged]
        return _limit_then_distinct(rows, merge)

    def _merge_collect(self, segment, ordered, binds) -> list:
        """Fold each group's shard partials with the executor's own
        accumulators, then run the remainder over the combined groups."""
        merge = segment.merge
        text = merge["local"]
        if text is None:
            return []
        group_names = merge["groups"]
        partials = merge["partials"]
        count_into = merge.get("count_into")
        into = merge.get("into")
        groups: dict = {}
        for rows, _stats, _analyzed in ordered:
            for row in rows:
                keys = row.get(_PREFIX + "k") or []
                token = tuple(map(value_token, keys))
                group = groups.get(token)
                if group is None:
                    group = _new_group(zip(group_names, keys), partials)
                    groups[token] = group
                aggs = group["aggs"]
                for position, (field, func, mode, _fn) in enumerate(partials):
                    _agg_add(aggs, position, mode, func, row.get(field))
                if count_into:
                    group["count"] += row.get(count_into) or 0
                if into:
                    group["members"].extend(row.get(into) or [])
        group_frames: list = []
        for group in groups.values():
            frame = group["keys"]
            aggs = group["aggs"]
            for name, func, mode, position in merge["aggs"]:
                # AVG's state is its [sum, count] partials, side by side.
                state = (
                    aggs[position:position + 2] if mode == "avg"
                    else aggs[position]
                )
                frame[name] = _agg_final(None, state, mode, func)
            if count_into:
                frame[count_into] = group["count"]
            if into:
                frame[into] = group["members"]
            group_frames.append(frame)
        return self._local_eval(text, group_frames, binds)

    def _local_eval(self, text, frames, binds) -> list:
        """Evaluate store-free pipeline ops at the coordinator with the
        *real* executor (an empty embedded engine), so expression, sort
        and aggregate semantics are identical to a shard's."""
        if self._local_db is None:
            from repro.core.database import MultiModelDB

            self._local_db = MultiModelDB()
        local_binds = dict(binds)
        local_binds[_PREFIX + "groups"] = frames
        return self._local_db.query(text, local_binds).rows

    # .. DML .............................................................

    def _plan_dml(self, query: ast.Query, binds: dict) -> ClusterPlan:
        ops = query.operations
        terminal = ops[-1]
        text = unparse(query)
        if len(ops) == 1:
            return self._plan_standalone_dml(terminal, text, binds)
        # Pipeline DML: plan the prefix like a read; the terminal rides in
        # the last segment.  Self-locating statements (UPDATE/REMOVE/
        # REPLACE, where a non-owning shard no-ops) are safe to scatter;
        # INSERT/UPSERT would duplicate rows.
        placement = self.shard_map.placement(terminal.target)
        if isinstance(terminal, (ast.InsertOp, ast.UpsertOp)):
            raise ClusterUnsupportedError(
                f"{type(terminal).__name__.replace('Op', '').upper()} with "
                "a pipeline prefix cannot be routed to owner shards; "
                "issue per-document statements instead"
            )
        segments = self._segment(ops[:-1], binds)
        segments[-1].ops = segments[-1].ops + [terminal]
        if placement.mode == "reference" and any(
            segment.multi for segment in segments
        ):
            # Frames reaching the DML differ per shard only if a hash FOR
            # anchored some segment — then each shard would patch its
            # reference copy differently.
            raise ClusterUnsupportedError(
                f"DML on reference store {terminal.target!r} driven by a "
                "hash-partitioned pipeline would diverge the replicas"
            )
        if placement.mode == "reference":
            # Reference data + reference-only pipeline: every shard must
            # apply the identical statement to stay in sync.
            for segment in segments:
                segment.multi = True
                segment.routes = ()
        self._render_segments(segments, binds)
        final = segments[-1]
        final.merge = {"kind": "concat", "headless": False}
        fan_out = (
            self.shard_map.num_shards
            if any(segment.multi for segment in segments)
            else 1
        )
        return ClusterPlan(
            kind="read",  # executes through the segment machinery
            strategy="dml_scatter" if fan_out > 1 else "dml_single",
            segments=segments,
            fan_out=fan_out,
        )

    def _plan_standalone_dml(self, op, text: str, binds: dict) -> ClusterPlan:
        placement = self.shard_map.placement(op.target)
        if placement.mode == "reference":
            return ClusterPlan(
                kind="dml",
                strategy="dml_broadcast",
                dml={
                    "statement": text,
                    "shard": None,
                    "reference": True,
                },
                fan_out=self.shard_map.num_shards,
            )
        partition_key = placement.partition_key
        route: Optional[Route] = None
        # Whether a value is static, and whether it is an object, follows
        # from the bind shape; which shard owns it, and whether an object
        # bind holds the partition key, is the call's (see _route).
        if isinstance(op, ast.InsertOp):
            ok, document = _static_value(op.document, binds)
            if not ok or not isinstance(document, dict):
                raise ClusterUnsupportedError(
                    f"INSERT into hash-partitioned {op.target!r} needs a "
                    "statically evaluable document to pick the owner shard"
                )
            route = Route(op.target, op.document, partition_key)
        elif isinstance(op, ast.UpsertOp):
            ok, search = _static_value(op.search, binds)
            if not ok or not isinstance(search, dict):
                raise _upsert_refusal(op.target, partition_key)
            route = Route(op.target, op.search, partition_key, "refuse")
        else:  # UPDATE / REMOVE / REPLACE by key
            ok, key = _static_value(op.key, binds)
            if ok and placement.key_routable:
                # The store's primary key doubles as the partition key, so
                # the key value (or an object key's partition key) routes
                # directly.
                route = Route(
                    op.target,
                    op.key,
                    partition_key if isinstance(key, dict) else None,
                    "broadcast",
                )
        if route is not None:
            return ClusterPlan(
                kind="dml",
                strategy="dml_routed",
                dml={"statement": text, "shard": None, "reference": False},
                fan_out=1,
                route=route,
            )
        # Partitioned on an attribute the statement does not bind: let
        # every shard try — the owner applies it, the rest no-op.
        return ClusterPlan(
            kind="dml",
            strategy="dml_broadcast",
            dml={"statement": text, "shard": None, "reference": False},
            fan_out=self.shard_map.num_shards,
        )

    def _execute_dml(
        self, plan, binds, runner, consistency, trace
    ) -> ClusterResult:
        info = plan.dml
        if info["shard"] is not None:
            shard_ids = [info["shard"]]
        else:
            shard_ids = self.shard_map.all_shard_ids()
        try:
            results = self._scatter(
                shard_ids, info["statement"], binds, runner,
                False, consistency, trace,
            )
        except ReproError:
            if info["reference"] and len(shard_ids) > 1:
                raise ClusterError(
                    "broadcast DML failed on some shards; reference store "
                    "copies may have diverged — re-issue the statement"
                )
            raise
        stats_total: dict = {}
        self._fold_stats(stats_total, results)
        rows = [
            row
            for shard_id in sorted(results)
            for row in results[shard_id][0]
        ]
        if info["reference"] and len(shard_ids) > 1 and rows:
            # Every shard applied the same statement; report one copy.
            per_shard = len(results[sorted(results)[0]][0])
            rows = rows[:per_shard]
            if "writes" in stats_total:
                total_writes = stats_total["writes"]
                stats_total["writes"] = total_writes // len(shard_ids)
        if obs_metrics.ENABLED:
            if len(shard_ids) > 1:
                obs_metrics.counter("cluster_fanout_queries_total").inc()
            else:
                obs_metrics.counter("cluster_single_shard_queries_total").inc()
        stats = self._final_stats(stats_total, plan, len(shard_ids), len(rows))
        return ClusterResult(rows, stats, trace=trace)


# ---------------------------------------------------------------------------
# Merge helpers
# ---------------------------------------------------------------------------


class _MergeKey:
    """Sort key of a shipped row for :func:`heapq.merge`: the engine's
    cross-type total order per sort key, direction-aware.  Rows that tie
    on every key compare equal, so the merge takes them in shard order."""

    __slots__ = ("keys", "ascending")

    def __init__(self, keys, ascending):
        self.keys = keys
        self.ascending = ascending

    def _compare(self, other: "_MergeKey") -> int:
        for mine, theirs, ascending in zip(
            self.keys, other.keys, self.ascending
        ):
            verdict = compare(mine, theirs)
            if verdict:
                return verdict if ascending else -verdict
        return 0

    def __lt__(self, other: "_MergeKey") -> bool:
        return self._compare(other) < 0

    def __eq__(self, other: object) -> bool:
        # Values the model holds equal are equal in Python too (not the
        # other way round: true == 1), so most calls end at the cheap test.
        return self.keys == other.keys and self._compare(other) == 0


def _limit_then_distinct(rows: list, merge: dict) -> list:
    """The merged *rows* cut by the statement's LIMIT, then de-duplicated
    by its RETURN DISTINCT — the executor's order."""
    count = merge.get("count")
    if count is not None:
        offset = merge["offset"]
        rows = rows[offset:offset + count]
    if merge.get("distinct"):
        rows = _distinct(rows, set())
    return rows
