"""Physical plan nodes and plan rendering (EXPLAIN).

The optimizer rewrites parsed operations into a physical plan: most AST
operations execute directly, but scans with suitable predicates become
:class:`IndexScanOp` (the optimizer's index-selection step, slide 78-82) and
the storage-view/column decisions are recorded for EXPLAIN output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.query import ast
from repro.query.unparse import unparse_expr

__all__ = [
    "IndexScanOp",
    "HashJoinOp",
    "SemiJoinOp",
    "AntiJoinOp",
    "LookupJoinOp",
    "MaterializeOp",
    "render_plan",
    "analyzed_op_stats",
    "render_analyzed_plan",
]

#: EXPLAIN's expression printer: MMQL text, a subquery as ``(subquery)``.
_text = partial(unparse_expr, explain=True)


@dataclass
class IndexScanOp(ast.Operation):
    """``FOR var IN collection FILTER var.path == value`` rewritten to probe
    a secondary index.

    ``residual`` is any remaining filter condition; ``original_condition``
    is the full original predicate, re-applied over a plain scan when the
    index cannot answer: inside a transaction (the index holds committed
    state, not the snapshot's) and for a NULL probe value (the index holds
    no NULL keys, yet ``attr == NULL`` matches NULL and missing attributes).

    Probes are made once per distinct value per batch; ``per_frame`` keeps
    them frame by frame in a statement that writes, where a write landing
    between two probes of one batch is observable.
    """

    var: str
    source_name: str
    path: tuple
    value: ast.Expr
    index_name: str
    index_kind: str
    residual: Optional[ast.Expr] = None
    original_condition: Optional[ast.Expr] = None
    per_frame: bool = False


@dataclass
class HashJoinOp(ast.Operation):
    """``FOR var IN collection FILTER var.path == probe`` inside an outer
    loop, rewritten into a hash join.

    The executor materializes the named collection once into a hash table
    keyed on ``build_path`` (the *build* side), then probes it with the
    per-frame value of ``probe`` — turning a correlated rescan (quadratic)
    into one build plus O(1) probes (linear).  Equality follows the data
    model's ``==`` (``compare() == 0``), so ``null == null`` matches and
    ``1 == 1.0``, exactly as the nested-loop filter would.

    ``residual`` holds any remaining filter conjuncts, applied after the
    join with the inner variable bound; ``original_condition`` preserves
    the full predicate for EXPLAIN and the rewrite-off differential tests.
    """

    var: str
    source_name: str
    build_path: tuple
    probe: ast.Expr
    residual: Optional[ast.Expr] = None
    original_condition: Optional[ast.Expr] = None


@dataclass
class SemiJoinOp(ast.Operation):
    """An existence-tested correlated subquery (``FILTER LENGTH((FOR x IN
    coll FILTER x.path == probe … RETURN e)) > 0``) rewritten into a hash
    semi join by the ``decorrelate_subquery`` rule.

    The executor builds a hash table over ``source_name`` keyed on
    ``build_path`` once (lazily), then per outer frame passes the frame
    **unchanged** iff some build row matches ``probe`` (confirmed with
    ``compare() == 0``, so hash collisions and the model's ``1 == 1.0`` /
    ``null == null`` semantics behave exactly like the subquery filter
    did) and satisfies ``residual`` with ``var`` bound to the candidate.
    Nothing is bound downstream — only existence is observable, which is
    what makes the rewrite safe for any side-effect-free RETURN."""

    var: str
    source_name: str
    build_path: tuple
    probe: ast.Expr
    residual: Optional[ast.Expr] = None
    original_condition: Optional[ast.Expr] = None


@dataclass
class AntiJoinOp(SemiJoinOp):
    """The ``LENGTH(…) == 0`` twin of :class:`SemiJoinOp`: frames pass
    when **no** build row matches."""


@dataclass
class LookupJoinOp(ast.Operation):
    """A per-frame cross-model lookup rewritten by the ``lookup_join``
    rule into a set-at-a-time join: for each batch the executor evaluates
    ``key`` per frame, probes once per distinct key and scatters the
    results back in frame order.

    ``kind`` names the probe:

    * ``"DOCUMENT"`` / ``"KV_GET"`` — ``LET var = DOCUMENT('source', key)``
      / ``LET var = KV_GET('source', key)``, one value bound per frame;
    * ``"HOP"`` — ``FOR var IN 1..1 <direction> key GRAPH source
      [LABEL label]`` without an edge variable, one frame per neighbour
      (the start itself excluded, as the depth-1 traversal excludes it).
    """

    var: str
    kind: str
    source: str
    key: ast.Expr
    direction: Optional[str] = None
    label: Optional[str] = None

    @property
    def fans_out(self) -> bool:
        """True when the lookup emits a frame per match (the traversal
        form), not one per input frame."""
        return self.kind == "HOP"


@dataclass
class MaterializeOp(ast.Operation):
    """``LET var = (uncorrelated subquery)`` rewritten by the
    ``materialize_let`` rule: the executor runs ``query`` once per
    top-level execution (keyed on the plan node in ``ctx.materialized``)
    and binds the shared row list into every frame, instead of
    re-executing the subquery for each outer row."""

    var: str
    query: ast.Query


def _operation_lines(operation: ast.Operation, indent: int) -> list[str]:
    """The operation's own line(s), then the plan of each query nested
    in it — what a ``(subquery)`` in the text above stands for — indented
    under it."""
    # visit needs the node classes above to build its table.
    from repro.query.visit import nested_queries

    lines = _own_lines(operation, indent)
    nested = nested_queries(operation)
    for number, query in enumerate(nested, start=1):
        label = f"Subquery #{number}:" if len(nested) > 1 else "Subquery:"
        lines.append(f"{'  ' * (indent + 1)}{label}")
        lines.extend(_plan_lines(query, indent + 2))
    return lines


def operation_label(operation: ast.Operation) -> str:
    """The operation's EXPLAIN line, unindented."""
    return _own_lines(operation, 0)[0]


def _own_lines(operation: ast.Operation, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(operation, IndexScanOp):
        lines = [
            f"{pad}IndexScan {operation.var} IN {operation.source_name} "
            f"USING {operation.index_kind} index {operation.index_name!r} "
            f"ON {'.'.join(operation.path)} == {_text(operation.value)}"
        ]
        if operation.residual is not None:
            lines.append(f"{pad}  Residual: {_text(operation.residual)}")
        return lines
    if isinstance(operation, HashJoinOp):
        lines = [
            f"{pad}HashJoin {operation.var} IN {operation.source_name} "
            f"ON {'.'.join(operation.build_path)} == "
            f"{_text(operation.probe)} "
            f"(build: hash table over {operation.source_name})"
        ]
        if operation.residual is not None:
            lines.append(f"{pad}  Residual: {_text(operation.residual)}")
        return lines
    if isinstance(operation, AntiJoinOp) or isinstance(operation, SemiJoinOp):
        word = "AntiJoin" if isinstance(operation, AntiJoinOp) else "SemiJoin"
        lines = [
            f"{pad}{word} EXISTS({operation.var} IN {operation.source_name}) "
            f"ON {'.'.join(operation.build_path)} == "
            f"{_text(operation.probe)} "
            f"(build: hash table over {operation.source_name})"
        ]
        if operation.residual is not None:
            lines.append(f"{pad}  Residual: {_text(operation.residual)}")
        return lines
    if isinstance(operation, LookupJoinOp):
        once = "one probe per distinct key per batch"
        if operation.fans_out:
            label = f" LABEL {operation.label!r}" if operation.label else ""
            return [
                f"{pad}LookupJoin {operation.var} IN 1..1 "
                f"{operation.direction.upper()} {_text(operation.key)} "
                f"GRAPH {operation.source}{label} (adjacency, {once})"
            ]
        return [
            f"{pad}LookupJoin {operation.var} = {operation.kind}"
            f"({operation.source!r}, {_text(operation.key)}) ({once})"
        ]
    if isinstance(operation, MaterializeOp):
        return [
            f"{pad}Materialize {operation.var} = (subquery) "
            f"(computed once, shared across frames)"
        ]
    if isinstance(operation, ast.ForOp):
        return [f"{pad}Scan {operation.var} IN {_text(operation.source)}"]
    if isinstance(operation, ast.TraversalOp):
        label = f" LABEL {operation.label!r}" if operation.label else ""
        return [
            f"{pad}Traverse {operation.var} IN "
            f"{operation.min_depth}..{operation.max_depth} "
            f"{operation.direction.upper()} {_text(operation.start)} "
            f"GRAPH {operation.graph}{label} (edge index)"
        ]
    if isinstance(operation, ast.ShortestPathOp):
        return [
            f"{pad}ShortestPath {operation.var} "
            f"{operation.direction.upper()} {_text(operation.start)} "
            f"TO {_text(operation.goal)} GRAPH {operation.graph}"
        ]
    if isinstance(operation, ast.FilterOp):
        return [f"{pad}Filter {_text(operation.condition)}"]
    if isinstance(operation, ast.LetOp):
        return [f"{pad}Let {operation.var} = {_text(operation.value)}"]
    if isinstance(operation, ast.SortOp):
        keys = ", ".join(
            f"{_text(key.expr)} {'ASC' if key.ascending else 'DESC'}"
            for key in operation.keys
        )
        return [f"{pad}Sort {keys}"]
    if isinstance(operation, ast.LimitOp):
        return [f"{pad}Limit offset={operation.offset} count={operation.count}"]
    if isinstance(operation, ast.CollectOp):
        groups = ", ".join(f"{name} = {_text(expr)}" for name, expr in operation.groups)
        extras = []
        if operation.aggregates:
            extras.append("AGGREGATE " + ", ".join(
                f"{name} = {func}({_text(arg)})"
                for name, func, arg in operation.aggregates
            ))
        if operation.count_into:
            extras.append(f"WITH COUNT INTO {operation.count_into}")
        if operation.into:
            extras.append(f"INTO {operation.into}")
        return [f"{pad}Collect {groups} {' '.join(extras)}".rstrip()]
    if isinstance(operation, ast.ReturnOp):
        distinct = "DISTINCT " if operation.distinct else ""
        return [f"{pad}Return {distinct}{_text(operation.expr)}"]
    if isinstance(operation, ast.InsertOp):
        return [f"{pad}Insert {_text(operation.document)} INTO {operation.target}"]
    if isinstance(operation, ast.UpdateOp):
        return [
            f"{pad}Update {_text(operation.key)} WITH "
            f"{_text(operation.changes)} IN {operation.target}"
        ]
    if isinstance(operation, ast.RemoveOp):
        return [f"{pad}Remove {_text(operation.key)} IN {operation.target}"]
    if isinstance(operation, ast.ReplaceOp):
        return [
            f"{pad}Replace {_text(operation.key)} WITH "
            f"{_text(operation.document)} IN {operation.target}"
        ]
    if isinstance(operation, ast.UpsertOp):
        return [
            f"{pad}Upsert {_text(operation.search)} INSERT "
            f"{_text(operation.insert_doc)} UPDATE "
            f"{_text(operation.update_patch)} INTO {operation.target}"
        ]
    return [f"{pad}{type(operation).__name__}"]


def render_plan(query: ast.Query) -> str:
    """Human-readable plan, one operation per line, pipeline order;
    nested queries are rendered under the operation that owns them."""
    return "\n".join(_plan_lines(query, 0))


def _plan_lines(query: ast.Query, indent: int) -> list[str]:
    lines = []
    for depth, operation in enumerate(query.operations, start=indent):
        lines.extend(_operation_lines(operation, depth))
    return lines


def analyzed_op_stats(probes: list) -> list[dict]:
    """Per-operator measurements from EXPLAIN ANALYZE probes.

    Probe timing is cumulative (each operator's clock includes its
    upstream, because upstream rows are pulled from inside downstream
    ``next()`` calls); self-time is the difference between neighbours,
    clipped at zero. ``rows_in`` of operator *k* is ``rows_out`` of
    operator *k-1* — the pipeline starts from one seed frame.
    """
    stats = []
    previous_rows = 1
    previous_seconds = 0.0
    for probe in probes:
        operation = probe.operation
        label = operation_label(operation)
        entry = {
            "operator": type(operation).__name__,
            "label": label,
            "rows_in": previous_rows,
            "rows_out": probe.rows_out,
            "batches_out": getattr(probe, "batches_out", 0),
            "columnar_batches": getattr(probe, "columnar_batches", 0),
            "seconds": probe.seconds,
            "self_seconds": max(0.0, probe.seconds - previous_seconds),
        }
        estimated = getattr(operation, "_est_rows", None)
        if estimated is not None:
            # Smoothed Q-error: max of over-/under-estimation factor,
            # +1 on both sides so empty results stay finite.
            entry["est_rows"] = estimated
            entry["q_error"] = max(
                (estimated + 1) / (probe.rows_out + 1),
                (probe.rows_out + 1) / (estimated + 1),
            )
        stats.append(entry)
        previous_rows = probe.rows_out
        previous_seconds = max(previous_seconds, probe.seconds)
    return stats


def render_analyzed_plan(
    query: ast.Query,
    probes: list,
    total_seconds: float,
    query_stats: Optional[dict] = None,
) -> str:
    """The physical plan annotated with actual rows and wall-time per
    operator (EXPLAIN ANALYZE output).

    Operators that emitted columnar batches are flagged ``columnar=yes``;
    when the execution touched the segment store at all, a ``Columnar:``
    summary line reports segments scanned, segments pruned by zone maps,
    and rows that went through vectorized kernels."""
    stats = analyzed_op_stats(probes)
    lines = []
    for indent, (operation, entry) in enumerate(zip(query.operations, stats)):
        op_lines = _operation_lines(operation, indent)
        columnar = " columnar=yes" if entry["columnar_batches"] else ""
        estimate = ""
        if "est_rows" in entry:
            estimate = (
                f" est={entry['est_rows']} q_error={entry['q_error']:.2f}"
            )
        op_lines[0] += (
            f"  [rows in={entry['rows_in']} out={entry['rows_out']}"
            f"{estimate} "
            f"batches={entry['batches_out']}{columnar} "
            f"self={entry['self_seconds'] * 1000:.3f} ms "
            f"cum={entry['seconds'] * 1000:.3f} ms]"
        )
        lines.extend(op_lines)
    if query_stats is not None and (
        query_stats.get("segments_scanned")
        or query_stats.get("segments_pruned")
        or query_stats.get("columnar_kernel_rows")
    ):
        lines.append(
            f"Columnar: segments_scanned={query_stats['segments_scanned']} "
            f"segments_pruned={query_stats['segments_pruned']} "
            f"kernel_rows={query_stats['columnar_kernel_rows']}"
        )
    lines.append(f"Execution time: {total_seconds * 1000:.3f} ms")
    return "\n".join(lines)
