"""Catalog statistics + the cardinality-feedback loop.

Two layers:

* **Live structural statistics** — :func:`collection_cardinality` /
  :func:`index_selectivity` read row-view counts and index distinct
  counts directly; always current, zero maintenance.  Index selection's
  cost-based choice runs on these.
* **Observed feedback** — :class:`StatisticsStore` (``db.statistics``,
  created next to the plan cache) accumulates what EXPLAIN ANALYZE
  actually measured: per-source scan cardinalities and per-predicate
  output/input row ratios, keyed by a predicate *fingerprint* (the
  unparsed condition text, so the same shape recurs across executions).
  :func:`annotate_estimates` stamps each plan operator with an expected
  row count (``op._est_rows``) preferring observed feedback over the
  structural defaults; EXPLAIN ANALYZE then reports the **Q-error**
  (max over/under-estimation factor) per operator.

The store carries a monotone ``version`` that bumps whenever an estimate
changes materially (a new key, or a factor-of-two move).  The plan-cache
validity stamp includes it, so improved estimates invalidate exactly the
cached plans that were built on stale numbers — the feedback is consulted
on the next optimization of the same shape.

``save``/``load`` persist the store as JSON next to whatever the
deployment persists (the WAL directory, typically), so a restarted engine
plans with yesterday's observations instead of cold defaults.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Optional

from repro.query import ast
from repro.query.plan import (
    AntiJoinOp,
    HashJoinOp,
    IndexScanOp,
    LookupJoinOp,
    SemiJoinOp,
)

__all__ = [
    "collection_cardinality",
    "index_selectivity",
    "estimate_probe_cost",
    "StatisticsStore",
    "predicate_fingerprint",
    "annotate_estimates",
    "record_feedback",
]


def collection_cardinality(db, source_name: str) -> int:
    """Current record count of a catalog object."""
    store = db.resolve(source_name)
    namespace = getattr(store, "namespace", None)
    if namespace is None:
        return 0
    return db.context.rows.count(namespace)


def index_selectivity(index_view) -> float:
    """Expected fraction of rows matched by one equality probe
    (1/distinct-keys; 1.0 when the index is empty — i.e. useless)."""
    distinct = len(index_view.index)
    if distinct <= 0:
        return 1.0
    return 1.0 / distinct


def estimate_probe_cost(db, source_name: str, index_view) -> float:
    """Estimated rows fetched per probe: cardinality × selectivity."""
    cardinality = collection_cardinality(db, source_name)
    return cardinality * index_selectivity(index_view)


# ---------------------------------------------------------------------------
# Observed feedback
# ---------------------------------------------------------------------------


class StatisticsStore:
    """EWMA estimates learned from EXPLAIN ANALYZE runs.

    ``cardinality(source)`` → observed full-scan output rows;
    ``ratio(fingerprint)`` → observed rows-out per row-in of a predicate
    (a FILTER's selectivity, an index scan's matches-per-probe, a
    semi-join's pass fraction — all the same measure).

    ``version`` bumps on a new key or a material (≥2x) estimate move, and
    participates in the plan-cache validity stamp: plans built on
    estimates that later proved badly wrong get re-optimized."""

    def __init__(self, alpha: float = 0.5):
        #: EWMA smoothing weight of the newest observation.
        self.alpha = float(alpha)
        self.version = 0
        self._cardinality: dict[str, float] = {}
        self._ratio: dict[str, float] = {}
        self._lock = threading.Lock()

    # -- observations ----------------------------------------------------

    def observe_cardinality(self, source: str, rows: float) -> None:
        self._observe(self._cardinality, source, float(rows))

    def observe_ratio(
        self, fingerprint: str, rows_in: float, rows_out: float
    ) -> None:
        if rows_in <= 0:
            return
        self._observe(self._ratio, fingerprint, rows_out / rows_in)

    def _observe(self, table: dict, key: str, value: float) -> None:
        with self._lock:
            old = table.get(key)
            if old is None:
                table[key] = value
                self.version += 1
                return
            new = old + self.alpha * (value - old)
            table[key] = new
            # Bounded invalidation: only a material move (factor >= 2,
            # +1-smoothed so zero estimates stay finite) re-stamps plans.
            if (max(new, old) + 1.0) >= 2.0 * (min(new, old) + 1.0):
                self.version += 1

    # -- estimates -------------------------------------------------------

    def cardinality(self, source: str) -> Optional[float]:
        with self._lock:
            return self._cardinality.get(source)

    def ratio(self, fingerprint: str) -> Optional[float]:
        with self._lock:
            return self._ratio.get(fingerprint)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "version": self.version,
                "cardinality": dict(self._cardinality),
                "ratio": dict(self._ratio),
            }

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Persist the learned estimates as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)

    def load(self, path) -> None:
        """Merge estimates persisted by :meth:`save` (loaded values seed
        missing keys and EWMA-fold into existing ones)."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for source, rows in (payload.get("cardinality") or {}).items():
            self.observe_cardinality(source, rows)
        for fingerprint, ratio in (payload.get("ratio") or {}).items():
            self._observe(self._ratio, fingerprint, float(ratio))

    def __repr__(self) -> str:
        return (
            f"StatisticsStore(version={self.version}, "
            f"sources={len(self._cardinality)}, "
            f"predicates={len(self._ratio)})"
        )


def predicate_fingerprint(expr: ast.Expr, scope: str = "") -> Optional[str]:
    """Stable text key for a predicate shape (the unparsed condition,
    optionally scoped by a source name so identical predicate text over
    different collections stays distinct).  None when the expression
    cannot round-trip: a condition holding a subquery whose plan has
    physical operators has no text, and gets no learned selectivity."""
    from repro.query.unparse import unparse_expr

    try:
        rendered = unparse_expr(expr)
    except TypeError:
        return None
    return f"{scope}|{rendered}" if scope else rendered


# ---------------------------------------------------------------------------
# Plan annotation (optimizer output → expected rows per operator)
# ---------------------------------------------------------------------------

#: Fallbacks when neither feedback nor live structures can answer.
_DEFAULT_SOURCE_ROWS = 10.0
_DEFAULT_FILTER_SELECTIVITY = 1.0 / 3.0
_DEFAULT_EXISTS_SELECTIVITY = 0.5
_DEFAULT_JOIN_MATCHES = 1.0
_DEFAULT_TRAVERSAL_FANOUT = 5.0


def _source_rows(db, stats: Optional[StatisticsStore], name: str) -> float:
    if stats is not None:
        observed = stats.cardinality(name)
        if observed is not None:
            return observed
    try:
        return float(collection_cardinality(db, name))
    except Exception:
        return _DEFAULT_SOURCE_ROWS


def annotate_estimates(query: ast.Query, db) -> None:
    """Stamp every top-level operator with its estimated output rows
    (``op._est_rows``), threading the running estimate through the
    pipeline exactly as :func:`repro.query.plan.analyzed_op_stats`
    threads actual rows — so EXPLAIN ANALYZE can zip them into Q-errors."""
    stats: Optional[StatisticsStore] = getattr(db, "statistics", None)
    # Nothing learned yet: no fingerprint (an unparse) can find a ratio.
    ratios = stats if stats is not None and stats._ratio else None
    rows = 1.0
    for operation in query.operations:
        if isinstance(operation, ast.ForOp):
            if isinstance(operation.source, ast.VarRef):
                rows *= _source_rows(db, stats, operation.source.name)
            else:
                rows *= _DEFAULT_SOURCE_ROWS
        elif isinstance(operation, IndexScanOp):
            ratio = None
            if ratios is not None and operation.original_condition is not None:
                ratio = ratios.ratio(
                    predicate_fingerprint(
                        operation.original_condition, operation.source_name
                    )
                    or ""
                )
            if ratio is None and operation.index_kind == "primary":
                ratio = 1.0  # a key names at most one record
            if ratio is None:
                try:
                    index_view = db.context.indexes.get(operation.index_name)
                    ratio = max(
                        estimate_probe_cost(
                            db, operation.source_name, index_view
                        ),
                        1.0,
                    )
                except Exception:
                    ratio = _DEFAULT_JOIN_MATCHES
            rows *= ratio
        elif isinstance(operation, HashJoinOp):
            ratio = None
            if ratios is not None and operation.original_condition is not None:
                ratio = ratios.ratio(
                    predicate_fingerprint(
                        operation.original_condition, operation.source_name
                    )
                    or ""
                )
            rows *= ratio if ratio is not None else _DEFAULT_JOIN_MATCHES
        elif isinstance(operation, SemiJoinOp):  # covers AntiJoinOp
            ratio = None
            if ratios is not None and operation.original_condition is not None:
                ratio = ratios.ratio(
                    predicate_fingerprint(
                        operation.original_condition, operation.source_name
                    )
                    or ""
                )
            rows *= ratio if ratio is not None else _DEFAULT_EXISTS_SELECTIVITY
        elif isinstance(operation, ast.FilterOp):
            ratio = None
            if ratios is not None:
                fingerprint = predicate_fingerprint(operation.condition)
                if fingerprint is not None:
                    ratio = ratios.ratio(fingerprint)
            rows *= ratio if ratio is not None else _DEFAULT_FILTER_SELECTIVITY
        elif isinstance(operation, (ast.TraversalOp, ast.ShortestPathOp)) or (
            type(operation) is LookupJoinOp and operation.fans_out
        ):
            rows *= _DEFAULT_TRAVERSAL_FANOUT
        elif isinstance(operation, ast.LimitOp):
            rows = float(min(rows, operation.count))
        elif isinstance(operation, ast.CollectOp):
            # Classic square-root guess for group counts.
            rows = max(1.0, rows ** 0.5)
        # LET / Materialize / Sort / Return / DML keep the row count.
        operation._est_rows = int(round(rows))


# ---------------------------------------------------------------------------
# Feedback recording (EXPLAIN ANALYZE actuals → the store)
# ---------------------------------------------------------------------------


def record_feedback(store: StatisticsStore, probes: list) -> None:
    """Fold one EXPLAIN ANALYZE run's per-operator actuals back into the
    statistics store.  Scan cardinality is only trusted from *unpruned*
    single-pass scans (a zone-map-pruned scan under-reports the source);
    predicate ratios are recorded for filters, index probes and the
    decorrelated joins alike."""
    previous_rows = 1
    for probe in probes:
        operation = probe.operation
        rows_out = probe.rows_out
        if isinstance(operation, ast.ForOp):
            if (
                previous_rows == 1
                and isinstance(operation.source, ast.VarRef)
                and not getattr(operation, "_zone_conditions", ())
            ):
                store.observe_cardinality(operation.source.name, rows_out)
        elif isinstance(operation, ast.FilterOp):
            fingerprint = predicate_fingerprint(operation.condition)
            if fingerprint is not None:
                store.observe_ratio(fingerprint, previous_rows, rows_out)
        elif isinstance(
            operation, (IndexScanOp, HashJoinOp, SemiJoinOp, AntiJoinOp)
        ):
            if operation.original_condition is not None:
                fingerprint = predicate_fingerprint(
                    operation.original_condition, operation.source_name
                )
                if fingerprint is not None:
                    store.observe_ratio(fingerprint, previous_rows, rows_out)
        previous_rows = rows_out
