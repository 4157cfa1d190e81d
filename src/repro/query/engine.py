"""MMQL front door: parse → optimize → execute (and EXPLAIN / ANALYZE).

One planning path: :func:`plan_statement` takes a statement from text to
plan and :class:`ExecContext`; :func:`run_query` executes that eagerly,
:func:`open_query_cursor` streams it, and nothing else differs between
them.

Every query, eager or streamed, is observable end to end:

* spans ``query`` → ``query.parse`` / ``query.optimize`` / ``query.execute``
  (visible with ``repro.obs.tracing`` enabled, e.g. the shell's ``.trace on``),
* registry metrics ``queries_total``, ``query_seconds``,
  ``query_phase_seconds{phase=…}``, ``query_rows_returned_total``,
  ``query_errors_total``, ``plan_cache_{hits,misses,evictions}_total``,
* a slow-query log (``repro.obs.slowlog``) when a threshold is set,
* ``EXPLAIN ANALYZE <query>`` (or ``run_query(…, analyze=True)``) executes
  the query with per-operator probes and attaches the annotated physical
  plan to the result (``Result.analyzed`` / ``Result.op_stats``).

The **plan cache** (:class:`PlanCache`) removes parse+optimize from the hot
path.  Plans are keyed on the statement's *shape*
(:mod:`repro.query.shapes`): its token stream with every value literal
lifted into a hidden bind parameter, plus the names and model types of the
bind parameters, hidden ones included.  Plans never embed bind *values*,
so ``FILTER c.id == 7`` and ``FILTER c.id == 8`` share one plan, each call
passing its own literal as the hidden bind's value.  Entries are validated
against the database's catalog and index DDL versions, so ``CREATE INDEX``
/ ``drop()`` invalidate exactly the plans they could change.  Cached plans
also carry their compiled expression closures (:mod:`repro.query.compile`),
so a warm query skips parsing, optimization *and* expression-tree
dispatch.  EXPLAIN and EXPLAIN ANALYZE plan the user's literal text.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Optional

from repro.core import datamodel
from repro.core.cursor import DEFAULT_BATCH_SIZE
from repro.errors import (
    PlanError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.obs import metrics, slowlog, tracing
from repro.query.executor import ExecContext, Result, execute, execute_stream
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.query.plan import render_analyzed_plan, render_plan
from repro.query import plan as plan_module
from repro.query import shapes
from repro.query.shapes import Statement, literal_statement, split_analyze

__all__ = [
    "PlanCache",
    "QueryCursor",
    "QueryGuardrails",
    "plan_statement",
    "run_query",
    "open_query_cursor",
    "explain_query",
]

# Every statement observes these: resolved once, not looked up by name and
# labels per call (``MetricsRegistry.reset`` keeps the handles valid).
_PHASE_SECONDS = {
    phase: metrics.histogram("query_phase_seconds", phase=phase)
    for phase in ("parse", "optimize", "execute")
}
_QUERY_SECONDS = metrics.histogram("query_seconds")
_QUERIES_TOTAL = metrics.counter("queries_total")
_ROWS_RETURNED_TOTAL = metrics.counter("query_rows_returned_total")
_CURSORS_TOTAL = metrics.counter("query_cursors_total")


# ---------------------------------------------------------------------------
# Guardrail defaults
# ---------------------------------------------------------------------------


class QueryGuardrails:
    """Database-level guardrail defaults, applied to every query that does
    not pass its own ``timeout``/``max_rows``.

    Both default to ``None`` (disabled): an unconfigured engine runs every
    query unbounded, exactly as before guardrails existed.  Set via
    ``db.guardrails.timeout = 2.0`` (seconds) and/or
    ``db.guardrails.max_rows = 100_000``; a per-call argument always wins
    over the default.

    ``max_batch_size`` is a *ceiling* on the vectorization width: a
    per-query ``batch_size`` request (or the database default) is clamped
    to it, bounding the executor's per-batch memory footprint.
    """

    __slots__ = ("timeout", "max_rows", "max_batch_size")

    def __init__(
        self,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_batch_size: Optional[int] = None,
    ):
        self.timeout = timeout
        self.max_rows = max_rows
        self.max_batch_size = max_batch_size

    def __repr__(self) -> str:
        return (
            f"QueryGuardrails(timeout={self.timeout!r}, "
            f"max_rows={self.max_rows!r}, "
            f"max_batch_size={self.max_batch_size!r})"
        )


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class PlanCache(shapes.StatementMemo):
    """LRU cache of parsed+optimized plans.

    * **Keying** — ``(statement, bind shape, optimized?, rule config)``.
      The bind shape is the sorted tuple of ``(name, model type tag)``
      pairs: the optimizer treats bind parameters as opaque constants, so
      two executions with different *values* (but the same names/types)
      share one plan, while adding or removing a parameter — which can
      change what parses or which index qualifies — gets its own entry.
      The statement is keyed on its shape (a
      :class:`~repro.query.shapes.StatementMemo`, which a plan cache is):
      the token stream with the value literals lifted into hidden binds,
      whose types join the bind shape.  EXPLAIN ANALYZE keys the literal
      text, which it plans.
    * **Invalidation** — every entry records the catalog and index DDL
      versions it was planned under; a lookup whose recorded versions no
      longer match the database's current versions is dropped and counted
      as a miss, so ``CREATE INDEX``/``DROP``/catalog DDL transparently
      invalidate affected plans.
    * **Sizing** — bounded LRU (default 128 entries); evictions are
      counted.  Plans are ASTs plus compiled closures: small, but
      unbounded statement diversity would otherwise grow without limit.
      A capacity of 0 caches nothing: every statement is planned from its
      literal text.

    Counters are mirrored into the observability registry under the
    cache's *name* (``<name>_hits_total`` / ``<name>_misses_total`` /
    ``<name>_evictions_total``: ``plan_cache_*`` for a database's cache,
    ``cluster_plan_cache_*`` for a cluster coordinator's, so the two never
    mix in one process) and kept locally so the shell's ``.plancache``
    works even with metrics disabled.

    * **Thread safety** — all mutation (LRU reordering on ``get``,
      insertion/eviction on ``put``, ``resize``/``clear``) happens under one
      lock: the server executes concurrent sessions on a thread pool, and an
      unguarded ``OrderedDict.move_to_end`` during an eviction sweep
      corrupts the linked list.  The lock is uncontended in embedded
      single-threaded use.
    """

    def __init__(self, capacity: int = 128, name: str = "plan_cache"):
        super().__init__(capacity)
        self._hits_total = metrics.counter(f"{name}_hits_total")
        self._misses_total = metrics.counter(f"{name}_misses_total")
        self._evictions_total = metrics.counter(f"{name}_evictions_total")
        self._entries: "OrderedDict[tuple, dict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def statement_key(
        statement: Statement,
        bind_vars: Optional[dict],
        optimized: bool,
        config: tuple = (),
    ) -> tuple:
        # A literal statement's text is its own, stripped: leading and
        # trailing whitespace never changes the plan (an EXPLAIN ANALYZE
        # prefix strip leaves one behind).  ``config`` is the
        # optimizer-rule fingerprint: the same text planned under
        # different rule toggles is a different plan.
        shape = statement.binds
        if bind_vars:
            shape = tuple(
                sorted(
                    (name, int(datamodel.type_of(value)))
                    for name, value in bind_vars.items()
                )
            ) + shape
        return (statement.text, shape, optimized, config)

    def get(self, key: tuple, versions: tuple) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry["versions"] != versions:
                # DDL happened since this plan was built: drop it.
                del self._entries[key]
                self.invalidations += 1
                entry = None
            if entry is None:
                self.misses += 1
                plan = None
            else:
                self._entries.move_to_end(key)
                entry["hits"] += 1
                self.hits += 1
                plan = entry["plan"]
        if metrics.ENABLED:
            (self._hits_total if plan is not None else self._misses_total).inc()
        return plan

    def put(
        self,
        key: tuple,
        plan: Any,
        versions: tuple,
        statement: Optional[str] = None,
    ) -> None:
        """*statement* is what :meth:`entries` lists for the entry (by
        default the key's text)."""
        evicted = 0
        with self._lock:
            self._entries[key] = {
                "plan": plan, "versions": versions, "hits": 0,
                "statement": statement or key[0],
            }
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted and metrics.ENABLED:
            self._evictions_total.inc(evicted)

    def peek(
        self, key: tuple, versions: tuple, any_binds: bool = False
    ) -> Optional[int]:
        """Prior hit count of the *live* entry under *key*, or None.  With
        *any_binds* the user's bind parameters are unknown: the most
        served live entry that differs from *key* in them alone.

        Read-only: EXPLAIN uses it to report cache state without touching
        LRU order or the hit/miss counters."""
        with self._lock:
            if not any_binds:
                entry = self._entries.get(key)
                if entry is None or entry["versions"] != versions:
                    return None
                return entry["hits"]
            best: Optional[int] = None
            for other, entry in self._entries.items():
                if (
                    other[0] == key[0]
                    and other[2:] == key[2:]
                    and _hidden_binds(other[1]) == key[1]
                    and entry["versions"] == versions
                ):
                    best = max(best or 0, entry["hits"])
            return best

    def resize(self, capacity: int) -> None:
        evicted = 0
        with self._lock:
            self.capacity = max(int(capacity), 0)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
            self._trim()
        if evicted and metrics.ENABLED:
            self._evictions_total.inc(evicted)

    def clear(self) -> None:
        with self._lock:
            for memo in (self._entries, self._shapes, self._skeletons, self._kinds):
                memo.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def entries(self) -> list[dict]:
        """Cached statements, least- to most-recently used (for
        ``.plancache``): a lifted literal shows as ``$1``, ``$2``, …, and
        ``bind_shape`` names the user's bind parameters only."""
        with self._lock:
            return [
                {
                    "query": entry["statement"],
                    "bind_shape": [
                        name for name, _tag in key[1] if not name[:1].isdigit()
                    ],
                    "optimized": key[2],
                    "hits": entry["hits"],
                }
                for key, entry in self._entries.items()
            ]

    def __len__(self) -> int:
        return len(self._entries)


def _hidden_binds(shape: tuple) -> tuple:
    """The lifted literals' part of a key's bind shape."""
    return tuple(bind for bind in shape if bind[0][:1].isdigit())


def _ddl_versions(db: Any) -> tuple:
    """(catalog version, index version, statistics version) — the
    plan-validity stamp.  The statistics version makes the cardinality
    feedback loop close: when EXPLAIN ANALYZE materially moves an
    estimate, plans built on the stale numbers stop validating and the
    next execution re-optimizes with the learned statistics."""
    catalog_version = getattr(db, "catalog_version", 0)
    context = getattr(db, "context", None)
    index_version = getattr(getattr(context, "indexes", None), "version", 0)
    stats_version = getattr(getattr(db, "statistics", None), "version", 0)
    return (catalog_version, index_version, stats_version)


def _plan_config(db: Any) -> tuple:
    """Optimizer-configuration component of the plan-cache key: the
    fingerprint of the database's rule toggles (disabled-rule names)."""
    toggles = getattr(db, "optimizer_rules", None)
    if toggles is None:
        return ()
    return toggles.fingerprint()


def _effective_batch_size(db: Any, batch_size: Optional[int]) -> int:
    """Resolve the vectorization width for one query: the per-query
    override, else the database default, clamped to the guardrail
    ceiling and never below 1."""
    if batch_size is None:
        batch_size = getattr(db, "batch_size", None) or DEFAULT_BATCH_SIZE
    batch_size = max(int(batch_size), 1)
    ceiling = getattr(getattr(db, "guardrails", None), "max_batch_size", None)
    if ceiling is not None:
        batch_size = min(batch_size, max(int(ceiling), 1))
    return batch_size


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def plan_statement(
    db: Any,
    text: str,
    bind_vars: Optional[dict] = None,
    txn: Any = None,
    optimize_query: bool = True,
    analyze: bool = False,
    timeout: Optional[float] = None,
    max_rows: Optional[int] = None,
    batch_size: Optional[int] = None,
    columnar: Optional[bool] = None,
) -> tuple:
    """Everything between a statement's text and its execution, for both
    entry points: guardrail defaults, the plan cache (shape, key, lookup,
    DDL-version validation, put), parse and optimize on a miss — timed,
    in ``query.parse``/``query.optimize`` spans, and observed in
    ``query_phase_seconds`` here, where planning happens — and the
    :class:`ExecContext` with every knob resolved, the statement's lifted
    literals merged into its bind parameters.

    An *analyze* run plans the literal text, so its plan, estimates and
    statistics feedback are those of the statement as written.

    Returns ``(query, ctx, phases, cache_key)``: the plan, its context,
    the planning seconds by phase (zeros on a cache hit) and the plan's
    cache key (None without a plan cache)."""
    perf_counter = time.perf_counter
    started = perf_counter()
    guardrails = getattr(db, "guardrails", None)
    if guardrails is not None:
        if timeout is None:
            timeout = guardrails.timeout
        if max_rows is None:
            max_rows = guardrails.max_rows
    cache: Optional[PlanCache] = getattr(db, "plan_cache", None)
    if cache is not None and not cache.capacity:
        cache = None
    statement = tokens = cache_key = versions = query = None
    if cache is not None:
        if analyze:
            statement = literal_statement(text)
        else:
            statement, tokens = cache.statement(text)
        config = _plan_config(db)
        cache_key = PlanCache.statement_key(
            statement, bind_vars, optimize_query, config
        )
        versions = _ddl_versions(db)
        query = cache.get(cache_key, versions)
    plan_cached = query is not None
    phases = {"parse": 0.0, "optimize": 0.0}
    if query is None:
        with tracing.span("query.parse"):
            phase_start = perf_counter()
            if statement is None:
                query = parse(text)
            else:
                tokens = cache.tokens(text, statement, tokens)
                query, parsed = cache.parse(text, statement, tokens)
                if parsed is not statement:
                    statement = parsed
                    cache_key = PlanCache.statement_key(
                        statement, bind_vars, optimize_query, config
                    )
            phases["parse"] = perf_counter() - phase_start
        if optimize_query:
            with tracing.span("query.optimize"):
                phase_start = perf_counter()
                query = optimize(query, db)
                phases["optimize"] = perf_counter() - phase_start
        if cache is not None:
            cache.put(
                cache_key, query, versions,
                statement.text if statement.literal else shapes.display(tokens),
            )
        if metrics.ENABLED:
            _PHASE_SECONDS["parse"].observe(phases["parse"])
            if optimize_query:
                _PHASE_SECONDS["optimize"].observe(phases["optimize"])
    if statement is not None and statement.values:
        bind_vars = (
            {**bind_vars, **statement.values} if bind_vars else statement.values
        )
    ctx = ExecContext(
        db=db,
        bind_vars=bind_vars or {},
        txn=txn,
        analyze=analyze,
        batch_size=_effective_batch_size(db, batch_size),
        columnar=(
            bool(getattr(db, "columnar", True))
            if columnar is None
            else bool(columnar)
        ),
    )
    if timeout is not None:
        ctx.timeout = float(timeout)
        ctx.deadline = started + ctx.timeout
    if max_rows is not None:
        ctx.max_rows = int(max_rows)
    ctx.stats["plan_cached"] = plan_cached
    return query, ctx, phases, cache_key


def _count_error(error: Exception) -> None:
    """A statement failed, while planning or while executing."""
    if metrics.ENABLED:
        metrics.counter("query_errors_total").inc()
        if isinstance(error, QueryTimeoutError):
            metrics.counter("query_timeouts_total").inc()
        elif isinstance(error, ResourceExhaustedError):
            metrics.counter("query_row_budget_exceeded_total").inc()


def _record_finished(text: str, elapsed: float, phases: dict, rows: int) -> None:
    """A statement ran to its end: an eager one when its rows are in, a
    stream when it drains or is closed."""
    if metrics.ENABLED:
        _QUERIES_TOTAL.inc()
        _QUERY_SECONDS.observe(elapsed)
        _PHASE_SECONDS["execute"].observe(phases["execute"])
        _ROWS_RETURNED_TOTAL.inc(rows)
    if slowlog.THRESHOLD is not None:
        slowlog.record(text, elapsed, rows=rows, phases=phases)


def run_query(
    db: Any,
    text: str,
    bind_vars: Optional[dict] = None,
    txn: Any = None,
    optimize_query: bool = True,
    analyze: bool = False,
    timeout: Optional[float] = None,
    max_rows: Optional[int] = None,
    batch_size: Optional[int] = None,
    columnar: Optional[bool] = None,
) -> Result:
    """Parse, optimize and execute an MMQL query against *db*.

    ``optimize_query=False`` executes the naive plan — the baseline the
    optimizer benchmark compares against.  ``analyze=True`` (or a leading
    ``EXPLAIN ANALYZE`` in *text*) additionally measures every pipeline
    operator and attaches the annotated plan to the result.

    ``batch_size`` overrides the vectorization width for this query
    (default: ``db.batch_size``, clamped to
    ``db.guardrails.max_batch_size``); results are identical at any
    width, only the amortization changes.

    ``columnar`` overrides the columnar-scan switch for this query
    (default: ``db.columnar``, which defaults to on).  Columnar scans
    serve registered relational/wide-column stores from typed column
    segments with zone-map pruning; results are identical either way.

    ``timeout`` (seconds) and ``max_rows`` are the query guardrails: when
    set, execution raises :class:`QueryTimeoutError` past the deadline or
    :class:`ResourceExhaustedError` past the row budget.  Both default to
    *db*-level defaults (``db.guardrails``) when present, and to *off*
    otherwise — an unconfigured engine pays nothing for them.

    When *db* carries a :class:`PlanCache` (``db.plan_cache``), the
    parse+optimize phases are skipped entirely on a cache hit; the result's
    ``stats["plan_cached"]`` records which path ran.
    """
    text, prefixed = split_analyze(text)
    analyze = analyze or prefixed
    perf_counter = time.perf_counter
    started = perf_counter()
    with tracing.span("query"):
        try:
            query, ctx, phases, cache_key = plan_statement(
                db, text, bind_vars, txn, optimize_query, analyze,
                timeout, max_rows, batch_size, columnar,
            )
            with tracing.span("query.execute") as execute_span:
                phase_start = perf_counter()
                result = execute(ctx, query)
                phases["execute"] = perf_counter() - phase_start
                if execute_span is not None:
                    execute_span.set(rows=len(result.rows))
        except Exception as error:
            _count_error(error)
            raise
    elapsed = perf_counter() - started
    _record_finished(text, elapsed, phases, len(result.rows))
    if analyze:
        statistics = getattr(db, "statistics", None)
        if statistics is not None:
            from repro.query.statistics import (
                annotate_estimates,
                record_feedback,
            )

            version_before = statistics.version
            record_feedback(statistics, ctx.probes)
            if statistics.version != version_before and cache_key is not None:
                # The feedback just invalidated every cached plan stamped
                # with the old statistics version — including this one.
                # Refresh *this* plan's estimates with the learned numbers
                # and re-stamp it, so the query that produced the feedback
                # immediately benefits instead of paying a re-plan.
                annotate_estimates(query, db)
                db.plan_cache.put(cache_key, query, _ddl_versions(db))
        result.op_stats = plan_module.analyzed_op_stats(ctx.probes)
        result.analyzed = render_analyzed_plan(
            query, ctx.probes, elapsed, ctx.stats
        )
        fired = getattr(query, "rules_fired", ())
        result.analyzed += "\nRules fired: " + (", ".join(fired) or "(none)")
        result.analyzed += (
            "\nPlan: served from plan cache"
            if ctx.stats["plan_cached"]
            else "\nPlan: parsed + optimized this call"
        )
    return result


class QueryCursor:
    """Lazy, batched handle over one running query.

    Rows are produced on demand through :meth:`next_batch` — the pipeline
    (and its store cursors) advances only as far as the consumer reads, so
    an abandoned cursor never materializes the full result.  Guardrail
    errors (timeout, row budget) surface from whichever ``next_batch``
    call crosses the limit.  The server's wire cursors
    (``query_open``/``cursor_next``) are thin shims over this class.

    A stream is one query to the metrics and the slow-query log, like an
    eager :func:`run_query`: it is recorded once, when the last batch is
    pulled or the cursor is closed, with the pipeline time summed over
    every pull (the consumer's think time between fetches is not the
    query's); an error from a pull is counted where it is raised and the
    failed stream is not recorded as finished.
    """

    __slots__ = ("text", "_ctx", "_batches", "_buffer", "_exhausted",
                 "_phases", "_recorded")

    def __init__(self, ctx: ExecContext, batches, text: str, phases: dict):
        self.text = text
        self._ctx = ctx
        self._batches = batches
        self._buffer: list = []
        self._exhausted = False
        #: Planning seconds from :func:`plan_statement`; ``execute``
        #: accumulates across every next_batch pull.
        self._phases = phases
        phases["execute"] = 0.0
        self._recorded = False

    @property
    def stats(self) -> dict:
        """Live execution statistics (``rows_returned`` advances as the
        cursor is consumed)."""
        return self._ctx.stats

    @property
    def exhausted(self) -> bool:
        return self._exhausted and not self._buffer

    def _pull(self, n: Optional[int]) -> None:
        """Advance the pipeline until *n* rows are buffered (None: to its
        end)."""
        pull_started = time.perf_counter()
        try:
            while not self._exhausted and (n is None or len(self._buffer) < n):
                try:
                    self._buffer.extend(next(self._batches))
                except StopIteration:
                    self._exhausted = True
        except Exception as error:
            _count_error(error)
            self._recorded = True  # a failed stream did not finish
            raise
        self._phases["execute"] += time.perf_counter() - pull_started

    def next_batch(self, n: int = DEFAULT_BATCH_SIZE) -> list:
        """Up to *n* result rows; ``[]`` once the query is exhausted."""
        n = max(int(n), 1)
        self._pull(n)
        if len(self._buffer) <= n:
            out, self._buffer = self._buffer, []
        else:
            out, self._buffer = self._buffer[:n], self._buffer[n:]
        if self._exhausted and not self._buffer:
            self._record()
        return out

    def materialize(self) -> None:
        """Run the query to its end now and keep the rows for the
        ``next_batch`` calls to come — for a caller whose snapshot may end
        before its reader does."""
        self._pull(None)

    def fetch_all(self) -> list:
        """Drain the cursor; returns every remaining row."""
        rows: list = []
        while True:
            batch = self.next_batch(DEFAULT_BATCH_SIZE)
            if not batch:
                return rows
            rows.extend(batch)

    def __iter__(self):
        while True:
            batch = self.next_batch(DEFAULT_BATCH_SIZE)
            if not batch:
                return
            yield from batch

    def _record(self) -> None:
        if self._recorded:
            return
        self._recorded = True
        _record_finished(
            self.text,
            sum(self._phases.values()),
            self._phases,
            self._ctx.stats.get("rows_returned", 0),
        )

    def close(self) -> None:
        """Stop the query: drop buffered rows and close the pipeline
        (source cursors release via their ``finally`` blocks)."""
        self._exhausted = True
        self._buffer = []
        self._record()
        close = getattr(self._batches, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "QueryCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_query_cursor(
    db: Any,
    text: str,
    bind_vars: Optional[dict] = None,
    txn: Any = None,
    optimize_query: bool = True,
    timeout: Optional[float] = None,
    max_rows: Optional[int] = None,
    batch_size: Optional[int] = None,
    columnar: Optional[bool] = None,
) -> QueryCursor:
    """Open a :class:`QueryCursor` over an MMQL query: the planning path
    of :func:`run_query` (:func:`plan_statement`), but execution is
    *lazy* — rows stream out through ``next_batch`` instead of
    materializing up front.

    EXPLAIN ANALYZE is eager by construction (probes are only meaningful
    over a completed run), so an analyze prefix is rejected here."""
    text, prefixed = split_analyze(text)
    if prefixed:
        raise PlanError(
            "EXPLAIN ANALYZE runs eagerly — use run_query()/db.query() "
            "instead of a cursor"
        )
    with tracing.span("query"):
        try:
            query, ctx, phases, _cache_key = plan_statement(
                db, text, bind_vars, txn, optimize_query,
                timeout=timeout, max_rows=max_rows,
                batch_size=batch_size, columnar=columnar,
            )
        except Exception as error:
            _count_error(error)
            raise
    if metrics.ENABLED:
        _CURSORS_TOTAL.inc()
    return QueryCursor(ctx, execute_stream(ctx, query), text, phases)


def explain_query(db: Any, text: str, bind_vars: Optional[dict] = None) -> str:
    """The optimized physical plan of the literal text (bind vars affect
    index choice only through constancy, so they are optional).

    When the database has a plan cache, the first line reports whether
    the plan the next ``db.query(text, bind_vars)`` would be served is
    cached (and how often it has been served) — without perturbing the
    cache.  Without *bind_vars*, any bind shape of the statement counts."""
    text, analyze = split_analyze(text)
    if analyze:
        raise PlanError(
            "EXPLAIN ANALYZE executes the query — run it through "
            "run_query()/db.query() instead of explain()"
        )
    query = optimize(parse(text), db)
    rendered = render_plan(query)
    fired = getattr(query, "rules_fired", ())
    rendered += "\nRules fired: " + (", ".join(fired) or "(none)")
    cache: Optional[PlanCache] = getattr(db, "plan_cache", None)
    if cache is not None:
        hits = None
        if cache.capacity:
            key = PlanCache.statement_key(
                cache.statement(text, remember=False)[0], bind_vars, True,
                _plan_config(db),
            )
            hits = cache.peek(key, _ddl_versions(db), any_binds=not bind_vars)
        if hits is None:
            header = "-- plan: not cached"
        else:
            header = f"-- plan: cached (served {hits} time{'s' if hits != 1 else ''})"
        rendered = f"{header}\n{rendered}"
    return rendered
