"""The :class:`MultiModelDB` facade — "one unified database for multi-model
data" (slide 10).

One instance owns the single integrated backend (central log, views,
transactions, indexes) and a catalog of model objects:

* relational **tables** (:class:`repro.relational.Table`),
* document **collections** (:class:`repro.document.DocumentCollection`),
* key/value **buckets** (:class:`repro.keyvalue.KeyValueBucket`),
* property **graphs** (:class:`repro.graph.PropertyGraph`),
* XML/JSON **tree stores** (:class:`repro.xmlmodel.TreeStore`),
* RDF **triple stores** (:class:`repro.rdf.TripleStore`).

Cross-model queries are written in MMQL (:meth:`query` / :meth:`explain`);
cross-model transactions span any mix of the above (:meth:`transaction`);
durability comes from an attached WAL (:meth:`attach_wal`,
:meth:`recover`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterator, Optional

from repro.core.context import EngineContext
from repro.document.store import DocumentCollection
from repro.errors import DuplicateCollectionError, UnknownCollectionError
from repro.graph.store import PropertyGraph
from repro.keyvalue.store import KeyValueBucket
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import instrument_store
from repro.rdf.store import TripleStore
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.storage.wal import WriteAheadLog, replay_into
from repro.txn.manager import IsolationLevel, Transaction
from repro.xmlmodel.store import TreeStore

__all__ = ["MultiModelDB"]


class MultiModelDB:
    """An embedded multi-model database."""

    def __init__(
        self,
        plan_cache_size: int = 128,
        batch_size: int = 256,
        columnar: bool = True,
    ):
        from repro.query.engine import PlanCache, QueryGuardrails
        from repro.query.rules import RuleToggles, SuggestionLog
        from repro.query.statistics import StatisticsStore

        self.context = EngineContext()
        #: Default vectorization width for query execution (frames per
        #: pipeline batch); per-query ``batch_size`` overrides it and
        #: ``guardrails.max_batch_size`` caps both.
        self.batch_size = max(int(batch_size), 1)
        #: Default columnar-scan switch: relational/wide-column scans run
        #: over typed column segments with zone-map pruning when on;
        #: per-query ``columnar=`` overrides it.  Results are identical
        #: either way — this is purely a physical-plan choice.
        self.columnar = bool(columnar)
        self._catalog: dict[str, tuple[str, Any]] = {}
        #: Serializes catalog DDL (``_register``/``drop``) against lookups:
        #: the network server runs sessions on a thread pool, and a DDL
        #: racing a lookup must never observe a half-registered object or a
        #: stale version stamp.  Reads take it too — it is uncontended in
        #: embedded single-threaded use.
        self._catalog_lock = threading.RLock()
        self._wal: Optional[WriteAheadLog] = None
        #: Monotone counter bumped by catalog DDL; together with the index
        #: manager's ``version`` it stamps plan-cache entries so DDL
        #: invalidates exactly the plans it could change.
        self.catalog_version = 0
        self.plan_cache = PlanCache(plan_cache_size)
        #: Default query limits (timeout seconds / max result rows); both
        #: ``None`` — i.e. disabled — unless the deployment opts in.
        self.guardrails = QueryGuardrails()
        #: Observed cardinality feedback (EXPLAIN ANALYZE actuals); its
        #: ``version`` joins the plan-cache validity stamp.
        self.statistics = StatisticsStore()
        #: Per-database rewrite-rule switchboard; the disabled-set
        #: fingerprint joins the plan-cache key.
        self.optimizer_rules = RuleToggles()
        #: Near-miss index suggestions recorded by the rewrite rules
        #: (surfaced by the advisor and the shell's ``.advise``).
        self.index_suggestions = SuggestionLog()

    # ------------------------------------------------------------------ DDL --

    def _register(self, kind: str, name: str, store: Any) -> Any:
        with self._catalog_lock:
            if name in self._catalog:
                existing_kind, _ = self._catalog[name]
                raise DuplicateCollectionError(
                    f"{name!r} already exists (as a {existing_kind})"
                )
            # Every catalog object reports per-model op counts/latencies into
            # the metrics registry; the wrappers no-op when observability is
            # disabled, so registration-time wrapping is unconditional.
            instrument_store(kind, store)
            self._catalog[name] = (kind, store)
            self.catalog_version += 1
        return store

    def create_table(self, schema: TableSchema) -> Table:
        """Relational table from a :class:`TableSchema`."""
        return self._register("table", schema.name, Table(self.context, schema))

    def create_collection(self, name: str, **kwargs) -> DocumentCollection:
        """Document collection (``required_fields=…, closed=…`` optional)."""
        return self._register(
            "collection", name, DocumentCollection(self.context, name, **kwargs)
        )

    def create_bucket(self, name: str) -> KeyValueBucket:
        """Key/value bucket."""
        return self._register("bucket", name, KeyValueBucket(self.context, name))

    def create_graph(self, name: str) -> PropertyGraph:
        """Property graph."""
        return self._register("graph", name, PropertyGraph(self.context, name))

    def create_tree_store(self, name: str) -> TreeStore:
        """XML/JSON unified tree store."""
        return self._register("trees", name, TreeStore(self.context, name))

    def create_triple_store(self, name: str) -> TripleStore:
        """RDF triple store."""
        return self._register("triples", name, TripleStore(self.context, name))

    def create_object_store(self, name: str = "objects"):
        """Object model: classes with inheritance over Caché-style globals."""
        from repro.objectmodel.classes import ObjectStore

        return self._register("objects", name, ObjectStore(self.context, name))

    def create_wide_table(self, name: str, columns, primary_key: str):
        """Wide-column (CQL-style) table with UDT support."""
        from repro.widecolumn.table import WideColumnTable

        return self._register(
            "wide", name, WideColumnTable(self.context, name, columns, primary_key)
        )

    def create_spatial(self, name: str, rtree_fanout: int = 8):
        """Spatial store (R-tree indexed points/boxes)."""
        from repro.spatial.store import SpatialStore

        return self._register(
            "spatial", name, SpatialStore(self.context, name, rtree_fanout)
        )

    def drop(self, name: str) -> None:
        """Drop any catalog object and its data."""
        with self._catalog_lock:
            kind_store = self._catalog.pop(name, None)
            if kind_store is None:
                raise UnknownCollectionError(
                    f"nothing named {name!r} in the catalog"
                )
            self.catalog_version += 1
        kind_store[1].truncate()

    # -------------------------------------------------------------- catalog --

    def catalog(self) -> dict[str, str]:
        """{name: kind} for everything defined."""
        with self._catalog_lock:
            items = sorted(self._catalog.items())
        return {name: kind for name, (kind, _store) in items}

    def _get(self, name: str, kind: str) -> Any:
        with self._catalog_lock:
            entry = self._catalog.get(name)
        if entry is None:
            raise UnknownCollectionError(f"no {kind} named {name!r}")
        actual_kind, store = entry
        if actual_kind != kind:
            raise UnknownCollectionError(
                f"{name!r} is a {actual_kind}, not a {kind}"
            )
        return store

    def table(self, name: str) -> Table:
        return self._get(name, "table")

    def collection(self, name: str) -> DocumentCollection:
        return self._get(name, "collection")

    def bucket(self, name: str) -> KeyValueBucket:
        return self._get(name, "bucket")

    def graph(self, name: str) -> PropertyGraph:
        return self._get(name, "graph")

    def tree_store(self, name: str) -> TreeStore:
        return self._get(name, "trees")

    def triple_store(self, name: str) -> TripleStore:
        return self._get(name, "triples")

    def spatial(self, name: str):
        return self._get(name, "spatial")

    def wide_table(self, name: str):
        return self._get(name, "wide")

    def resolve(self, name: str) -> Any:
        """Any catalog object by name (used by the query engine)."""
        with self._catalog_lock:
            entry = self._catalog.get(name)
        if entry is None:
            raise UnknownCollectionError(f"nothing named {name!r} in the catalog")
        return entry[1]

    def kind_of(self, name: str) -> str:
        with self._catalog_lock:
            entry = self._catalog.get(name)
        if entry is None:
            raise UnknownCollectionError(f"nothing named {name!r} in the catalog")
        return entry[0]

    def stats(self) -> dict:
        """Engine-wide statistics: per-object record counts, index names,
        log length, and transaction counters."""
        objects = {}
        with self._catalog_lock:
            entries = sorted(self._catalog.items())
        for name, (kind, store) in entries:
            if kind == "graph":
                count = store.vertex_count() + store.edge_count()
            elif kind == "objects":
                count = sum(1 for _ in store.globals._raw_scan(None))
            elif hasattr(store, "count"):
                try:
                    count = store.count()
                except TypeError:
                    count = store.count_triples()
            else:
                count = 0
            objects[name] = {"kind": kind, "records": count}
        transactions = self.context.transactions
        return {
            "objects": objects,
            "indexes": self.context.indexes.names(),
            # The engine log keeps a bounded tail: entries retained, and
            # the LSN at and below which they are gone (last_lsn counts on).
            "log_entries": len(self.context.log),
            "log_floor_lsn": self.context.log.floor_lsn,
            "transactions": {
                "commits": transactions.commits,
                "aborts": transactions.aborts,
                "conflicts": transactions.conflicts,
                "active": transactions.active_count,
                "versions": transactions.version_count,
            },
        }

    def metrics(self) -> dict:
        """Snapshot of the engine-wide observability registry
        (:data:`repro.obs.metrics.REGISTRY`)."""
        return obs_metrics.REGISTRY.snapshot()

    # --------------------------------------------------------- transactions --

    def begin(
        self, isolation: IsolationLevel | str = IsolationLevel.SNAPSHOT
    ) -> Transaction:
        return self.context.transactions.begin(isolation)

    def commit(self, txn: Transaction) -> None:
        self.context.transactions.commit(txn)

    def abort(self, txn: Transaction) -> None:
        self.context.transactions.abort(txn)

    @contextlib.contextmanager
    def transaction(
        self, isolation: IsolationLevel | str = IsolationLevel.SNAPSHOT
    ) -> Iterator[Transaction]:
        """``with db.transaction() as txn: …`` — commit on success, abort on
        any exception (including serialization conflicts, which re-raise)."""
        txn = self.begin(isolation)
        try:
            yield txn
        except BaseException:
            if txn.is_active:
                self.abort(txn)
            raise
        if txn.is_active:
            self.commit(txn)

    # ------------------------------------------------------------------ MMQL --

    def query(
        self,
        text: str,
        bind_vars: Optional[dict] = None,
        txn: Optional[Transaction] = None,
        analyze: bool = False,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        batch_size: Optional[int] = None,
        columnar: Optional[bool] = None,
    ):
        """Run an MMQL query; returns a :class:`repro.query.executor.Result`.

        ``analyze=True`` — or a leading ``EXPLAIN ANALYZE`` in *text* —
        executes with per-operator probes and attaches the annotated plan
        (``result.analyzed`` / ``result.op_stats``).

        ``timeout`` (seconds) / ``max_rows`` bound this query's runtime and
        result size (:class:`repro.errors.QueryTimeoutError` /
        :class:`repro.errors.ResourceExhaustedError`); unset, they fall back
        to ``self.guardrails``, which is disabled by default.

        ``batch_size`` overrides the vectorization width for this query
        (default ``self.batch_size``); ``columnar`` overrides the
        columnar-scan switch (default ``self.columnar``); results are
        identical at any width and on either scan path."""
        from repro.query.engine import run_query

        return run_query(
            self,
            text,
            bind_vars or {},
            txn,
            analyze=analyze,
            timeout=timeout,
            max_rows=max_rows,
            batch_size=batch_size,
            columnar=columnar,
        )

    def query_cursor(
        self,
        text: str,
        bind_vars: Optional[dict] = None,
        txn: Optional[Transaction] = None,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        batch_size: Optional[int] = None,
        columnar: Optional[bool] = None,
    ):
        """Open a lazy :class:`repro.query.engine.QueryCursor` over an MMQL
        query: rows stream out through ``next_batch(n)``/iteration instead
        of materializing up front — the embedded twin of the server's
        ``query_open``/``cursor_next`` wire cursors."""
        from repro.query.engine import open_query_cursor

        return open_query_cursor(
            self,
            text,
            bind_vars or {},
            txn,
            timeout=timeout,
            max_rows=max_rows,
            batch_size=batch_size,
            columnar=columnar,
        )

    def explain(self, text: str, bind_vars: Optional[dict] = None) -> str:
        """The optimized plan as text, without executing."""
        from repro.query.engine import explain_query

        return explain_query(self, text, bind_vars or {})

    # ------------------------------------------------------------- durability --

    def attach_wal(self, path: str, sync: bool = True) -> WriteAheadLog:
        """Write every log unit to a WAL file first from now on."""
        self._wal = WriteAheadLog(path, sync=sync)
        self.context.log.write_ahead = self._wal.log_group
        return self._wal

    def recover(self, path: str) -> tuple[int, int]:
        """Replay a WAL into this (fresh) database; returns
        (redone, discarded).  Call before defining catalog objects writes."""
        return replay_into(path, self.context.log)

    def checkpoint(self, path: str) -> int:
        """Write a checkpoint of the committed state; returns the covered
        LSN (feed it to :func:`repro.storage.checkpoint.truncate_wal`)."""
        from repro.storage.checkpoint import write_checkpoint

        return write_checkpoint(
            path, self.context.rows, self.context.log, self.context.transactions
        )

    def recover_from_checkpoint(
        self, checkpoint_path: str, wal_path: str
    ) -> tuple[int, int]:
        """Checkpoint-accelerated recovery: load the checkpoint, then replay
        only the WAL tail; returns (checkpoint records, redone tail ops)."""
        from repro.storage.checkpoint import recover_from_checkpoint

        return recover_from_checkpoint(checkpoint_path, wal_path, self.context.log)

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "MultiModelDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
