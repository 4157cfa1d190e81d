"""The multi-model join index (challenge 4, slide 95).

"Inter-model indexes to speed up the inter-model query processing — a new
index structure for graph, document and relational joins."

The running example's recommendation query chains four models:

    customers (relational)  --knows-->  friends (graph)
        --cart-->  order_no (key/value)  -->  order documents (JSON)

A :class:`MultiModelJoinIndex` materializes such a chain as a sequence of
*hops*, precomputing source-key → terminal-keys so the cross-model join
becomes one probe instead of three nested lookups.  Hops:

* :class:`EdgeHop` — follow a graph edge collection (ArangoDB edge documents
  with ``_from``/``_to``), outbound or inbound;
* :class:`KvHop` — dereference a key/value bucket (key → stored value, used
  as the next hop's key);
* :class:`FieldLookupHop` — inverted lookup into a document collection
  (value → keys of documents whose ``field`` equals it);
* :class:`KeyHop` — direct primary-key identity into a collection.

Maintenance is *coarse-grained*: any committed change to a namespace the
chain touches marks the index stale, and the next probe rebuilds it.  That
is the standard materialized-view trade-off and is reported honestly by the
benchmark (E18 measures probe cost, rebuild cost, and the break-even write
rate).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Optional

from repro.storage.log import CentralLog, LogEntry
from repro.storage.views import RowView

__all__ = [
    "Hop",
    "EdgeHop",
    "KvHop",
    "FieldLookupHop",
    "KeyHop",
    "MultiModelJoinIndex",
]


class Hop:
    """One step of a cross-model chain; maps a set of keys to the next set."""

    #: namespace whose mutation invalidates this hop
    namespace = ""

    def expand(self, rows: RowView, keys: Iterable[Any]) -> set:
        raise NotImplementedError


class EdgeHop(Hop):
    """Graph hop: vertex keys → neighbour vertex keys along an edge
    collection (``direction`` is ``"outbound"``, ``"inbound"`` or ``"any"``)."""

    def __init__(self, namespace: str, direction: str = "outbound"):
        if direction not in ("outbound", "inbound", "any"):
            raise ValueError(f"bad edge direction {direction!r}")
        self.namespace = namespace
        self.direction = direction

    def expand(self, rows: RowView, keys: Iterable[Any]) -> set:
        wanted = set(keys)
        result = set()
        for _edge_key, edge in rows.scan(self.namespace):
            source = edge.get("_from")
            target = edge.get("_to")
            if self.direction in ("outbound", "any") and source in wanted:
                result.add(target)
            if self.direction in ("inbound", "any") and target in wanted:
                result.add(source)
        return result


class KvHop(Hop):
    """Key/value hop: keys → stored values."""

    def __init__(self, namespace: str):
        self.namespace = namespace

    def expand(self, rows: RowView, keys: Iterable[Any]) -> set:
        result = set()
        for key in keys:
            value = rows.get(self.namespace, key)
            if value is not None:
                record = value.get("value") if isinstance(value, dict) else value
                if isinstance(record, (str, int, float, bool)):
                    result.add(record)
        return result


class FieldLookupHop(Hop):
    """Document hop: values → keys of documents whose *field* matches."""

    def __init__(self, namespace: str, field: str):
        self.namespace = namespace
        self.field = field

    def expand(self, rows: RowView, keys: Iterable[Any]) -> set:
        wanted = set(keys)
        result = set()
        for doc_key, document in rows.scan(self.namespace):
            if isinstance(document, dict) and document.get(self.field) in wanted:
                result.add(doc_key)
        return result


class KeyHop(Hop):
    """Identity hop: keys that exist as primary keys of *namespace*."""

    def __init__(self, namespace: str):
        self.namespace = namespace

    def expand(self, rows: RowView, keys: Iterable[Any]) -> set:
        return {key for key in keys if rows.contains(self.namespace, key)}


class MultiModelJoinIndex:
    """Materialized source-key → terminal-keys map across model hops."""

    def __init__(
        self,
        log: CentralLog,
        rows: RowView,
        source_namespace: str,
        hops: list[Hop],
        name: str = "",
    ):
        if not hops:
            raise ValueError("a multi-model join index needs at least one hop")
        self.name = name or f"mmjoin:{source_namespace}"
        self._rows = rows
        self._source_namespace = source_namespace
        self._hops = list(hops)
        self._watched = {source_namespace} | {hop.namespace for hop in hops}
        self._mapping: dict[Any, frozenset] = {}
        self._stale = True
        self._rebuilds = 0
        for namespace in self._watched:
            log.subscribe(self._on_log_entry, namespace)

    # -- maintenance ---------------------------------------------------------

    def _on_log_entry(self, entry: LogEntry) -> None:
        if entry.is_data_op():
            self._stale = True

    def rebuild(self) -> None:
        """Recompute the full source → terminals mapping."""
        mapping: dict[Any, frozenset] = {}
        for source_key in self._rows.keys(self._source_namespace):
            keys: set = {source_key}
            for hop in self._hops:
                keys = hop.expand(self._rows, keys)
                if not keys:
                    break
            mapping[source_key] = frozenset(keys)
        self._mapping = mapping
        self._stale = False
        self._rebuilds += 1

    @property
    def is_stale(self) -> bool:
        return self._stale

    @property
    def rebuild_count(self) -> int:
        return self._rebuilds

    # -- probes --------------------------------------------------------------

    def lookup(self, source_key: Any) -> frozenset:
        """Terminal keys reachable from *source_key* (rebuilds when stale)."""
        if self._stale:
            self.rebuild()
        return self._mapping.get(source_key, frozenset())

    def lookup_many(self, source_keys: Iterable[Any]) -> set:
        if self._stale:
            self.rebuild()
        result: set = set()
        for key in source_keys:
            result |= self._mapping.get(key, frozenset())
        return result

    def __len__(self) -> int:
        if self._stale:
            self.rebuild()
        return len(self._mapping)
