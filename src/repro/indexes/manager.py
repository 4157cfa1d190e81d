"""Index manager: the catalog of secondary indexes.

Creates index structures of every kind in the taxonomy, wraps them in
log-maintained :class:`repro.storage.views.IndexView` objects, backfills them
from existing data, and answers the optimizer's access-path question: *is
there an index on this collection and path that can serve this predicate?*
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import DuplicateCollectionError, UnknownIndexError
from repro.indexes.base import Index
from repro.obs import metrics as obs_metrics
from repro.indexes.bitmap import BitmapIndex, BitSliceIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.fulltext import FullTextIndex
from repro.indexes.hashindex import ExtendibleHashIndex
from repro.indexes.inverted import GinJsonbOps, GinJsonbPathOps
from repro.storage.log import CentralLog
from repro.storage.views import IndexView, RowView

__all__ = ["IndexManager", "INDEX_KINDS"]

#: ``index_access_path_total{outcome}``: hit, then miss.
_ACCESS_PATH_HIT, _ACCESS_PATH_MISS = (
    obs_metrics.counter("index_access_path_total", outcome=outcome)
    for outcome in ("hit", "miss")
)

INDEX_KINDS = {
    "btree": BPlusTree,
    "hash": ExtendibleHashIndex,
    "gin": GinJsonbOps,
    "gin_path": GinJsonbPathOps,
    "bitmap": BitmapIndex,
    "bitslice": BitSliceIndex,
    "fulltext": FullTextIndex,
}


class IndexManager:
    """Registry of secondary indexes, keyed by name and by (namespace, path)."""

    def __init__(self, log: CentralLog, rows: RowView):
        self._log = log
        self._rows = rows
        self._by_name: dict[str, IndexView] = {}
        self._by_namespace: dict[str, list[IndexView]] = {}
        #: Monotone DDL counter — plan-cache entries are stamped with it,
        #: so creating or dropping an index invalidates cached plans whose
        #: access-path choice could change.
        self.version = 0

    # -- DDL ----------------------------------------------------------------

    def create_index(
        self,
        namespace: str,
        path: tuple = (),
        kind: str = "hash",
        unique: bool = False,
        name: Optional[str] = None,
    ) -> IndexView:
        """Create (and backfill) a secondary index.

        *path* is a tuple of field names into the record (empty = whole
        record, which is what the GIN kinds usually want).
        """
        if kind not in INDEX_KINDS:
            raise UnknownIndexError(
                f"unknown index kind {kind!r}; choose from {sorted(INDEX_KINDS)}"
            )
        path = tuple(path)
        index_name = name or f"{kind}:{namespace}:{'.'.join(path) or '*'}"
        if index_name in self._by_name:
            raise DuplicateCollectionError(f"index {index_name!r} already exists")
        factory = INDEX_KINDS[kind]
        if kind in ("btree", "hash"):
            structure: Index = factory(unique=unique, name=index_name)
        else:
            structure = factory(name=index_name)
        view = IndexView(self._log, namespace, path, structure)
        # Backfill from existing records (IndexView subscribes for new ones).
        for key, record in self._rows.scan(namespace):
            indexed = record if not path else view._extract(record)
            if indexed is not None:
                structure.insert(indexed, key)
        self._by_name[index_name] = view
        self._by_namespace.setdefault(namespace, []).append(view)
        self.version += 1
        if obs_metrics.ENABLED:
            obs_metrics.counter("indexes_created_total", kind=kind).inc()
        return view

    def drop_index(self, name: str) -> None:
        view = self._by_name.pop(name, None)
        if view is None:
            raise UnknownIndexError(f"no index named {name!r}")
        self._by_namespace[view.namespace].remove(view)
        self._log.unsubscribe(view.apply, view.namespace)
        self.version += 1

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> IndexView:
        view = self._by_name.get(name)
        if view is None:
            raise UnknownIndexError(f"no index named {name!r}")
        return view

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def find(
        self,
        namespace: str,
        path: tuple,
        capability: str = "point",
    ) -> Optional[IndexView]:
        """Best index on (namespace, path) supporting *capability*
        (``point`` / ``range`` / ``containment`` / ``key_exists`` / ``text``).

        Point probes prefer hash over B+tree (slide 79: extendible hashing is
        "significantly faster" for exact matches); everything else has a
        single natural structure.
        """
        path = tuple(path)
        candidates = [
            view
            for view in self._by_namespace.get(namespace, [])
            if view.path == path
            and getattr(view.index.capabilities, "range" if capability == "range" else capability, False)
        ]
        if not candidates:
            # Access-path miss: the optimizer asked and got nothing — the
            # scan that follows is exactly what an index would have saved.
            if obs_metrics.ENABLED:
                _ACCESS_PATH_MISS.inc()
            return None
        if capability == "point":
            candidates.sort(key=lambda view: 0 if view.index.kind == "hash" else 1)
        if obs_metrics.ENABLED:
            _ACCESS_PATH_HIT.inc()
        return candidates[0]
