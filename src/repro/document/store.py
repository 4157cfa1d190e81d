"""Document collections (the ArangoDB/Couchbase/MarkLogic model, slide 55).

"Document DB = key/value, where value is complex" — a
:class:`DocumentCollection` stores JSON documents keyed by ``_key`` (assigned
when absent, ArangoDB-style), with:

* PostgreSQL-operator queries (``find_contains`` via GIN when indexed);
* QBE-style example matching (ArangoDB's "simple QBE", slide 72);
* predicate/path filtering, projection and updates (deep merge);
* optional open/closed schema validation (AsterixDB's open vs closed
  datatypes, slide 18).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.core import datamodel
from repro.core.context import BaseStore, EngineContext
from repro.document import jsonpath
from repro.errors import PrimaryKeyError, SchemaError
from repro.txn.manager import Transaction

__all__ = ["DocumentCollection"]


class DocumentCollection(BaseStore):
    """One document collection."""

    model = "doc"
    key_path = ("_key",)

    def __init__(
        self,
        context: EngineContext,
        name: str,
        required_fields: Optional[dict[str, str]] = None,
        closed: bool = False,
    ):
        """``required_fields`` maps field name → data-model type name
        (``"number"``, ``"string"``, …); ``closed=True`` additionally
        rejects fields outside that set (AsterixDB closed datatypes)."""
        super().__init__(context, name)
        self._required = dict(required_fields or {})
        self._closed = closed
        if closed and not self._required:
            raise SchemaError("a closed collection needs declared fields")
        self._key_counter = itertools.count(1)

    # -- validation -------------------------------------------------------------

    def _validate(self, document: dict) -> None:
        for field, type_name in self._required.items():
            if field not in document:
                raise SchemaError(
                    f"collection {self.name!r}: missing required field "
                    f"{field!r}"
                )
            actual = datamodel.type_name(document[field])
            if actual != type_name:
                raise SchemaError(
                    f"collection {self.name!r}: field {field!r} must be "
                    f"{type_name}, got {actual}"
                )
        if self._closed:
            extra = set(document) - set(self._required) - {"_key"}
            if extra:
                raise SchemaError(
                    f"closed collection {self.name!r} rejects fields "
                    f"{sorted(extra)}"
                )

    # -- CRUD ---------------------------------------------------------------------

    def insert(self, document: dict, txn: Optional[Transaction] = None) -> str:
        """Insert a document; assigns ``_key`` when absent; returns the key."""
        if datamodel.type_of(document) is not datamodel.TypeTag.OBJECT:
            raise SchemaError("documents must be objects")
        document = datamodel.normalize(document)
        key = document.get("_key")
        if key is None:
            key = self._next_key(txn)
            document["_key"] = key
        elif not isinstance(key, str):
            raise SchemaError("_key must be a string")
        self._validate(document)
        if self._raw_get(key, txn) is not None:
            raise PrimaryKeyError(
                f"collection {self.name!r}: duplicate _key {key!r}"
            )
        self._put(key, document, txn)
        return key

    def _next_key(self, txn: Optional[Transaction]) -> str:
        while True:
            key = str(next(self._key_counter))
            if self._raw_get(key, txn) is None:
                return key

    def insert_many(
        self, documents: list[dict], txn: Optional[Transaction] = None
    ) -> list[str]:
        return [self.insert(document, txn) for document in documents]

    def get(self, key: str, txn: Optional[Transaction] = None) -> Optional[dict]:
        return self._raw_get(key, txn)

    def replace(
        self, key: str, document: dict, txn: Optional[Transaction] = None
    ) -> bool:
        if self._raw_get(key, txn) is None:
            return False
        document = datamodel.normalize(document)
        document["_key"] = key
        self._validate(document)
        self._put(key, document, txn)
        return True

    def update(
        self, key: str, patch: dict, txn: Optional[Transaction] = None
    ) -> bool:
        """Deep-merge *patch* into the stored document (RFC 7396 flavour)."""
        current = self._raw_get(key, txn)
        if current is None:
            return False
        merged = datamodel.deep_merge(current, patch)
        merged["_key"] = key
        self._validate(merged)
        self._put(key, merged, txn)
        return True

    def delete(self, key: str, txn: Optional[Transaction] = None) -> bool:
        return self._delete_key(key, txn)

    # -- queries -----------------------------------------------------------------

    def find(
        self,
        predicate: Callable[[dict], bool],
        limit: Optional[int] = None,
        txn: Optional[Transaction] = None,
    ) -> list[dict]:
        result = []
        for document in self.scan_cursor(txn=txn):
            if predicate(document):
                result.append(document)
                if limit is not None and len(result) >= limit:
                    break
        return result

    def find_by_example(
        self, example: dict, txn: Optional[Transaction] = None
    ) -> list[dict]:
        """ArangoDB QBE: documents containing the example (``@>``)."""
        return self.find(lambda document: datamodel.contains(document, example), txn=txn)

    def find_contains(
        self, probe: dict, txn: Optional[Transaction] = None
    ) -> list[dict]:
        """``@>`` query, answered through a GIN index when one exists on the
        whole document (inside a transaction too, under the visibility
        rule), else by scan + exact containment."""
        index = self._context.indexes.find(self.namespace, (), "containment")
        if index is None:
            return self.find_by_example(probe, txn=txn)
        keys = index.index.search_contains(probe, lambda key: self._raw_get(key))
        found = self._index_records(keys, txn, lambda document: datamodel.contains(document, probe))
        return [document for document in found.values() if document is not None]

    def find_path_equals(
        self,
        path: str | tuple,
        value: Any,
        txn: Optional[Transaction] = None,
    ) -> list[dict]:
        """Documents whose value at *path* equals *value* (index-served when
        a matching single-field index exists; an index holds no null, so
        ``value=None`` — a null or missing field — always scans)."""
        steps = jsonpath.parse_path(path)

        def equal(document: dict) -> bool:
            return datamodel.values_equal(datamodel.deep_get(document, steps), value)

        index = self._context.indexes.find(self.namespace, steps, "point")
        if index is None or value is None:
            return self.find(equal, txn=txn)
        found = self._index_records(index.search(value), txn, equal)
        return [document for document in found.values() if document is not None]

    # -- DDL helpers ----------------------------------------------------------------

    def create_index(self, path: str | tuple = (), kind: str = "gin", **kwargs):
        """Secondary index: GIN over the whole document by default, or a
        point/range index over one path."""
        steps = jsonpath.parse_path(path) if path else ()
        return self._context.indexes.create_index(
            self.namespace, steps, kind=kind, **kwargs
        )
