"""Sparse multidimensional arrays — InterSystems Caché "globals" (slide 67).

"Caché stores data in sparse, multidimensional arrays, capable of carrying
hierarchically structured data", with "direct manipulation of
multidimensional data structures" as one of its access APIs.

A global is a map from *subscript tuples* (mixed strings/numbers) to
values, with the classic operations:

* ``set(("Person", 1, "name"), "Mary")`` / ``get(…)``;
* ``kill(("Person", 1))`` — remove a whole subtree;
* ``order(("Person", 1))`` — next sibling subscript (Caché's ``$ORDER``),
  in the engine's total order;
* ``children`` / ``walk`` — subtree iteration in subscript order.

Storage is the shared backend (one record per node, keyed by the canonical
subscript tuple) plus a B+tree over the subscript tuples, which is what
makes ``$ORDER`` and subtree scans logarithmic — and is exactly "carrying
hierarchically structured data" in ordered sparse arrays.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core import datamodel
from repro.core.context import BaseStore, EngineContext
from repro.errors import SchemaError
from repro.indexes.btree import BPlusTree
from repro.storage.log import LogEntry, LogOp
from repro.txn.manager import Transaction

__all__ = ["GlobalsStore"]


def _check_subscripts(subscripts: tuple) -> tuple:
    if not isinstance(subscripts, (tuple, list)) or not subscripts:
        raise SchemaError("subscripts must be a non-empty tuple")
    for subscript in subscripts:
        if isinstance(subscript, bool) or not isinstance(
            subscript, (str, int, float)
        ):
            raise SchemaError(
                f"subscripts are strings or numbers, got {subscript!r}"
            )
    return tuple(subscripts)


class GlobalsStore(BaseStore):
    """One named global (e.g. ``^Person``)."""

    model = "glob"

    def __init__(self, context: EngineContext, name: str):
        super().__init__(context, name)
        # Ordered directory of live subscript tuples (committed state).
        self._order_tree = BPlusTree(order=32)
        context.log.subscribe(self._on_log_entry, self.namespace)

    @staticmethod
    def _key(subscripts: tuple) -> str:
        return datamodel.canonical_json(list(subscripts))

    def _on_log_entry(self, entry: LogEntry) -> None:
        if entry.op is LogOp.DROP_NAMESPACE:
            self._order_tree.clear()
            return
        if entry.op is LogOp.INSERT:
            self._order_tree.insert(entry.value["subs"], entry.key)
        elif entry.op is LogOp.DELETE and entry.before is not None:
            self._order_tree.delete(entry.before["subs"], entry.key)

    # -- node operations ---------------------------------------------------------

    def set(
        self, subscripts: tuple, value: Any, txn: Optional[Transaction] = None
    ) -> None:
        subscripts = _check_subscripts(subscripts)
        record = {"subs": list(subscripts), "value": datamodel.normalize(value)}
        self._put(self._key(subscripts), record, txn)

    def get(
        self, subscripts: tuple, txn: Optional[Transaction] = None
    ) -> Any:
        subscripts = _check_subscripts(subscripts)
        record = self._raw_get(self._key(subscripts), txn)
        return None if record is None else record["value"]

    def defined(self, subscripts: tuple, txn: Optional[Transaction] = None) -> bool:
        return self._raw_get(self._key(_check_subscripts(subscripts)), txn) is not None

    def kill(self, subscripts: tuple, txn: Optional[Transaction] = None) -> int:
        """Remove the node and its whole subtree; returns nodes removed."""
        subscripts = _check_subscripts(subscripts)
        doomed = [
            tuple(record["subs"])
            for record in self._subtree_records(subscripts, txn)
        ]
        for node in doomed:
            self._delete_key(self._key(node), txn)
        return len(doomed)

    # -- ordered navigation ---------------------------------------------------------

    def _subtree_records(
        self, prefix: tuple, txn: Optional[Transaction]
    ) -> Iterator[dict]:
        prefix_list = list(prefix)
        if txn is None:
            # B+tree range over the committed order directory.
            for subs, _key in self._order_tree.range_items(low=prefix_list):
                if subs[: len(prefix_list)] != prefix_list:
                    break
                record = self._raw_get(self._key(tuple(subs)))
                if record is not None:
                    yield record
        else:
            records = sorted(
                (record for _key, record in self._raw_scan(txn)
                 if record["subs"][: len(prefix_list)] == prefix_list),
                key=lambda record: datamodel.SortKey(record["subs"]),
            )
            yield from records

    def walk(
        self, prefix: tuple = (), txn: Optional[Transaction] = None
    ) -> Iterator[tuple[tuple, Any]]:
        """(subscripts, value) of the subtree under *prefix*, in order."""
        if prefix:
            prefix = _check_subscripts(prefix)
            for record in self._subtree_records(prefix, txn):
                yield tuple(record["subs"]), record["value"]
        else:
            records = sorted(
                (record for _key, record in self._raw_scan(txn)),
                key=lambda record: datamodel.SortKey(record["subs"]),
            )
            for record in records:
                yield tuple(record["subs"]), record["value"]

    def children(
        self, prefix: tuple = (), txn: Optional[Transaction] = None
    ) -> list[Any]:
        """Distinct next-level subscripts under *prefix*, in order."""
        seen: list[Any] = []
        depth = len(prefix)
        for subscripts, _value in self.walk(prefix, txn) if prefix else self.walk(txn=txn):
            if len(subscripts) > depth:
                child = subscripts[depth]
                if not seen or datamodel.compare(seen[-1], child) != 0:
                    if all(
                        datamodel.compare(child, existing) != 0
                        for existing in seen
                    ):
                        seen.append(child)
        return seen

    def order(
        self, subscripts: tuple, txn: Optional[Transaction] = None
    ) -> Optional[Any]:
        """Caché ``$ORDER``: the next sibling subscript after *subscripts*
        (None when it was the last).

        Outside transactions this is one B+tree range probe: start just
        past the current sibling's subtree and read the first node that
        still shares the parent prefix.
        """
        subscripts = _check_subscripts(subscripts)
        parent = list(subscripts[:-1])
        current = subscripts[-1]
        depth = len(parent)
        if txn is not None:
            siblings = (
                self.children(tuple(parent), txn)
                if parent
                else self.children(txn=txn)
            )
            for sibling in siblings:
                if datamodel.compare(sibling, current) > 0:
                    return sibling
            return None
        # Everything under (parent..., current, …) sorts before
        # (parent..., next_sibling, …); objects sort after any scalar or
        # array in the value order, so parent + [current, OBJECT_MAX] is an
        # upper bound for the current subtree.  Simpler and exact: scan the
        # range starting right after the current node itself and skip
        # entries still inside the current sibling's subtree.
        low = parent + [current]
        for subs, _key in self._order_tree.range_items(low=low, include_low=False):
            if subs[:depth] != parent or len(subs) <= depth:
                return None
            sibling = subs[depth]
            if datamodel.compare(sibling, current) > 0:
                return sibling
        return None
