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

from itertools import takewhile
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
    ) -> list[dict]:
        """The records under *prefix* in subscript order: a B+tree range
        over the order directory, under the visibility rule."""
        prefix_list = list(prefix)

        def under(subs: list) -> bool:
            return subs[: len(prefix_list)] == prefix_list

        items = self._order_tree.range_items(low=prefix_list)
        keys = [key for _subs, key in takewhile(lambda item: under(item[0]), items)]
        found = self._index_records(keys, txn, lambda record: under(record["subs"]))
        records = [record for record in found.values() if record is not None]
        return sorted(records, key=lambda record: datamodel.SortKey(record["subs"]))

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

        One B+tree range probe: start just past the current node and read
        the first node that still shares the parent prefix with a later
        sibling.  Inside a transaction the probe skips the nodes the
        visibility rule sees changed (and probes again if the node it found
        changed meanwhile), and their siblings compete with its own.
        """
        subscripts = _check_subscripts(subscripts)
        parent = list(subscripts[:-1])
        current = subscripts[-1]
        depth = len(parent)

        def later(subs: list) -> bool:  # under parent, at a sibling after current
            return (
                len(subs) > depth
                and subs[:depth] == parent
                and datamodel.compare(subs[depth], current) > 0
            )

        # Everything under (parent..., current, …) sorts right after the
        # current node itself: the range starts there and skips the
        # entries still inside the current sibling's subtree.
        low = parent + [current]
        skip: dict = {}
        while True:
            found = None
            for subs, key in self._order_tree.range_items(low=low, include_low=False):
                if subs[:depth] != parent or len(subs) <= depth:
                    break
                if key not in skip and later(subs):
                    found = subs, key
                    break
            changed = self._context.transactions.changed(txn, self.namespace)
            if found is None or found[1] not in changed:
                break
            skip = changed
        siblings = [] if found is None else [found[0][depth]]
        for record in changed.values():
            if record is not None and later(record["subs"]):
                siblings.append(record["subs"][depth])
        return min(siblings, key=datamodel.SortKey, default=None)
