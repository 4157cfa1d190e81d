"""RDF triple store with the DB2-RDF index layouts (slide 35).

"IBM DB2-RDF stores RDF graphs with four layouts: direct primary (triples +
associated graph, indexed by subject), reverse primary (indexed by object),
direct secondary (triples that share the subject and predicate), reverse
secondary (share the object and predicate)."

:class:`TripleStore` maintains all four as hash maps over the shared
backend's records, and answers SPARQL-style basic graph patterns
(:meth:`match` for one pattern, :meth:`query` for conjunctive patterns with
variables, FILTER, projection, ORDER BY, LIMIT) — the "SPARQL 1.0 + subset
of 1.1 features" of slide 75, including simple aggregates.

Terms are strings; variables start with ``?``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.core.context import BaseStore, EngineContext
from repro.core.cursor import IteratorScanCursor, ScanCursor
from repro.errors import QueryError
from repro.txn.manager import Transaction

__all__ = ["Triple", "TripleStore", "is_variable"]

Triple = tuple[str, str, str]


def is_variable(term: str) -> bool:
    """SPARQL variables are spelled ``?name``."""
    return isinstance(term, str) and term.startswith("?")


class TripleStore(BaseStore):
    """One named RDF graph."""

    model = "rdf"

    def __init__(self, context: EngineContext, name: str):
        super().__init__(context, name)
        # The four DB2-RDF layouts, maintained from the central log so they
        # only ever reflect *committed* triples (buffered transactional
        # writes reach the log at commit time).
        self._direct_primary: dict[str, set[Triple]] = defaultdict(set)
        self._reverse_primary: dict[str, set[Triple]] = defaultdict(set)
        self._direct_secondary: dict[tuple[str, str], set[Triple]] = defaultdict(set)
        self._reverse_secondary: dict[tuple[str, str], set[Triple]] = defaultdict(set)
        context.log.subscribe(self._on_log_entry, self.namespace)

    def _on_log_entry(self, entry) -> None:
        from repro.storage.log import LogOp

        if entry.op is LogOp.DROP_NAMESPACE:
            for layout in (
                self._direct_primary,
                self._reverse_primary,
                self._direct_secondary,
                self._reverse_secondary,
            ):
                layout.clear()
            return
        if entry.op is LogOp.INSERT:
            self._index_add(tuple(entry.value))
        elif entry.op is LogOp.DELETE and entry.before is not None:
            self._index_remove(tuple(entry.before))

    @staticmethod
    def _key(triple: Triple) -> str:
        return "|".join(triple)

    # -- updates -----------------------------------------------------------------

    def add(
        self,
        subject: str,
        predicate: str,
        obj: str,
        txn: Optional[Transaction] = None,
    ) -> bool:
        """Add one triple; returns False when it already exists."""
        for term in (subject, predicate, obj):
            if not isinstance(term, str):
                raise QueryError("RDF terms are strings")
            if is_variable(term):
                raise QueryError("cannot store a variable term")
        triple = (subject, predicate, obj)
        if self._raw_get(self._key(triple), txn) is not None:
            return False
        self._put(self._key(triple), list(triple), txn)
        return True

    def add_many(
        self, triples: Iterable[Triple], txn: Optional[Transaction] = None
    ) -> int:
        return sum(1 for triple in triples if self.add(*triple, txn=txn))

    def remove(
        self,
        subject: str,
        predicate: str,
        obj: str,
        txn: Optional[Transaction] = None,
    ) -> bool:
        triple = (subject, predicate, obj)
        return self._delete_key(self._key(triple), txn)

    def _index_add(self, triple: Triple) -> None:
        subject, predicate, obj = triple
        self._direct_primary[subject].add(triple)
        self._reverse_primary[obj].add(triple)
        self._direct_secondary[(subject, predicate)].add(triple)
        self._reverse_secondary[(obj, predicate)].add(triple)

    def _index_remove(self, triple: Triple) -> None:
        subject, predicate, obj = triple
        self._direct_primary[subject].discard(triple)
        self._reverse_primary[obj].discard(triple)
        self._direct_secondary[(subject, predicate)].discard(triple)
        self._reverse_secondary[(obj, predicate)].discard(triple)

    # -- single-pattern matching ----------------------------------------------------

    def scan_cursor(self, txn: Optional[Transaction] = None) -> ScanCursor:
        """Unified batched scan: each frame is one triple as a
        ``[subject, predicate, object]`` list (the MMQL row shape)."""
        return IteratorScanCursor(
            list(stored) for _key, stored in self._raw_scan(txn)
        )

    def match(
        self,
        subject: str = "?s",
        predicate: str = "?p",
        obj: str = "?o",
        txn: Optional[Transaction] = None,
    ) -> list[Triple]:
        """Triples matching one pattern; constants select an index layout:

        * subject bound + predicate bound → direct secondary;
        * subject bound → direct primary;
        * object bound + predicate bound → reverse secondary;
        * object bound → reverse primary;
        * nothing bound → full scan.

        Inside a transaction the visibility rule drops the triples it sees
        changed from a layout's answer and adds back those its snapshot holds.
        """
        if not is_variable(subject) and not is_variable(predicate):
            layout = self._direct_secondary.get((subject, predicate), set())
        elif not is_variable(subject):
            layout = self._direct_primary.get(subject, set())
        elif not is_variable(obj) and not is_variable(predicate):
            layout = self._reverse_secondary.get((obj, predicate), set())
        elif not is_variable(obj):
            layout = self._reverse_primary.get(obj, set())
        else:
            layout = (tuple(stored) for _key, stored in self._context.rows.scan(self.namespace))
        candidates = list(layout)
        changed = self._context.transactions.changed(txn, self.namespace)
        if changed:
            candidates = [triple for triple in candidates if self._key(triple) not in changed]
            candidates += [tuple(stored) for stored in changed.values() if stored is not None]
        result = []
        for triple in candidates:
            if not is_variable(subject) and triple[0] != subject:
                continue
            if not is_variable(predicate) and triple[1] != predicate:
                continue
            if not is_variable(obj) and triple[2] != obj:
                continue
            result.append(triple)
        return sorted(result)

    # -- BGP queries --------------------------------------------------------------------

    def query(
        self,
        patterns: list[Triple],
        where: Optional[Callable[[dict], bool]] = None,
        select: Optional[list[str]] = None,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
        distinct: bool = False,
        txn: Optional[Transaction] = None,
    ) -> list[dict]:
        """Conjunctive basic-graph-pattern query.

        *patterns* is a list of (s, p, o) with ``?var`` terms; returns
        variable bindings as dicts.  ``where`` is the FILTER clause (a
        predicate over a binding dict); ``select`` projects variables;
        ``order_by``/``limit``/``distinct`` behave as in SPARQL.
        """
        if not patterns:
            raise QueryError("a BGP query needs at least one pattern")
        bindings = self._join(patterns, {}, txn)
        results = [binding for binding in bindings if where is None or where(binding)]
        if order_by is not None:
            if not is_variable(order_by):
                raise QueryError("ORDER BY takes a ?variable")
            results.sort(key=lambda binding: binding.get(order_by, ""))
        if select is not None:
            for variable in select:
                if not is_variable(variable):
                    raise QueryError(f"SELECT takes ?variables, got {variable!r}")
            results = [
                {variable: binding.get(variable) for variable in select}
                for binding in results
            ]
        if distinct:
            seen = set()
            unique = []
            for binding in results:
                token = tuple(sorted(binding.items()))
                if token not in seen:
                    seen.add(token)
                    unique.append(binding)
            results = unique
        if limit is not None:
            results = results[:limit]
        return results

    def _join(
        self,
        patterns: list[Triple],
        binding: dict,
        txn: Optional[Transaction],
    ) -> Iterator[dict]:
        if not patterns:
            yield dict(binding)
            return
        # Greedy selectivity: evaluate the pattern with the most bound terms
        # first (constants or already-bound variables).
        def bound_terms(pattern: Triple) -> int:
            return sum(
                1
                for term in pattern
                if not is_variable(term) or term in binding
            )

        best = max(range(len(patterns)), key=lambda i: bound_terms(patterns[i]))
        pattern = patterns[best]
        rest = patterns[:best] + patterns[best + 1:]
        resolved = tuple(
            binding.get(term, term) if is_variable(term) else term
            for term in pattern
        )
        for triple in self.match(*resolved, txn=txn):
            extended = dict(binding)
            consistent = True
            for term, value in zip(pattern, triple):
                if is_variable(term):
                    if term in extended and extended[term] != value:
                        consistent = False
                        break
                    extended[term] = value
            if consistent:
                yield from self._join(rest, extended, txn)

    def count_triples(self, txn: Optional[Transaction] = None) -> int:
        """Number of stored triples (``count`` is the BGP aggregate)."""
        return BaseStore.count(self, txn)

    # -- aggregates (the SPARQL 1.1 subset of slide 75) -----------------------------------

    def count(
        self,
        patterns: list[Triple],
        group_by: Optional[str] = None,
        txn: Optional[Transaction] = None,
    ) -> Any:
        """COUNT over a BGP, optionally grouped by one variable."""
        results = self.query(patterns, txn=txn)
        if group_by is None:
            return len(results)
        groups: dict[str, int] = defaultdict(int)
        for binding in results:
            groups[binding.get(group_by, "")] += 1
        return dict(groups)
