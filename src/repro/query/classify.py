"""Statement classification: does an MMQL statement write, and which
stores does it read?

Both distributed routers need the same verdict for the same text — the
replica-set router (writes go to the primary, reads may fan to replicas,
and a read's consistency level follows the stores it names) and the
cluster coordinator (writes route to owning shards, reads may scatter).
Hoisted here so there is exactly one classifier and one cache: one parse
per distinct text.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

__all__ = ["Statement", "classify", "statement_writes"]


class Statement(NamedTuple):
    """What a router needs to know about one statement's text."""

    #: INSERT/UPDATE/REMOVE/REPLACE/UPSERT anywhere, subqueries included.
    writes: bool
    #: The store names the text reads (see :func:`visit.stores_named`).
    stores: frozenset
    #: Some store is named by a bind or an expression, or read through an
    #: index, so the text alone does not say which.
    unnamed: bool


#: What a text that does not parse classifies as: a read of nothing — the
#: engine will raise the real parse error with full position info, which
#: beats a routing-layer guess.
_UNPARSED = Statement(False, frozenset(), False)


@lru_cache(maxsize=1024)
def classify(text: str) -> Statement:
    """Classify one MMQL statement's text (cached per distinct text).  An
    ``EXPLAIN ANALYZE`` prefix is looked through: the statement runs."""
    from repro.query.engine import _strip_analyze_prefix
    from repro.query.parser import parse
    from repro.query.visit import contains_write, stores_named

    try:
        query = parse(_strip_analyze_prefix(text)[0])
    except Exception:
        return _UNPARSED
    return Statement(contains_write(query), *stores_named(query))


def statement_writes(text: str) -> bool:
    """Does this MMQL statement mutate data?

    Used for routing (writes go to the primary / owning shard) and for the
    replica-side ``NOT_PRIMARY`` gate.  A statement that does not parse is
    treated as a read."""
    return classify(text).writes
