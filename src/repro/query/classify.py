"""Statement classification: does an MMQL statement write?

Both distributed routers need the same verdict for the same text — the
replica-set router (writes go to the primary, reads may fan to replicas)
and the cluster coordinator (writes route to owning shards, reads may
scatter).  Hoisted here so there is exactly one classifier and one cache;
``repro.replication`` re-exports it for backwards compatibility.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["statement_writes"]


@lru_cache(maxsize=1024)
def statement_writes(text: str) -> bool:
    """Does this MMQL statement mutate data (INSERT/UPDATE/REMOVE/REPLACE/
    UPSERT anywhere in its AST, subqueries included)?

    Used for routing (writes go to the primary / owning shard) and for the
    replica-side ``NOT_PRIMARY`` gate.  A statement that does not parse is
    treated as a read — the engine will raise the real parse error with
    full position info, which beats a routing-layer guess.
    """
    from repro.query.parser import parse
    from repro.query.visit import contains_write

    try:
        query = parse(text)
    except Exception:
        return False
    return contains_write(query)
