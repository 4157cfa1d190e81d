"""Per-model store instrumentation.

:func:`instrument_store` wraps the public data methods of a model store
(document collection, relational table, KV bucket, property graph, …) so
every call lands in the registry as

* ``model_ops_total{model=<kind>, op=<method>}`` — call counter,
* ``model_op_seconds{model=<kind>, op=<method>}`` — latency histogram.

:class:`repro.core.database.MultiModelDB` applies it at registration time
for every catalog object, which is how the per-model paths of the engine
become attributable without touching any store class. Wrappers check
:data:`repro.obs.metrics.ENABLED` at call time, so disabling
observability disables the cost too (one flag test + passthrough call).

Methods that return lazy iterators (``rows``, ``all``, ``items``) are
timed on call — i.e. the counter counts scans started, and the histogram
sees iterator-construction time only; the per-row cost of scans is
attributed by the query layer's operator probes instead.
"""

from __future__ import annotations

import functools
import time
import weakref
from typing import Any

from repro.obs import metrics

__all__ = ["instrument_store", "INSTRUMENTED_METHODS"]

#: Public data methods wrapped when present on a store. Conservative by
#: design: lifecycle/internal helpers (``truncate``, ``catch_up``,
#: underscore methods) stay unwrapped, and so do single-record point
#: reads (``get``, ``vertex``, ``contains``) — they run once per *row*
#: on query hot paths, where even a disabled wrapper's extra call frame
#: would be measurable; scans, traversals and writes carry the signal.
INSTRUMENTED_METHODS = (
    # generic keyed stores
    "insert",
    "update",
    "delete",
    "replace",
    "put",
    "all",
    "rows",
    "items",
    "scan_cursor",
    "find_by_example",
    # graph
    "add_vertex",
    "add_edge",
    "vertices",
    "edges",
    "one_hop",
    "traverse",
    "traverse_with_edges",
    "shortest_path",
    # rdf / xml / spatial
    "add",
    "triples",
    "uris",
    "search",
)


def _wrap(kind: str, op_name: str, func) -> Any:
    calls = metrics.counter("model_ops_total", model=kind, op=op_name)
    seconds = metrics.histogram("model_op_seconds", model=kind, op=op_name)
    # The wrapper lives on the store, so it holds the store weakly: a bound
    # method would make every store a cycle only the cyclic collector frees.
    function, store = func.__func__, weakref.ref(func.__self__)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not metrics.ENABLED:
            return function(store(), *args, **kwargs)
        start = time.perf_counter()
        try:
            return function(store(), *args, **kwargs)
        finally:
            seconds.observe(time.perf_counter() - start)
            calls.inc()

    wrapper.__obs_instrumented__ = True
    return wrapper


def instrument_store(kind: str, store: Any) -> Any:
    """Wrap *store*'s public data methods with metrics; returns the store.

    Idempotent: already-wrapped methods are left alone, so re-registering
    or double-instrumenting cannot stack wrappers.
    """
    for name in INSTRUMENTED_METHODS:
        func = getattr(store, name, None)
        if func is None or not callable(func):
            continue
        if getattr(func, "__obs_instrumented__", False):
            continue
        setattr(store, name, _wrap(kind, name, func))
    return store
