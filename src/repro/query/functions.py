"""MMQL built-in functions.

The cross-model functions are what let one query span every model (the
tutorial's unified-language challenge, slide 92):

* ``DOCUMENT(collection, key)`` — fetch by primary key from any keyed store;
* ``KV_GET(bucket, key)`` / ``KV_KEYS(bucket)`` — key/value access;
* ``NEIGHBORS(graph, vertex, direction [, label])`` — graph adjacency;
* ``TRAVERSE(graph, start, min, max, direction [, label])`` — k-hop BFS;
* ``SHORTEST_PATH(graph, from, to [, direction])`` — BFS path;
* ``XPATH(store, uri, path)`` — XPath string values from the tree store;
* ``RDF_MATCH(store, s, p, o)`` — triple patterns ("?x" = wildcard);
* ``JSON_CONTAINS(doc, probe)`` / ``HAS(doc, key)`` — jsonb operators;
* ``FULLTEXT(collection, indexName, query)`` — full-text search.

Plus the usual scalar/array/aggregate library (LENGTH, SUM, UNIQUE, …).
Every function validates its arguments and raises
:class:`repro.errors.FunctionError` with the function name on misuse.
"""

from __future__ import annotations

import inspect
import math
import re
from typing import Any, Callable

from repro.core import datamodel
from repro.errors import FunctionError

__all__ = ["FUNCTIONS", "call_function", "keyed_reader"]


def _require(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise FunctionError(f"{name}: {message}")


def _numbers(name: str, values: Any) -> list:
    _require(isinstance(values, list), name, "expects an array")
    numbers = [value for value in values if value is not None]
    for value in numbers:
        _require(
            datamodel.type_of(value) is datamodel.TypeTag.NUMBER,
            name,
            f"array contains a {datamodel.type_name(value)}",
        )
    return numbers


# --------------------------------------------------------------------------
# Scalar / array library (pure functions, no context needed)
# --------------------------------------------------------------------------


def _fn_length(ctx, value):
    tag = datamodel.type_of(value)
    if tag is datamodel.TypeTag.NULL:
        return 0
    if tag in (datamodel.TypeTag.ARRAY, datamodel.TypeTag.OBJECT, datamodel.TypeTag.STRING):
        return len(value)
    raise FunctionError(f"LENGTH: cannot measure a {datamodel.type_name(value)}")


def _fn_count(ctx, value):
    return _fn_length(ctx, value)


def _sum(numbers: list):
    """Left to right with ``+``, like the running accumulator of COLLECT …
    AGGREGATE, on every Python: the builtin ``sum`` compensates float
    rounding from 3.12 on, and ``SUM(list)`` has to equal ``AGGREGATE
    SUM`` over the same inputs to the last bit (the
    ``collect_into_aggregate`` rule turns one into the other)."""
    total = 0
    for number in numbers:
        total += number
    return total


def _fn_sum(ctx, values):
    return _sum(_numbers("SUM", values))


def _fn_min(ctx, values):
    numbers = _numbers("MIN", values)
    return min(numbers) if numbers else None


def _fn_max(ctx, values):
    numbers = _numbers("MAX", values)
    return max(numbers) if numbers else None


def _fn_avg(ctx, values):
    numbers = _numbers("AVG", values)
    return _sum(numbers) / len(numbers) if numbers else None


def _fn_unique(ctx, values):
    _require(isinstance(values, list), "UNIQUE", "expects an array")
    seen = []
    for value in values:
        if not any(datamodel.values_equal(value, kept) for kept in seen):
            seen.append(value)
    return seen


def _fn_flatten(ctx, values, depth=1):
    _require(isinstance(values, list), "FLATTEN", "expects an array")

    def flatten(items, level):
        out = []
        for item in items:
            if isinstance(item, list) and level > 0:
                out.extend(flatten(item, level - 1))
            else:
                out.append(item)
        return out

    return flatten(values, int(depth))


def _fn_append(ctx, values, item):
    _require(isinstance(values, list), "APPEND", "expects an array")
    return list(values) + [item]


def _fn_first(ctx, values):
    _require(isinstance(values, list), "FIRST", "expects an array")
    return values[0] if values else None


def _fn_last(ctx, values):
    _require(isinstance(values, list), "LAST", "expects an array")
    return values[-1] if values else None


def _fn_sorted(ctx, values):
    _require(isinstance(values, list), "SORTED", "expects an array")
    return sorted(values, key=datamodel.SortKey)


def _fn_reverse(ctx, values):
    _require(isinstance(values, list), "REVERSE", "expects an array")
    return list(reversed(values))


def _fn_concat(ctx, *parts):
    return "".join("" if part is None else str(part) for part in parts)


def _fn_upper(ctx, text):
    _require(isinstance(text, str), "UPPER", "expects a string")
    return text.upper()


def _fn_lower(ctx, text):
    _require(isinstance(text, str), "LOWER", "expects a string")
    return text.lower()


def _fn_substring(ctx, text, start, length=None):
    _require(isinstance(text, str), "SUBSTRING", "expects a string")
    start = int(start)
    if length is None:
        return text[start:]
    return text[start:start + int(length)]


def _fn_contains_str(ctx, haystack, needle):
    _require(isinstance(haystack, str), "CONTAINS", "expects strings")
    _require(isinstance(needle, str), "CONTAINS", "expects strings")
    return needle in haystack


def _fn_split(ctx, text, separator):
    _require(isinstance(text, str), "SPLIT", "expects a string")
    return text.split(separator)

def _fn_abs(ctx, value):
    _require(
        datamodel.type_of(value) is datamodel.TypeTag.NUMBER,
        "ABS", "expects a number",
    )
    return abs(value)


def _fn_floor(ctx, value):
    return math.floor(value)


def _fn_ceil(ctx, value):
    return math.ceil(value)


def _fn_round(ctx, value, digits=0):
    return round(value, int(digits))


def _fn_not_null(ctx, *values):
    for value in values:
        if value is not None:
            return value
    return None


def _fn_keys(ctx, obj):
    _require(
        datamodel.type_of(obj) is datamodel.TypeTag.OBJECT,
        "KEYS", "expects an object",
    )
    return sorted(obj)


def _fn_values(ctx, obj):
    _require(
        datamodel.type_of(obj) is datamodel.TypeTag.OBJECT,
        "VALUES", "expects an object",
    )
    return [obj[key] for key in sorted(obj)]


def _fn_merge(ctx, *objects):
    result: dict = {}
    for obj in objects:
        _require(
            datamodel.type_of(obj) is datamodel.TypeTag.OBJECT,
            "MERGE", "expects objects",
        )
        result.update(obj)
    return result


def _fn_typename(ctx, value):
    return datamodel.type_name(value)


def _fn_to_string(ctx, value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, (int, float, str)):
        return str(value)
    return datamodel.canonical_json(value)


def _fn_to_number(ctx, value):
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return float(value) if "." in value else int(value)
        except ValueError:
            return None
    return None


def _fn_range(ctx, low, high):
    return list(range(int(low), int(high) + 1))


# --------------------------------------------------------------------------
# JSON operators (slide 72/82)
# --------------------------------------------------------------------------


def _fn_json_contains(ctx, document, probe):
    return datamodel.contains(document, probe)


def _fn_has(ctx, document, key):
    from repro.document import jsonpath

    return jsonpath.has_key(document, key)


def _fn_json_path(ctx, document, path):
    from repro.document import jsonpath

    return jsonpath.get_path(document, path)


# --------------------------------------------------------------------------
# Cross-model functions (need the execution context's database)
# --------------------------------------------------------------------------


def keyed_reader(ctx, function: str, name: str) -> Callable[[Any], Any]:
    """The read behind ``DOCUMENT(name, key)`` (*function* ``"DOCUMENT"``)
    or ``KV_GET(name, key)`` (``"KV_GET"``) with *name* resolved once:
    ``read(key)`` answers one key and raises what the function raises for
    it.  The functions and the executor's set-at-a-time lookup joins both
    read through here, so they cannot disagree."""
    txn = ctx.txn
    if function == "KV_GET":
        bucket = ctx.db.bucket(name)

        def read(key):
            _require(isinstance(key, str), "KV_GET", "keys are strings")
            return bucket.get(key, txn=txn)

        return read
    store = ctx.db.resolve(name)
    kind = ctx.db.kind_of(name)
    if kind in ("table", "collection"):
        get = store.get
    elif kind == "graph":
        get = store.vertex
    else:
        raise FunctionError(f"DOCUMENT: {name!r} is a {kind}, not a keyed store")

    def read(key):
        try:
            return get(key, txn=txn)
        except TypeError as error:  # an unhashable key
            raise FunctionError(
                f"DOCUMENT: the key must be a scalar, got "
                f"{datamodel.type_name(key)}"
            ) from error

    return read


def _fn_document(ctx, name, key):
    return keyed_reader(ctx, "DOCUMENT", name)(key)


def _fn_kv_get(ctx, bucket_name, key):
    return keyed_reader(ctx, "KV_GET", bucket_name)(key)


def _fn_kv_keys(ctx, bucket_name):
    return sorted(ctx.db.bucket(bucket_name).keys(txn=ctx.txn))


def _vertex(name: str, argument: str, value: Any) -> None:
    _require(
        isinstance(value, str),
        name,
        f"the {argument} vertex must be a string key, got {datamodel.type_name(value)}",
    )


def _fn_neighbors(ctx, graph_name, vertex, direction="outbound", label=None):
    _vertex("NEIGHBORS", "start", vertex)
    graph = ctx.db.graph(graph_name)
    return graph.neighbors(vertex, direction, label, txn=ctx.txn)


def _fn_traverse(ctx, graph_name, start, min_depth, max_depth, direction="outbound", label=None):
    _vertex("TRAVERSE", "start", start)
    graph = ctx.db.graph(graph_name)
    return [
        key
        for key, _depth in graph.traverse(
            start, int(min_depth), int(max_depth), direction, label, txn=ctx.txn
        )
    ]


def _fn_shortest_path(ctx, graph_name, start, goal, direction="any"):
    _vertex("SHORTEST_PATH", "start", start)
    _vertex("SHORTEST_PATH", "goal", goal)
    graph = ctx.db.graph(graph_name)
    return graph.shortest_path(start, goal, direction, txn=ctx.txn)


def _fn_edges(ctx, graph_name, vertex, direction="outbound", label=None):
    _vertex("EDGES", "start", vertex)
    graph = ctx.db.graph(graph_name)
    return list(graph.edges_of(vertex, direction, label, txn=ctx.txn))


def _fn_xpath(ctx, store_name, uri, path):
    store = ctx.db.tree_store(store_name)
    return store.xpath_values(uri, path, txn=ctx.txn)


def _fn_rdf_match(ctx, store_name, subject, predicate, obj):
    store = ctx.db.triple_store(store_name)
    return [list(triple) for triple in store.match(subject, predicate, obj, txn=ctx.txn)]


def _fn_geo_window(ctx, store_name, min_x, min_y, max_x, max_y):
    store = ctx.db.spatial(store_name)
    return store.window(min_x, min_y, max_x, max_y, txn=ctx.txn)


def _fn_geo_nearest(ctx, store_name, x, y, k=1):
    store = ctx.db.spatial(store_name)
    return [key for key, _distance in store.nearest(x, y, int(k), txn=ctx.txn)]


def _fn_geo_distance(ctx, x1, y1, x2, y2):
    return math.hypot(x2 - x1, y2 - y1)


def _fn_fulltext(ctx, index_name, query):
    """The keys whose text holds every term of *query*, as ``ctx.txn``
    sees them (a changed key is rechecked against its text)."""
    view = ctx.db.context.indexes.get(index_name)
    _require(
        hasattr(view.index, "search_all"), "FULLTEXT", f"{index_name!r} is not a full-text index"
    )
    from repro.core.context import index_records
    from repro.indexes.fulltext import extract_text, tokenize

    terms = set(tokenize(query))

    def holds(record) -> bool:
        return bool(terms) and terms <= set(tokenize(extract_text(view._extract(record)), True))

    found = index_records(
        ctx.db.context, view.namespace, view.index.search_all(terms), ctx.txn, holds
    )
    return sorted((key for key, value in found.items() if value is not None), key=datamodel.SortKey)


FUNCTIONS: dict[str, Callable] = {
    "LENGTH": _fn_length,
    "COUNT": _fn_count,
    "SUM": _fn_sum,
    "MIN": _fn_min,
    "MAX": _fn_max,
    "AVG": _fn_avg,
    "UNIQUE": _fn_unique,
    "FLATTEN": _fn_flatten,
    "APPEND": _fn_append,
    "FIRST": _fn_first,
    "LAST": _fn_last,
    "SORTED": _fn_sorted,
    "REVERSE": _fn_reverse,
    "CONCAT": _fn_concat,
    "UPPER": _fn_upper,
    "LOWER": _fn_lower,
    "SUBSTRING": _fn_substring,
    "CONTAINS": _fn_contains_str,
    "SPLIT": _fn_split,
    "ABS": _fn_abs,
    "FLOOR": _fn_floor,
    "CEIL": _fn_ceil,
    "ROUND": _fn_round,
    "NOT_NULL": _fn_not_null,
    "KEYS": _fn_keys,
    "VALUES": _fn_values,
    "MERGE": _fn_merge,
    "TYPENAME": _fn_typename,
    "TO_STRING": _fn_to_string,
    "TO_NUMBER": _fn_to_number,
    "RANGE": _fn_range,
    "JSON_CONTAINS": _fn_json_contains,
    "HAS": _fn_has,
    "JSON_PATH": _fn_json_path,
    "DOCUMENT": _fn_document,
    "KV_GET": _fn_kv_get,
    "KV_KEYS": _fn_kv_keys,
    "NEIGHBORS": _fn_neighbors,
    "TRAVERSE": _fn_traverse,
    "SHORTEST_PATH": _fn_shortest_path,
    "EDGES": _fn_edges,
    "XPATH": _fn_xpath,
    "RDF_MATCH": _fn_rdf_match,
    "FULLTEXT": _fn_fulltext,
    "GEO_WINDOW": _fn_geo_window,
    "GEO_NEAREST": _fn_geo_nearest,
    "GEO_DISTANCE": _fn_geo_distance,
}


def _arity(function: Callable) -> tuple:
    """``(least, most)`` arguments *function* takes after the context."""
    code = function.__code__
    most = code.co_argcount - 1
    least = most - len(function.__defaults__ or ())
    if code.co_flags & inspect.CO_VARARGS:
        most = math.inf
    return least, most


#: Each built-in with its argument count bounds, read off its signature once.
_BUILTINS: dict[str, tuple] = {
    name: (function, *_arity(function)) for name, function in FUNCTIONS.items()
}


def _takes(least: int, most: float) -> str:
    if most == math.inf:
        count = f"at least {least}"
    else:
        count = str(least) if least == most else f"{least} to {most}"
    return f"{count} argument" + ("" if count == "1" else "s")


def call_function(ctx, name: str, args: list) -> Any:
    """Dispatch a built-in; unknown names, a wrong argument count and an
    argument of the wrong type raise :class:`FunctionError`."""
    builtin = _BUILTINS.get(name)
    if builtin is None:
        raise FunctionError(f"unknown function {name!r}")
    function, least, most = builtin
    if not least <= len(args) <= most:
        raise FunctionError(
            f"{name}: bad arity (takes {_takes(least, most)}, got {len(args)})"
        )
    try:
        return function(ctx, *args)
    except TypeError as error:
        raise FunctionError(f"{name}: bad argument ({error})") from error
