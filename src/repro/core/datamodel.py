"""The unified data model shared by every model in the engine.

The tutorial's first open challenge (slide 91) is an *open data model*: "a
flexible data model to accommodate multi-model data, providing a convenient
unique interface to handle data from different sources".  This module is that
interface.  Every model in the engine — relational rows, JSON documents,
key/value entries, graph vertices and edges, XML trees, RDF terms — bottoms
out in one small value algebra:

    NULL | BOOL | NUMBER | STRING | ARRAY | OBJECT

Values are represented by plain Python objects (``None``, ``bool``,
``int``/``float``, ``str``, ``list``, ``dict``) so that user code never needs
wrapper classes; this module supplies the *semantics*: a total cross-type
ordering (used by sorts and B+tree indexes), deep equality, truthiness,
normalization, JSONB-style containment, and canonical serialization/hashing
(used by the ``jsonb_path_ops`` inverted index).

The total order follows the AQL/ArangoDB convention also used by most
multi-model engines in the tutorial:

    null  <  bool  <  number  <  string  <  array  <  object
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

from repro.errors import DataModelError, TypeMismatchError

__all__ = [
    "TypeTag",
    "type_of",
    "type_name",
    "normalize",
    "compare",
    "values_equal",
    "truthy",
    "SortKey",
    "contains",
    "iter_paths",
    "iter_keys_and_values",
    "canonical_json",
    "hash_value",
    "value_token",
    "deep_get",
    "deep_merge",
]


class TypeTag(enum.IntEnum):
    """Type tags in total-order position (smaller tag sorts first)."""

    NULL = 0
    BOOL = 1
    NUMBER = 2
    STRING = 3
    ARRAY = 4
    OBJECT = 5


_SCALAR_TAGS = (TypeTag.NULL, TypeTag.BOOL, TypeTag.NUMBER, TypeTag.STRING)

# The exact Python types of the value algebra.  Nearly every value the engine
# meets has one of them, and a lookup on ``type(value)`` answers several times
# faster than the ``isinstance`` chain; subclasses (``IntEnum``,
# ``OrderedDict`` …) miss the table and take the chain, which decides alone.
_TAG_OF_TYPE = {
    type(None): TypeTag.NULL,
    bool: TypeTag.BOOL,
    int: TypeTag.NUMBER,
    float: TypeTag.NUMBER,
    str: TypeTag.STRING,
    list: TypeTag.ARRAY,
    tuple: TypeTag.ARRAY,
    dict: TypeTag.OBJECT,
}

# Exact types whose own ``==`` / ``<`` *are* the total order when both sides
# have the same one.  ``bool`` is left out (it sorts before every number) and
# so is any int-vs-float pair: those go through the tags.
_SAME_TYPE_ORDERED = frozenset((str, int, float))


def type_of(value: Any) -> TypeTag:
    """Return the :class:`TypeTag` of a model value.

    Raises :class:`DataModelError` for objects outside the value algebra.
    """
    tag = _TAG_OF_TYPE.get(type(value))
    if tag is not None:
        return tag
    if value is None:
        return TypeTag.NULL
    if isinstance(value, bool):
        return TypeTag.BOOL
    if isinstance(value, (int, float)):
        return TypeTag.NUMBER
    if isinstance(value, str):
        return TypeTag.STRING
    if isinstance(value, (list, tuple)):
        return TypeTag.ARRAY
    if isinstance(value, dict):
        return TypeTag.OBJECT
    raise DataModelError(
        f"value of Python type {type(value).__name__!r} is outside the "
        "unified data model (expected None/bool/number/str/list/dict)"
    )


def type_name(value: Any) -> str:
    """Human-readable type name used in error messages and EXPLAIN output."""
    return type_of(value).name.lower()


def normalize(value: Any) -> Any:
    """Return a canonical copy of *value* inside the value algebra.

    Tuples become lists, dict keys must be strings, NaN is rejected (it has
    no place in a total order), and nested values are normalized recursively.
    The returned structure shares no mutable state with the input, so stores
    can keep it without fear of aliasing.
    """
    tag = type_of(value)
    if tag is TypeTag.NUMBER:
        if isinstance(value, float) and math.isnan(value):
            raise DataModelError("NaN is not representable in the data model")
        return value
    if tag in _SCALAR_TAGS:
        return value
    if tag is TypeTag.ARRAY:
        return [normalize(item) for item in value]
    # OBJECT
    out = {}
    for key, item in value.items():
        if not isinstance(key, str):
            raise DataModelError(
                f"object keys must be strings, got {type(key).__name__!r}"
            )
        out[key] = normalize(item)
    return out


def compare(left: Any, right: Any) -> int:
    """Three-way comparison under the cross-type total order.

    Returns a negative number, zero, or a positive number as *left* is less
    than, equal to, or greater than *right*.  Arrays compare element-wise
    then by length; objects compare by their sorted key sequence, then by
    the values of those keys in key order (the ArangoDB object order).
    """
    kind = type(left)
    if kind is type(right) and kind in _SAME_TYPE_ORDERED:
        if left == right:
            return 0
        return -1 if left < right else 1
    ltag = type_of(left)
    rtag = type_of(right)
    if ltag is not rtag:
        # bool is an int subclass in Python; the tag check already separates
        # them, so plain subtraction gives the cross-type order.
        return int(ltag) - int(rtag)
    if ltag is TypeTag.NULL:
        return 0
    if ltag in (TypeTag.BOOL, TypeTag.NUMBER, TypeTag.STRING):
        if left == right:
            return 0
        return -1 if left < right else 1
    if ltag is TypeTag.ARRAY:
        for litem, ritem in zip(left, right):
            result = compare(litem, ritem)
            if result != 0:
                return result
        return len(left) - len(right)
    # OBJECT
    lkeys = sorted(left)
    rkeys = sorted(right)
    result = compare(lkeys, rkeys)
    if result != 0:
        return result
    for key in lkeys:
        result = compare(left[key], right[key])
        if result != 0:
            return result
    return 0


def values_equal(left: Any, right: Any) -> bool:
    """Deep equality under the data model (1 == 1.0, but 1 != true)."""
    kind = type(left)
    if kind is type(right) and kind in _SAME_TYPE_ORDERED:
        return left == right
    return compare(left, right) == 0


def truthy(value: Any) -> bool:
    """AQL-style truthiness: null/false/0/'' are false, everything else
    (including empty arrays and objects, per ArangoDB) is true."""
    tag = type_of(value)
    if tag is TypeTag.NULL:
        return False
    if tag is TypeTag.BOOL:
        return value
    if tag is TypeTag.NUMBER:
        return value != 0
    if tag is TypeTag.STRING:
        return value != ""
    return True


class SortKey:
    """Adapter making any model value usable as a Python sort key.

    ``sorted(rows, key=lambda r: SortKey(r["age"]))`` gives the engine's
    total order even for heterogeneous columns.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "SortKey") -> bool:
        # Sorting, ``min`` and zone maps live in this method, so it answers
        # same-typed scalars itself rather than through ``compare``.
        left, right = self.value, other.value
        kind = type(left)
        if kind is type(right) and kind in _SAME_TYPE_ORDERED:
            return left < right
        return compare(left, right) < 0

    def __le__(self, other: "SortKey") -> bool:
        return compare(self.value, other.value) <= 0

    def __gt__(self, other: "SortKey") -> bool:
        return compare(self.value, other.value) > 0

    def __ge__(self, other: "SortKey") -> bool:
        return compare(self.value, other.value) >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortKey):
            return NotImplemented
        return compare(self.value, other.value) == 0

    def __hash__(self) -> int:
        return hash_value(self.value)

    def __repr__(self) -> str:
        return f"SortKey({self.value!r})"


def contains(haystack: Any, needle: Any) -> bool:
    """JSONB ``@>`` containment (slide 82's containment operator).

    * scalars contain equal scalars;
    * an object contains another object when every key/value pair of the
      needle is contained in the corresponding haystack entry;
    * an array contains another array when every element of the needle is
      contained in *some* element of the haystack (order-insensitive, as in
      PostgreSQL);
    * following PostgreSQL, an array also contains a bare scalar that equals
      one of its elements.
    """
    htag = type_of(haystack)
    ntag = type_of(needle)
    if htag is TypeTag.ARRAY and ntag in _SCALAR_TAGS:
        return any(contains(item, needle) for item in haystack)
    if htag is not ntag:
        return False
    if htag is TypeTag.OBJECT:
        return all(
            key in haystack and contains(haystack[key], value)
            for key, value in needle.items()
        )
    if htag is TypeTag.ARRAY:
        return all(
            any(contains(hitem, nitem) for hitem in haystack)
            for nitem in needle
        )
    return values_equal(haystack, needle)


def iter_paths(value: Any, _prefix: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """Yield ``(path, leaf)`` pairs for every leaf in a nested value.

    Paths are tuples of object keys (``str``) and the marker ``"[]"`` for
    array nesting (array positions are deliberately *not* part of the path:
    PostgreSQL's ``jsonb_path_ops`` hashes key chains, not positions).  This
    is the decomposition both GIN modes build on.
    """
    tag = type_of(value)
    if tag is TypeTag.OBJECT:
        if not value:
            yield _prefix, {}
        for key, item in value.items():
            yield from iter_paths(item, _prefix + (key,))
    elif tag is TypeTag.ARRAY:
        if not value:
            yield _prefix, []
        for item in value:
            yield from iter_paths(item, _prefix + ("[]",))
    else:
        yield _prefix, value


def iter_keys_and_values(value: Any) -> Iterator[tuple[str, Any]]:
    """Yield the ``jsonb_ops`` decomposition: every key and every scalar
    value as independent index items (slide 82: "independent index items for
    each key and value in the data").

    Items are tagged ``("K", key)`` and ``("V", scalar)`` so that a key named
    ``"42"`` never collides with the value ``"42"``.
    """
    tag = type_of(value)
    if tag is TypeTag.OBJECT:
        for key, item in value.items():
            yield "K", key
            yield from iter_keys_and_values(item)
    elif tag is TypeTag.ARRAY:
        for item in value:
            yield from iter_keys_and_values(item)
    else:
        yield "V", value


def canonical_json(value: Any) -> str:
    """Deterministic JSON serialization (sorted keys, minimal separators).

    Used for hashing, checkpoint files and the WAL, so two equal values
    always serialize identically.
    """
    return json.dumps(normalize(value), sort_keys=True, separators=(",", ":"))


def _canonical_for_hash(value: Any) -> Any:
    """Map compare-equal values to one representative (1.0 → 1) so that
    ``compare(a, b) == 0`` implies ``hash_value(a) == hash_value(b)``."""
    tag = type_of(value)
    if tag is TypeTag.NUMBER:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value
    if tag is TypeTag.ARRAY:
        return [_canonical_for_hash(item) for item in value]
    if tag is TypeTag.OBJECT:
        return {key: _canonical_for_hash(item) for key, item in value.items()}
    return value


def hash_value(value: Any) -> int:
    """Stable 64-bit hash of any model value.

    Unlike Python's :func:`hash`, this is stable across processes (no string
    hash randomization), which the hash indexes and the ``jsonb_path_ops``
    GIN mode rely on for reproducible benchmarks.  Compare-equal values hash
    equally (1 and 1.0 produce the same digest).
    """
    # A scalar's canonical JSON is one token, written here the way
    # ``json.dumps`` writes it; the digest is the general path's bit for bit
    # (hash indexes and GIN postings persist it).
    kind = type(value)
    if kind is str:
        text = encode_basestring_ascii(value)
    elif kind is int:
        text = repr(value)
    elif kind is float and math.isfinite(value):
        text = repr(int(value)) if value.is_integer() else repr(value)
    else:
        text = canonical_json(_canonical_for_hash(value))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def value_token(value: Any) -> Any:
    """Hashable token of a model value, equal for two values exactly when
    :func:`compare` calls them equal: a string, an int, ``None`` and a
    non-integral float are their own token, an integral float is its int
    (1 and 1.0 meet), a boolean is tagged apart from the numbers, and an
    array or object becomes a nested tuple of its elements' tokens (an
    object's by sorted key).  No digest, so no collision: sets and dicts
    keyed by it need no equality check behind them."""
    kind = type(value)
    if kind is str or kind is int or value is None:
        return value
    if kind is float:
        return int(value) if value.is_integer() else value
    if kind is bool:
        return ("$bool", value)
    if kind is list or kind is tuple:
        return ("$array", *map(value_token, value))
    if kind is dict:
        return ("$object", *sorted(
            (key, value_token(item)) for key, item in value.items()
        ))
    # A subclass (IntEnum, OrderedDict …) tokenizes as its model type;
    # anything outside the model raises here, as type_of does.
    tag = type_of(value)
    if tag is TypeTag.NUMBER:
        return value_token(float(value) if isinstance(value, float) else int(value))
    return value_token((None, bool, None, str, list, dict)[tag](value))


_MISSING = object()


def deep_get(value: Any, path: tuple) -> Any:
    """Navigate *path* (a tuple of ``str`` keys and ``int`` positions)
    through nested objects/arrays; missing steps yield ``None`` (the AQL
    convention) rather than raising."""
    current = value
    for step in path:
        if type(current) is dict and type(step) is str:
            current = current.get(step, _MISSING)
            if current is _MISSING:
                return None
            continue
        tag = type_of(current)
        if isinstance(step, str):
            if tag is not TypeTag.OBJECT or step not in current:
                return None
            current = current[step]
        elif isinstance(step, int):
            if tag is not TypeTag.ARRAY:
                return None
            if not -len(current) <= step < len(current):
                return None
            current = current[step]
        else:
            raise TypeMismatchError(
                f"path steps must be str or int, got {type(step).__name__!r}"
            )
    return current


def deep_merge(base: Any, patch: Any) -> Any:
    """Recursive object merge used by document ``UPDATE`` (RFC 7396 flavour:
    object fields merge recursively, any other type replaces, and an explicit
    ``None`` in the patch overwrites)."""
    if type_of(base) is TypeTag.OBJECT and type_of(patch) is TypeTag.OBJECT:
        merged = dict(base)
        for key, value in patch.items():
            if key in merged:
                merged[key] = deep_merge(merged[key], value)
            else:
                merged[key] = normalize(value)
        return merged
    return normalize(patch)
