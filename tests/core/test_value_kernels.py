"""The value kernels' exact-type fast paths against the general paths.

``type_of`` / ``compare`` / ``values_equal`` / ``SortKey`` / ``deep_get`` /
``hash_value`` answer the common exact types (``str``, ``int``, ``float``,
``dict`` …) without the tag dispatch.  The references below are the general
semantics written out again, independent of the module's own fallbacks, and
subclasses (``IntEnum``, ``OrderedDict``, ``str`` subclasses) exercise those
fallbacks inside the module.
"""

import enum
import hashlib
import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datamodel import (
    SortKey,
    TypeTag,
    _canonical_for_hash,
    canonical_json,
    compare,
    deep_get,
    hash_value,
    type_of,
    values_equal,
)
from repro.errors import DataModelError, TypeMismatchError


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


class Text(str):
    pass


class Real(float):
    pass


# -- strategies -------------------------------------------------------------

#: Non-ASCII, escapes, quotes, lone surrogates, NUL: what JSON has to quote.
texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["", "Prague", "žluťoučký", 'quo"te', "back\\slash", "new\nline",
         "\x00\x1f", "\ud800", "日本", "\U0001f600"]
    ),
)
numbers = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),  # NaN is outside the algebra: normalize() rejects it
    st.sampled_from([0, -0.0, 0.0, 1, 1.0, 2**63, -(2**63) - 1, 2**64 + 1, 1e300, -1e-300]),
)
scalars = st.one_of(
    st.none(), st.booleans(), numbers, texts,
    st.sampled_from([Colour.RED, Colour.BLUE, Text("sub"), Real(2.5)]),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(texts, children, max_size=3).map(OrderedDict),
    )


values = st.recursive(scalars, _containers, max_leaves=12)


# -- references: the general semantics, written out ---------------------------


def type_of_reference(value):
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
    raise DataModelError("outside the model")


def compare_reference(left, right):
    ltag, rtag = type_of_reference(left), type_of_reference(right)
    if ltag is not rtag:
        return int(ltag) - int(rtag)
    if ltag is TypeTag.NULL:
        return 0
    if ltag in (TypeTag.BOOL, TypeTag.NUMBER, TypeTag.STRING):
        if left == right:
            return 0
        return -1 if left < right else 1
    if ltag is TypeTag.ARRAY:
        for litem, ritem in zip(left, right):
            result = compare_reference(litem, ritem)
            if result != 0:
                return result
        return len(left) - len(right)
    lkeys, rkeys = sorted(left), sorted(right)
    result = compare_reference(lkeys, rkeys)
    if result != 0:
        return result
    for key in lkeys:
        result = compare_reference(left[key], right[key])
        if result != 0:
            return result
    return 0


def deep_get_reference(value, path):
    current = value
    for step in path:
        tag = type_of_reference(current)
        if isinstance(step, str):
            if tag is not TypeTag.OBJECT or step not in current:
                return None
            current = current[step]
        elif isinstance(step, int):
            if tag is not TypeTag.ARRAY or not -len(current) <= step < len(current):
                return None
            current = current[step]
        else:
            raise TypeMismatchError("bad step")
    return current


def hash_reference(value):
    text = canonical_json(_canonical_for_hash(value))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sign(number):
    return (number > 0) - (number < 0)


# -- type_of ------------------------------------------------------------------


@given(values)
def test_type_of_equals_the_isinstance_chain(value):
    assert type_of(value) is type_of_reference(value)


def test_type_of_subclasses_take_the_chain_and_strangers_are_refused():
    assert type_of(Colour.RED) is TypeTag.NUMBER
    assert type_of(True) is TypeTag.BOOL and type_of(1) is TypeTag.NUMBER
    assert type_of(Text("x")) is TypeTag.STRING
    assert type_of(OrderedDict(a=1)) is TypeTag.OBJECT
    assert type_of((1, 2)) is TypeTag.ARRAY
    for stranger in (object(), {1, 2}, b"bytes", 1j):
        with pytest.raises(DataModelError):
            type_of(stranger)


# -- compare / values_equal / SortKey -------------------------------------------


@settings(max_examples=400)
@given(values, values)
def test_compare_equals_the_general_order_and_is_antisymmetric(left, right):
    expected = sign(compare_reference(left, right))
    assert sign(compare(left, right)) == expected
    assert sign(compare(right, left)) == -expected
    assert values_equal(left, right) is (expected == 0)
    assert (SortKey(left) < SortKey(right)) is (expected < 0)
    assert (SortKey(left) > SortKey(right)) is (expected > 0)
    assert (SortKey(left) <= SortKey(right)) is (expected <= 0)
    assert (SortKey(left) >= SortKey(right)) is (expected >= 0)
    assert (SortKey(left) == SortKey(right)) is (expected == 0)


@given(st.lists(scalars, max_size=12))
def test_sorting_by_sortkey_equals_sorting_by_the_general_order(items):
    import functools

    expected = sorted(items, key=functools.cmp_to_key(compare_reference))
    got = sorted(items, key=SortKey)
    assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]
    if items:
        assert compare_reference(min(items, key=SortKey), expected[0]) == 0
        assert compare_reference(max(items, key=SortKey), expected[-1]) == 0


def test_compare_corner_cases_that_must_not_take_the_fast_path():
    assert compare(1, 1.0) == 0 and values_equal(1.0, 1)
    assert compare(True, 1) < 0 and not values_equal(True, 1)  # bool < number
    assert compare(False, 0) < 0 and compare(-5, False) > 0
    assert compare(Colour.RED, 1) == 0 and compare(Colour.BLUE, 7.0) == 0
    assert compare(Colour.RED, True) > 0
    assert compare(Text("a"), "b") < 0 and values_equal(Text("a"), "a")
    assert compare(2**64 + 1, 2**64) > 0 and compare(2**64, float(2**64)) == 0
    assert compare((1, 2), [1, 2]) == 0 and compare([1, 2], (1, 3)) < 0
    assert compare(OrderedDict(b=1, a=2), {"a": 2, "b": 1}) == 0
    assert compare("é", "z") > 0 and compare("Z", "a") < 0  # code points
    assert compare(None, False) < 0 and compare("", []) < 0 < compare({}, [])
    assert compare(-0.0, 0.0) == 0 and compare(-0.0, 0) == 0


# -- deep_get -------------------------------------------------------------------

steps = st.one_of(
    texts, st.sampled_from(["a", "b", "missing", Text("a")]),
    st.integers(min_value=-4, max_value=4),
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), children, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b"]), children, max_size=2).map(
            OrderedDict
        ),
    ),
    max_leaves=10,
)


@settings(max_examples=400)
@given(documents, st.lists(steps, max_size=4).map(tuple))
def test_deep_get_equals_the_tagged_walk(document, path):
    assert deep_get(document, path) == deep_get_reference(document, path)
    assert type(deep_get(document, path)) is type(deep_get_reference(document, path))


def test_deep_get_corner_cases():
    row = {"a": {"b": None, "c": [10, 20, 30]}, "n": 5, "od": OrderedDict(x=1)}
    assert deep_get(row, ()) is row
    assert deep_get(row, ("missing",)) is None
    assert deep_get(row, ("missing", "deeper", 0)) is None
    assert deep_get(row, ("a", "b")) is None            # explicit None …
    assert deep_get(row, ("a", "b", "under")) is None   # … and below it
    assert deep_get(row, ("a", "c", -1)) == 30
    assert deep_get(row, ("a", "c", -4)) is None and deep_get(row, ("a", "c", 3)) is None
    assert deep_get(row, ("n", "x")) is None            # non-dict mid-path
    assert deep_get(row, ("a", 0)) is None              # int step into an object
    assert deep_get(row, ("od", "x")) == 1              # a dict subclass
    assert deep_get(row, (Text("n"),)) == 5             # a str subclass step
    with pytest.raises(TypeMismatchError):
        deep_get(row, ("a", 1.5))
    # A missing key ends the walk before a bad step is looked at.
    assert deep_get(row, ("missing", 1.5)) is None


# -- hash_value -----------------------------------------------------------------


@settings(max_examples=400)
@given(values)
def test_hash_value_is_the_digest_of_the_canonical_json(value):
    assert hash_value(value) == hash_reference(value)


@given(numbers, numbers)
def test_compare_equal_numbers_hash_equally(left, right):
    if compare(left, right) == 0:
        assert hash_value(left) == hash_value(right)


def test_hash_value_corner_cases():
    assert hash_value(1) == hash_value(1.0) == hash_value(Colour.RED)
    assert hash_value(-0.0) == hash_value(0)
    assert hash_value(True) != hash_value(1)
    assert hash_value(Text("a")) == hash_value("a")
    assert hash_value(math.inf) == hash_reference(math.inf)
    assert hash_value(1e300) == hash_reference(1e300)
    with pytest.raises(DataModelError):
        hash_value(math.nan)


#: Digests computed by the commit before the fast paths existed.  Hash
#: indexes and ``jsonb_path_ops`` postings are keyed by these numbers: a
#: kernel change that moves one silently re-keys every persisted structure.
GOLDEN_DIGESTS = [
    ("Prague", 15399687776752924505),
    ('žluťoučký "kůň"\n\\', 12210263686970263489),
    (42, 6319743179241711738),
    (-(2**70), 17943610481401738612),
    (12.5, 17330732721694045969),
    (3.0, 11395541944195714561),
    (True, 17683794913757820479),
    (None, 8320033950756688494),
    ([1, "a", None], 4395371769010670040),
    ({"b": 1.0, "a": [True]}, 13993686841425735947),
]


@pytest.mark.parametrize("value,digest", GOLDEN_DIGESTS, ids=repr)
def test_golden_digests(value, digest):
    assert hash_value(value) == digest
