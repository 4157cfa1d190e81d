"""Tests for extendible hashing, bitmap and bit-slice indexes."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    ConstraintViolationError,
    UnsupportedIndexOperationError,
)
from repro.indexes import hashindex
from repro.indexes.bitmap import BitmapIndex, BitSliceIndex
from repro.indexes.hashindex import ExtendibleHashIndex


class TestExtendibleHash:
    def test_insert_search_delete(self):
        index = ExtendibleHashIndex(bucket_capacity=2)
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 3)
        assert sorted(index.search("a")) == [1, 2]
        index.delete("a", 1)
        assert index.search("a") == [2]
        index.delete("a", 2)
        assert index.search("a") == []
        assert len(index) == 1

    def test_directory_doubles_under_load(self):
        index = ExtendibleHashIndex(bucket_capacity=2)
        initial = index.directory_size
        for i in range(200):
            index.insert(f"key-{i}", i)
        assert index.directory_size > initial
        for i in range(200):
            assert index.search(f"key-{i}") == [i]

    def test_unique_violation(self):
        index = ExtendibleHashIndex(unique=True)
        index.insert("k", 1)
        with pytest.raises(ConstraintViolationError):
            index.insert("k", 2)

    def test_no_range_queries(self):
        index = ExtendibleHashIndex()
        with pytest.raises(UnsupportedIndexOperationError):
            index.range_search(1, 10)

    def test_composite_keys(self):
        index = ExtendibleHashIndex()
        index.insert({"a": 1, "b": [2, 3]}, "rid")
        assert index.search({"b": [2, 3], "a": 1}) == ["rid"]

    def test_numeric_equivalence(self):
        index = ExtendibleHashIndex()
        index.insert(1, "rid")
        assert index.search(1.0) == ["rid"]

    def test_delete_missing_is_noop(self):
        index = ExtendibleHashIndex()
        index.delete("ghost", 1)
        assert len(index) == 0

    def test_clear(self):
        index = ExtendibleHashIndex(bucket_capacity=2)
        for i in range(50):
            index.insert(i, i)
        index.clear()
        assert len(index) == 0
        assert index.search(5) == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=6), st.integers(0, 5)), max_size=200))
    def test_matches_reference_dict(self, pairs):
        index = ExtendibleHashIndex(bucket_capacity=3)
        reference: dict[str, list[int]] = {}
        for key, rid in pairs:
            index.insert(key, rid)
            reference.setdefault(key, []).append(rid)
        for key, rids in reference.items():
            assert sorted(index.search(key)) == sorted(rids)

    def test_digest_collision_overflows_instead_of_splitting(self, monkeypatch):
        # Distinct keys sharing one digest: no split can separate them, so
        # the full bucket must take the third key rather than split forever.
        monkeypatch.setattr(hashindex, "hash_value", lambda key: 12345)
        splits = []
        split = ExtendibleHashIndex._split_bucket

        def bounded_split(self, hashed):
            splits.append(hashed)
            if len(splits) > 16:  # each split here doubles the directory
                raise RuntimeError("split loop on one digest")
            split(self, hashed)

        monkeypatch.setattr(ExtendibleHashIndex, "_split_bucket", bounded_split)
        index = ExtendibleHashIndex(bucket_capacity=2)
        outcome = []

        def insert_three():
            for key in ("a", "b", "c"):
                index.insert(key, key.upper())
            outcome.append("done")

        worker = threading.Thread(target=insert_three, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert outcome == ["done"], f"insert did not return ({len(splits)} splits)"
        assert [index.search(key) for key in "abc"] == [["A"], ["B"], ["C"]]
        index.delete("b", "B")
        assert index.search("b") == [] and index.search("c") == ["C"]
        assert len(index) == 2


def _check_directory(index):
    """The extendible-hashing invariants over the private directory."""
    directory = index._directory
    depth = index.global_depth
    assert len(directory) == 1 << depth
    for slot, bucket in enumerate(directory):
        assert bucket.local_depth <= depth
        mask = (1 << bucket.local_depth) - 1
        # Every slot agreeing on the low local-depth bits shares the bucket,
        # and every entry in it hashes there.
        for other in range(slot & mask, len(directory), mask + 1):
            assert directory[other] is bucket
        for entry in bucket.entries:
            assert entry[0] & mask == slot & mask


_HASH_OPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 3)), max_size=150
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 3), _HASH_OPS)
def test_extendible_hash_invariants(capacity, operations):
    index = ExtendibleHashIndex(bucket_capacity=capacity)
    model: dict[int, list[int]] = {}
    for insert, key, rid in operations:
        if insert:
            index.insert(key, rid)
            model.setdefault(key, []).append(rid)
        else:
            index.delete(key, rid)
            if rid in model.get(key, ()):
                model[key].remove(rid)
                if not model[key]:
                    del model[key]
        _check_directory(index)
    for key in range(41):
        assert sorted(index.search(key)) == sorted(model.get(key, []))
    assert len(index) == len(model)
    assert index.entry_count == sum(map(len, model.values()))


class TestBitmapIndex:
    def _build(self):
        index = BitmapIndex()
        cities = ["Prague", "Helsinki", "Prague", "Brno", "Helsinki", "Prague"]
        for rid, city in enumerate(cities):
            index.insert(city, rid)
        return index

    def test_search(self):
        index = self._build()
        assert index.search("Prague") == [0, 2, 5]
        assert index.search("Oslo") == []

    def test_count_without_row_access(self):
        index = self._build()
        assert index.count("Helsinki") == 2

    def test_or_and_not(self):
        index = self._build()
        assert index.search_any(["Brno", "Helsinki"]) == [1, 3, 4]
        assert index.search_not("Prague") == [1, 3, 4]

    def test_intersect_count_across_indexes(self):
        city = BitmapIndex()
        active = BitmapIndex()
        rows = [("Prague", True), ("Prague", False), ("Brno", True)]
        for rid, (c, a) in enumerate(rows):
            city.insert(c, rid)
            active.insert(a, rid)
        assert city.intersect_count(active, "Prague", True) == 1

    def test_delete(self):
        index = self._build()
        index.delete("Prague", 0)
        assert index.search("Prague") == [2, 5]

    def test_distinct_values(self):
        index = self._build()
        assert sorted(index.distinct_values()) == ["Brno", "Helsinki", "Prague"]

    def test_reinsert_same_rid_new_value(self):
        index = BitmapIndex()
        index.insert("a", 0)
        index.delete("a", 0)
        index.insert("b", 0)
        assert index.search("a") == []
        assert index.search("b") == [0]


class TestBitSliceIndex:
    def test_sum_count_avg(self):
        index = BitSliceIndex()
        prices = [66, 40, 34, 100, 0]
        for rid, price in enumerate(prices):
            index.insert(price, rid)
        assert index.total() == sum(prices)
        assert index.count() == 5
        assert index.average() == pytest.approx(sum(prices) / 5)

    def test_filtered_aggregate_with_bitmap(self):
        amounts = BitSliceIndex()
        city = BitmapIndex()
        rows = [(66, "Prague"), (40, "Prague"), (34, "Helsinki")]
        for rid, (amount, c) in enumerate(rows):
            amounts.insert(amount, rid)
            city.insert(c, rid)
        prague = city.bitmap_for("Prague")
        assert amounts.total(prague) == 106
        assert amounts.count(prague) == 2
        assert amounts.average(prague) == pytest.approx(53.0)

    def test_update_replaces_value(self):
        index = BitSliceIndex()
        index.insert(10, "r")
        index.insert(25, "r")
        assert index.total() == 25

    def test_delete(self):
        index = BitSliceIndex()
        index.insert(10, "a")
        index.insert(5, "b")
        index.delete(10, "a")
        assert index.total() == 5
        assert index.count() == 1

    def test_rejects_non_integers(self):
        index = BitSliceIndex()
        with pytest.raises(UnsupportedIndexOperationError):
            index.insert(1.5, "r")
        with pytest.raises(UnsupportedIndexOperationError):
            index.insert(-1, "r")

    def test_no_point_lookup(self):
        index = BitSliceIndex()
        with pytest.raises(UnsupportedIndexOperationError):
            index.search(5)

    def test_average_of_empty(self):
        assert BitSliceIndex().average() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 10_000), max_size=60))
    def test_sum_matches_python(self, values):
        index = BitSliceIndex()
        for rid, value in enumerate(values):
            index.insert(value, rid)
        assert index.total() == sum(values)
