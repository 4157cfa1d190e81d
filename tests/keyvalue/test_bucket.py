"""Key/value bucket tests: simple API, TTL, counters, prefix scans."""

import pytest

from repro.core.context import EngineContext
from repro.errors import DataModelError
from repro.keyvalue import KeyValueBucket


@pytest.fixture()
def bucket():
    return KeyValueBucket(EngineContext(), "cart")


class TestSimpleApi:
    def test_put_get_delete(self, bucket):
        # The shopping cart of slide 27: customer id -> order number.
        bucket.put("1", "34e5e759")
        bucket.put("2", "0c6df508")
        assert bucket.get("1") == "34e5e759"
        assert bucket.delete("1")
        assert bucket.get("1") is None
        assert not bucket.delete("1")

    def test_overwrite(self, bucket):
        bucket.put("k", 1)
        bucket.put("k", 2)
        assert bucket.get("k") == 2

    def test_complex_values(self, bucket):
        bucket.put("k", {"nested": [1, {"deep": True}]})
        assert bucket.get("k")["nested"][1]["deep"] is True

    def test_non_string_key(self, bucket):
        with pytest.raises(DataModelError):
            bucket.put(1, "x")

    def test_get_many(self, bucket):
        bucket.put("a", 1)
        bucket.put("b", 2)
        assert bucket.get_many(["a", "b", "z"]) == {"a": 1, "b": 2}

    def test_keys_and_items(self, bucket):
        bucket.put("a", 1)
        bucket.put("b", 2)
        assert sorted(bucket.keys()) == ["a", "b"]
        assert {
            frame["_key"]: frame["value"] for frame in bucket.scan_cursor()
        } == {"a": 1, "b": 2}

    def test_scan_prefix(self, bucket):
        bucket.put("user:1", "a")
        bucket.put("user:2", "b")
        bucket.put("order:1", "c")
        assert sorted(
            (frame["_key"], frame["value"])
            for frame in bucket.scan_cursor(prefix="user:")
        ) == [("user:1", "a"), ("user:2", "b")]


class TestTtl:
    def test_expiry_on_logical_clock(self, bucket):
        bucket.put("session", "alive", ttl=3)
        bucket.tick(2)
        assert bucket.get("session") == "alive"
        bucket.tick(1)
        assert bucket.get("session") is None

    def test_expired_hidden_from_scans(self, bucket):
        bucket.put("gone", 1, ttl=1)
        bucket.put("kept", 2)
        bucket.tick(1)
        assert list(bucket.keys()) == ["kept"]
        assert list(bucket.scan_cursor()) == [{"_key": "kept", "value": 2}]

    def test_purge_expired(self, bucket):
        bucket.put("a", 1, ttl=1)
        bucket.put("b", 2, ttl=1)
        bucket.put("c", 3)
        bucket.tick(1)
        assert bucket.purge_expired() == 2
        assert bucket.count() == 1

    def test_no_ttl_never_expires(self, bucket):
        bucket.put("k", 1)
        bucket.tick(1000)
        assert bucket.get("k") == 1


class TestCounters:
    def test_increment(self, bucket):
        assert bucket.increment("hits") == 1
        assert bucket.increment("hits", 5) == 6
        assert bucket.increment("hits", -2) == 4

    def test_increment_non_number(self, bucket):
        bucket.put("k", "text")
        with pytest.raises(DataModelError):
            bucket.increment("k")


class TestTransactions:
    def test_transactional_cart_update(self, bucket):
        manager = bucket._context.transactions
        txn = manager.begin()
        bucket.put("1", "order-42", txn=txn)
        assert bucket.get("1") is None
        manager.commit(txn)
        assert bucket.get("1") == "order-42"

    def test_abort(self, bucket):
        manager = bucket._context.transactions
        bucket.put("1", "original")
        txn = manager.begin()
        bucket.put("1", "changed", txn=txn)
        manager.abort(txn)
        assert bucket.get("1") == "original"
