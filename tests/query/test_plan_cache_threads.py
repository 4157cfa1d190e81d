"""Regression: the plan cache and catalog survive concurrent hammering.

Before the network layer, ``PlanCache`` mutated an ``OrderedDict`` with no
lock; concurrent ``move_to_end`` during an eviction sweep corrupts the
linked list (KeyError/RuntimeError or a silently wrong LRU).  These tests
hammer both the cache directly and a shared database through
``db.query()`` the way the server's thread pool does."""

import threading

import pytest

from repro import MultiModelDB
from repro.query import shapes
from repro.query.engine import PlanCache


class TestPlanCacheThreadSafety:
    def test_direct_hammer_many_threads_small_capacity(self):
        cache = PlanCache(capacity=4)
        versions = (0, 0)
        errors: list = []
        barrier = threading.Barrier(8)

        def hammer(tag: int) -> None:
            try:
                barrier.wait(timeout=10)
                for round_ in range(300):
                    statement = shapes.literal_statement(f"RETURN {tag}_{round_ % 9}")
                    key = PlanCache.statement_key(statement, None, True)
                    plan = cache.get(key, versions)
                    if plan is None:
                        cache.put(key, f"plan-{tag}-{round_}", versions)
                    if round_ % 97 == 0:
                        cache.resize(3 if round_ % 2 else 5)
                    if round_ % 151 == 0:
                        cache.entries()
                        cache.stats()
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(repr(error))

        threads = [
            threading.Thread(target=hammer, args=(tag,)) for tag in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        assert len(cache) <= cache.capacity
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 300

    def test_queries_from_threads_share_one_database(self):
        db = MultiModelDB(plan_cache_size=8)
        items = db.create_collection("items")
        for index in range(50):
            items.insert({"n": index, "bucket": index % 5})
        # More distinct statements than cache slots → constant eviction
        # races against LRU touches from cache hits.
        statements = [
            (f"FOR i IN items FILTER i.bucket == {bucket} RETURN i.n", bucket)
            for bucket in range(5)
        ] + [
            ("FOR i IN items FILTER i.n == @n RETURN i.n", None),
            ("FOR i IN items FILTER i.n < @n RETURN i.n", None),
            ("FOR i IN items SORT i.n LIMIT 3 RETURN i.n", None),
            ("RETURN LENGTH(FOR i IN items RETURN 1)", None),
            ("FOR i IN items FILTER i.bucket == @n RETURN i.n", None),
        ]
        errors: list = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=10)
                for round_ in range(40):
                    text, bucket = statements[(seed + round_) % len(statements)]
                    binds = {"n": round_ % 7} if "@n" in text else {}
                    result = db.query(text, binds)
                    if bucket is not None:
                        assert result.rows == [
                            n for n in range(50) if n % 5 == bucket
                        ]
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:3]
        assert len(db.plan_cache) <= db.plan_cache.capacity

    def test_literal_values_from_threads_share_one_shape(self):
        """Texts that differ in their literals churn the text→shape memo
        (four slots, thirty texts) while every thread reads it: each call
        must still run with its own literal."""
        import sys

        db = MultiModelDB(plan_cache_size=4)
        items = db.create_collection("items")
        for index in range(30):
            items.insert({"n": index, "tag": f"t{index}"})
        errors: list = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=10)
                for round_ in range(60):
                    value = (seed * 7 + round_) % 30
                    rows = db.query(
                        f"FOR i IN items FILTER i.n == {value} "
                        f"AND i.tag == 't{value}' RETURN i.n"
                    ).rows
                    assert rows == [value], (value, rows)
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert len(db.plan_cache._shapes) <= db.plan_cache.capacity
        stats = db.plan_cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 60
        assert len(db.plan_cache) == 1

    def test_skeletons_from_threads_churn_and_share_one_shape(self):
        """Twelve skeletons of one shape (the spacing before RETURN is part
        of a skeleton, not of the shape) churn the four-slot skeleton memo
        while every thread reads it: each call runs with its own literals,
        and the one plan serves them all."""
        import sys

        db = MultiModelDB(plan_cache_size=4)
        items = db.create_collection("items")
        for index in range(30):
            items.insert({"n": index, "tag": f"t{index}"})
        errors: list = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=10)
                for round_ in range(60):
                    value = (seed * 11 + round_) % 30
                    spaces = " " * (1 + (seed + round_) % 12)
                    rows = db.query(
                        f"FOR i IN items FILTER i.n == {value} "
                        f"AND i.tag == 't{value}'{spaces}RETURN i.n"
                    ).rows
                    assert rows == [value], (value, rows)
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        cache = db.plan_cache
        assert len(cache._skeletons) <= cache.capacity
        assert len(cache._shapes) <= cache.capacity
        assert all(
            isinstance(template, shapes.Template)
            for template in cache._skeletons.values()
        )
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 60
        assert len(cache) == 1


class TestCatalogThreadSafety:
    def test_concurrent_register_and_lookup(self):
        db = MultiModelDB()
        db.create_collection("anchor")
        errors: list = []
        barrier = threading.Barrier(6)

        def ddl(tag: int) -> None:
            try:
                barrier.wait(timeout=10)
                for round_ in range(40):
                    name = f"c_{tag}_{round_}"
                    db.create_collection(name)
                    assert db.kind_of(name) == "collection"
                    db.drop(name)
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        def reader() -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(200):
                    assert db.resolve("anchor") is not None
                    db.catalog()
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        threads = [
            threading.Thread(target=ddl, args=(tag,)) for tag in range(3)
        ] + [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]
        # Every transient object dropped again: only the anchor remains.
        assert db.catalog() == {"anchor": "collection"}

    def test_duplicate_register_race_yields_exactly_one_winner(self):
        from repro.errors import DuplicateCollectionError

        db = MultiModelDB()
        outcomes: list = []
        barrier = threading.Barrier(6)

        def racer() -> None:
            barrier.wait(timeout=10)
            try:
                db.create_collection("contested")
                outcomes.append("won")
            except DuplicateCollectionError:
                outcomes.append("lost")

        threads = [threading.Thread(target=racer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert outcomes.count("won") == 1
        assert outcomes.count("lost") == 5


def test_plan_cache_still_caches_under_lock():
    """The lock must not break the fast path: warm queries skip parsing."""
    db = MultiModelDB()
    items = db.create_collection("items")
    items.insert({"n": 1})
    cold = db.query("FOR i IN items RETURN i.n")
    warm = db.query("FOR i IN items RETURN i.n")
    assert cold.stats["plan_cached"] is False
    assert warm.stats["plan_cached"] is True
    assert warm.rows == cold.rows


if __name__ == "__main__":  # convenient local loop
    raise SystemExit(pytest.main([__file__, "-x", "-q"]))
