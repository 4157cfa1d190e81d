"""One statement, lifted once, read by every layer.

The replica router, the server's replica gate and the cluster coordinator
take a statement's shape and classification from a statement memo
(:class:`repro.query.shapes.StatementMemo`), as the engine's plan cache
does: texts that differ only in their literals are one shape, parsed once
and planned once.
"""

import pytest

from repro import MultiModelDB
from repro.cluster.coordinator import Coordinator
from repro.cluster.shardmap import ShardMap, demo_placements
from repro.errors import ClusterUnsupportedError, NotPrimaryError
from repro.query import shapes
from repro.query.shapes import StatementMemo
from repro.replication.router import ReplicaSet
from repro.server.server import ReproServer
from repro.unibench.workloads import QUERIES_B

#: ``(writes, stores, unnamed)`` of the UniBench texts, as the text
#: classifier this memo replaced gave them.
PINNED = {
    # Workload A: the wire mix and the mixed A/B point reads.
    "FOR c IN customers FILTER c.id == @id RETURN c.name": (False, {"customers"}, False),
    "FOR o IN orders FILTER o.Order_no == @no RETURN o.total": (False, {"orders"}, False),
    "RETURN KV_GET('cart', @key)": (False, {"cart"}, False),
    "FOR c IN customers FILTER c.id >= @lo AND c.id < @hi RETURN c": (False, {"customers"}, False),
    "INSERT {_key: @key, Order_no: @key, customer_id: @cid, total: @total, "
    "Orderlines: []} INTO orders": (True, set(), False),
    "UPDATE @key WITH {price: @price} IN products": (True, set(), False),
    "FOR o IN orders FILTER o._key == @key RETURN o.Order_no": (False, {"orders"}, False),
    # Workload B.
    QUERIES_B["Q1"][0]: (False, {"cart", "customers", "orders", "social"}, False),
    QUERIES_B["Q2"][0]: (False, {"customers", "orders"}, False),
    QUERIES_B["Q3"][0]: (False, {"customers", "orders"}, False),
    QUERIES_B["Q4"][0]: (False, {"feedback", "products"}, False),
    QUERIES_B["Q5"][0]: (False, {"cart", "orders", "social", "vendors"}, False),
    # Workload C's aggregate scan.
    "FOR c IN customers COLLECT city = c.city AGGREGATE total = SUM(c.credit_limit), "
    "n = COUNT(c) SORT city RETURN {city: city, total: total, n: n}": (False, {"customers"}, False),
    # The coordinator's routed statements (tests/cluster/test_coordinator.py).
    "FOR o IN orders FILTER o.customer_id == @v "
    "COLLECT s = o.status WITH COUNT INTO n RETURN {s, n}": (False, {"orders"}, False),
    "FOR c IN customers FILTER c.id == @v RETURN c.name": (False, {"customers"}, False),
    "RETURN DOCUMENT('customers', @v)": (False, {"customers"}, False),
    "RETURN [DOCUMENT('customers', @v), DOCUMENT('customers', @w)]": (False, {"customers"}, False),
    "INSERT @v INTO customers": (True, set(), False),
    "INSERT {id: @v, name: @w} INTO customers": (True, set(), False),
    "UPSERT @v INSERT {id: 1} UPDATE {name: 'x'} INTO customers": (True, set(), False),
    "UPDATE @v WITH {credit_limit: 0} IN customers": (True, set(), False),
    "REMOVE @v IN orders": (True, set(), False),
    # Literals: a store function's store stays in the shape.
    "FOR c IN customers FILTER c.id == 7 RETURN c.name": (False, {"customers"}, False),
    "FOR t IN RDF_MATCH('vendors', 'p1', 'soldBy', '?v') RETURN t": (False, {"vendors"}, False),
    "RETURN NEIGHBORS('social', 'a')": (False, {"social"}, False),
}

VARIANTS = [f"FOR c IN customers FILTER c.id == {i} RETURN c.name" for i in range(300)]


@pytest.mark.parametrize("text", sorted(PINNED))
def test_the_classification_is_pinned(text):
    statement = StatementMemo().classify(text)
    assert (statement.writes, statement.stores, statement.unnamed) == PINNED[text]


@pytest.fixture()
def parses(monkeypatch):
    """Counts the parses the statement memo makes."""
    count = [0]

    def counted(function):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(shapes, "parse", counted(shapes.parse))
    monkeypatch.setattr(shapes, "parse_tokens", counted(shapes.parse_tokens))
    return count


def test_one_shape_classifies_with_one_parse(parses):
    memo = StatementMemo()
    for text in VARIANTS:
        statement = memo.classify(text)
        assert (statement.writes, statement.stores) == (False, {"customers"})
    assert parses[0] == 1


class _Cursor:
    stats = {}

    def fetch_all(self):
        return []

    def result(self):
        return self  # a reply already read


class _Client:
    def __init__(self, host, port, **_options):
        self.port = port
        self.texts = []

    def submit(self, text, bind_vars=None, **_options):
        self.texts.append(text)
        return _Cursor()


def test_the_router_parses_each_shape_once(parses):
    clients = {}

    def factory(host, port, **options):
        return clients.setdefault(port, _Client(host, port))

    router = ReplicaSet(
        ("primary", 1), [("replica", 2)], consistency="eventual", client_factory=factory
    )
    router.set_consistency("orders", "strong")
    for text in VARIANTS:
        router.query(text)
    router.query("INSERT {id: 1} INTO customers")
    assert parses[0] == 2
    assert clients[2].texts == VARIANTS
    assert clients[1].texts == ["INSERT {id: 1} INTO customers"]


def test_the_replica_gate_parses_each_shape_once(parses):
    server = ReproServer(MultiModelDB(), port=0, replica_of=("127.0.0.1", 1))
    for text in VARIANTS:
        server._reject_writes_on_replica("query_open", {"text": text})
    assert parses[0] == 1
    for value in (1, 2):
        with pytest.raises(NotPrimaryError):
            server._reject_writes_on_replica(
                "query_open", {"text": f"INSERT {{id: {value}}} INTO customers"}
            )
    assert parses[0] == 2


#: More shapes than a default memo's capacity: each reads another field.
MANY_SHAPES = [f"FOR c IN customers FILTER c.f{i} == {i} RETURN c.name" for i in range(300)]


def test_the_router_parses_each_of_many_shapes_once(parses):
    router = ReplicaSet(
        ("primary", 1), [("replica", 2)], consistency="eventual", client_factory=_Client
    )
    for _round in range(2):
        for text in MANY_SHAPES:
            router.query(text)
    assert parses[0] == len(MANY_SHAPES)
    assert len(router._statements._shapes) == len(MANY_SHAPES)


@pytest.mark.parametrize("plan_cache_size", [0, 8])
def test_a_small_plan_cache_still_gates_each_shape_with_one_parse(parses, plan_cache_size):
    server = ReproServer(
        MultiModelDB(plan_cache_size=plan_cache_size), port=0, replica_of=("127.0.0.1", 1)
    )
    for _round in range(2):
        for text in MANY_SHAPES:
            server._reject_writes_on_replica("query_open", {"text": text})
    assert parses[0] == len(MANY_SHAPES)


def test_the_shape_memo_drops_the_least_recently_used_classification(parses, monkeypatch):
    monkeypatch.setattr(shapes, "CLASSIFIED", 2)
    memo = StatementMemo(capacity=0)
    a, b, c = MANY_SHAPES[:3]
    for text in (a, b, a, c):  # c drops b, not a
        memo.classify(text)
    assert parses[0] == 3
    memo.classify(a)
    assert parses[0] == 3
    memo.classify(b)
    assert parses[0] == 4


def test_the_coordinator_plans_each_shape_once():
    shard_map = ShardMap(
        [f"127.0.0.1:{9000 + index}" for index in range(3)], demo_placements()
    )
    coordinator = Coordinator(shard_map)
    for value, text in enumerate(VARIANTS):
        plan = coordinator.plan(text)
        assert plan.strategy == "single_shard"
        assert plan.segments[0].pinned == shard_map.owner("customers", value)
        assert plan.values == {"__cluster_1": value}
    assert plan.segments[0].statement == (
        "FOR c IN customers FILTER (c.id == @__cluster_1) RETURN c.name"
    )
    stats = coordinator.plan_cache.stats()
    assert (stats["misses"], stats["hits"]) == (1, 299)


def test_a_cluster_explain_analyze_plans_the_literal_text():
    shard_map = ShardMap(["127.0.0.1:9000", "127.0.0.1:9001"], demo_placements())
    coordinator = Coordinator(shard_map)
    plan = coordinator.plan("EXPLAIN ANALYZE " + VARIANTS[7])
    assert plan.values == {}
    assert plan.segments[0].statement == (
        "FOR c IN customers FILTER (c.id == 7) RETURN c.name"
    )
    assert plan.segments[0].pinned == shard_map.owner("customers", 7)
    assert coordinator.plan_cache.statement("EXPLAIN ANALYZE " + VARIANTS[7])[0].analyze


def test_threads_classify_through_one_small_memo():
    """Reads and writes of several shapes churn a two-slot memo from more
    threads than cores: every verdict stays the text's own."""
    import sys
    import threading

    memo = StatementMemo(capacity=2)
    texts = [
        (f"FOR c IN customers FILTER c.id == {i} RETURN c.name", False) for i in range(8)
    ] + [
        (f"INSERT {{id: {i}}} INTO customers", True) for i in range(8)
    ] + [
        (f"FOR o IN orders FILTER o.total > {i} RETURN o", False) for i in range(8)
    ]
    errors = []
    barrier = threading.Barrier(6)

    def worker(seed):
        try:
            barrier.wait(timeout=10)
            for round_ in range(200):
                text, writes = texts[(seed * 7 + round_) % len(texts)]
                statement = memo.classify(text)
                assert statement.writes is writes, (text, statement.writes)
                assert statement.stores == (set() if writes else {text.split()[3]})
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert max(len(memo._shapes), len(memo._skeletons)) <= 2
    assert len(memo._kinds) == 3  # one per shape: the shape memo keeps them all


_NAMES_A_HIDDEN_BIND = "FOR c IN customers FILTER c.id == @__cluster_1 AND c.x == 5 RETURN c"


@pytest.mark.parametrize(
    "text, binds",
    [
        (_NAMES_A_HIDDEN_BIND, {"__cluster_1": 7}),
        (_NAMES_A_HIDDEN_BIND, None),  # would read the lifted 5
        ("FOR c IN customers FILTER c.id == @v RETURN c", {"v": 1, "__cluster_frames": []}),
    ],
)
def test_the_coordinators_bind_prefix_is_reserved(text, binds):
    coordinator = Coordinator(ShardMap(["127.0.0.1:9000", "127.0.0.1:9001"], demo_placements()))
    with pytest.raises(ClusterUnsupportedError, match="reserved"):
        coordinator.plan(text, binds)
    with pytest.raises(ClusterUnsupportedError, match="reserved"):
        coordinator.plan(text, binds)  # refused again: nothing was cached
    assert coordinator.plan_cache.stats()["size"] == 0
