"""The five workloads as data: statement texts, bind pools, frozen mixes
and the seeded operation sequences.

Nothing here touches the engine.  Pools are built from the generated data
set (``generate(scale_factor=4, seed=42)`` — the data set's identity), the
mix of every workload is a *round*: a fixed multiset of operation classes.
``--seed`` only shuffles the order inside a round and the order in which
each class walks its pool, so two seeds run the same work in a different
order, and both sides of a later comparison run identical work.

A run repeats whole rounds until ``--seconds`` is up; the traced pass and
``--smoke`` run a fixed number of rounds.
"""

from __future__ import annotations

import random

from repro.unibench.workloads import QUERIES_B

SCALE_FACTOR = 4
DATA_SEED = 42

#: Workload names are fixed: later issues cite them.
WORKLOADS = (
    "b_embedded_warm",
    "adhoc_cold_plan",
    "a_wire_mixed",
    "c_txn_wal",
    "b_cluster2",
)

#: Every operation class a ``driver.op.<class>.p50_ms`` metric exists for.
OP_CLASSES = (
    "Q1", "Q2", "Q3", "Q4", "Q5",
    "point_rel", "point_doc", "point_kv", "range_short", "range_cursor",
    "insert", "update", "new_order", "txn_read", "agg_scan",
)

#: Classes whose result depends on what the run wrote before; the driver
#: checks them against its own model of that state, not the static oracle.
MODEL_CHECKED = frozenset(
    {"insert", "update", "new_order", "txn_read", "agg_scan"})


class Op:
    """One operation of a sequence.  ``text`` is the MMQL statement (None
    for store-API operations), ``binds`` its bind values or parameters,
    ``ordered`` whether the statement SORTs (so rows compare in order) and
    ``expect`` the oracle's rows, filled in at set-up."""

    __slots__ = ("cls", "text", "binds", "ordered", "expect")

    def __init__(self, cls, text, binds, ordered=False):
        self.cls = cls
        self.text = text
        self.binds = binds
        self.ordered = ordered
        self.expect = None

    def key(self) -> tuple:
        return (self.text, tuple(sorted(self.binds.items())))

    def __repr__(self) -> str:
        return f"Op({self.cls}, {self.binds})"


def _rng(workload: str, seed: int, stream: int = 0) -> random.Random:
    return random.Random(f"mmbench:{workload}:{seed}:{stream}")


class _Pool:
    """A bind pool walked round-robin in a seed-dependent order, so every
    value is used equally often whatever the seed."""

    def __init__(self, values: list, rng: random.Random):
        self._values = rng.sample(values, len(values))
        self._next = 0

    def take(self):
        value = self._values[self._next % len(self._values)]
        self._next += 1
        return value


def cycled(rounds: list, count: int) -> list:
    """The first *count* rounds of *rounds* repeated end to end."""
    return [rounds[index % len(rounds)] for index in range(count)]


def _rounds(mix: dict, make_op, rng: random.Random, count: int) -> list:
    """*count* rounds; each holds ``mix[cls]`` operations of every class in
    a seeded order."""
    classes = [cls for cls, weight in mix.items() for _ in range(weight)]
    rounds = []
    for _ in range(count):
        order = rng.sample(classes, len(classes))
        rounds.append([make_op(cls) for cls in order])
    return rounds


# ---------------------------------------------------------------------------
# Workload B (b_embedded_warm and b_cluster2 share all of this)
# ---------------------------------------------------------------------------

#: Operations per round.  Frozen on the seed commit under three rules: no
#: query id takes more than 40 % of the embedded timed window (Q4 costs
#: ~30 ms a call and takes 36 %; Q5 ~0.3 ms); through the cluster the
#: coordinator and the wire, not the shards' executors, take at least half
#: of the statement time, which takes this many Q5s, the statement the
#: coordinator adds most to; and the median and the 95th percentile of
#: the mix fall inside one class's latencies (Q5 and Q1), not on the edge
#: between two.
B_MIX = {"Q1": 4, "Q2": 16, "Q3": 4, "Q4": 2, "Q5": 58}

#: Rounds generated per seed; the timed loop cycles through them.
B_CYCLE_ROUNDS = 8

_B_ORDERED = {"Q3", "Q4"}  # the statements that SORT


def b_pools(data) -> dict:
    """Bind pools for Q1–Q5, built so that every value returns rows.

    The default binds of ``QUERIES_B`` are not usable as they stand:
    ``@start='10'`` returns no rows at scale 4."""
    credits = sorted({row["credit_limit"] for row in data.customers})
    outbound: dict = {}
    for source, target in data.knows_edges:
        outbound.setdefault(source, set()).add(target)
    starts = []
    for row in data.customers:
        start = str(row["id"])
        two_hop = set()
        for friend in outbound.get(start, ()):
            two_hop |= outbound.get(friend, set())
        if any(friend in data.carts for friend in two_hop):
            starts.append(start)
    return {
        # Strictly-greater on the top credit limit matches nobody.
        "Q1": [{"min_credit": value} for value in credits[:-1]],
        "Q2": [{"city": city} for city in
               sorted({row["city"] for row in data.customers})],
        "Q3": [{}],
        "Q4": [{"category": category} for category in
               sorted({row["category"] for row in data.products})],
        # 48 starts spread over the id range: low ids have few outbound
        # edges, high ids many, so the pool covers both.
        "Q5": [{"start": start}
               for start in starts[:: max(len(starts) // 48, 1)][:48]],
    }


def b_sequence(data, seed: int, rounds: int = B_CYCLE_ROUNDS) -> list:
    """Rounds of Workload B operations.  ``b_embedded_warm`` and
    ``b_cluster2`` both call this with the same arguments, which is what
    pairs them."""
    rng = _rng("workload_b", seed)
    pools = {cls: _Pool(values, rng) for cls, values in b_pools(data).items()}

    def make_op(cls):
        return Op(cls, QUERIES_B[cls][0], pools[cls].take(),
                  ordered=cls in _B_ORDERED)

    return _rounds(B_MIX, make_op, rng, rounds)


# ---------------------------------------------------------------------------
# adhoc_cold_plan
# ---------------------------------------------------------------------------

#: Distinct statement texts per class; 544 in all, 4.25× the 128-entry
#: plan cache.  One round runs each text once in a fixed per-seed order,
#: so a text comes round again only after 543 others and always misses.
ADHOC_TEXTS = {
    "point_rel": 128, "point_doc": 128, "point_kv": 96,
    "range_short": 64, "Q2": 64, "Q5": 64,
}


def _spread(values: list, count: int) -> list:
    """*count* values taken evenly across *values*."""
    step = len(values) / count
    return [values[int(index * step)] for index in range(count)]


def adhoc_sequence(data, seed: int, rounds: int = 1) -> list:
    """One round of literal-inlined statements, repeated *rounds* times in
    the same order (a reshuffle could bring a text back within 128
    statements and turn a miss into a hit)."""
    ids = [row["id"] for row in data.customers]
    order_nos = [order["Order_no"] for order in data.orders]
    cart_keys = sorted(data.carts, key=int)
    with_orders = sorted({order["customer_id"] for order in data.orders})
    count = ADHOC_TEXTS
    ops = []
    for value in _spread(ids, count["point_rel"]):
        ops.append(Op("point_rel",
                      f"FOR c IN customers FILTER c.id == {value} "
                      "RETURN c.name", {}))
    for value in _spread(order_nos, count["point_doc"]):
        ops.append(Op("point_doc",
                      f"FOR o IN orders FILTER o.Order_no == '{value}' "
                      "RETURN o.total", {}))
    for value in _spread(cart_keys, count["point_kv"]):
        ops.append(Op("point_kv", f"RETURN KV_GET('cart', '{value}')", {}))
    for value in _spread(ids[:-8], count["range_short"]):
        ops.append(Op("range_short",
                      f"FOR c IN customers FILTER c.id >= {value} "
                      f"AND c.id < {value + 8} RETURN c.name", {}))
    for value in _spread(with_orders, count["Q2"]):
        ops.append(Op("Q2",
                      f"FOR c IN customers FILTER c.id == {value} "
                      "FOR o IN orders FILTER o.customer_id == c.id "
                      "RETURN {customer: c.name, order: o.Order_no, "
                      "total: o.total}", {}))
    for value in _spread(ids[len(ids) // 4:], count["Q5"]):
        ops.append(Op("Q5",
                      f"FOR friend IN 1..1 OUTBOUND '{value}' GRAPH social "
                      "LABEL 'knows' LET order_no = KV_GET('cart', "
                      "friend._key) FILTER order_no != NULL FOR o IN orders "
                      "FILTER o.Order_no == order_no "
                      "RETURN {friend: friend._key, total: o.total}", {}))
    _rng("adhoc_cold_plan", seed).shuffle(ops)
    return [ops] * rounds


# ---------------------------------------------------------------------------
# a_wire_mixed
# ---------------------------------------------------------------------------

#: Operations per round and connection: 32 point reads (80 %), 4 streamed
#: range reads (10 %), 4 autocommit writes (10 %).
WIRE_MIX = {
    "point_rel": 11, "point_doc": 11, "point_kv": 10,
    "range_cursor": 4, "insert": 2, "update": 2,
}
WIRE_CYCLE_ROUNDS = 16
WIRE_CONNECTIONS = 2
#: Rows per ``cursor_next`` frame: a ~300-row range read takes three.
WIRE_CHUNK_ROWS = 100

WIRE_TEXTS = {
    "point_rel": "FOR c IN customers FILTER c.id == @id RETURN c.name",
    "point_doc": "FOR o IN orders FILTER o.Order_no == @no RETURN o.total",
    "point_kv": "RETURN KV_GET('cart', @key)",
    "range_cursor": "FOR c IN customers FILTER c.id >= @lo AND c.id < @hi "
                    "RETURN c",
    "insert": "INSERT {_key: @key, Order_no: @key, customer_id: @cid, "
              "total: @total, Orderlines: []} INTO orders",
    "update": "UPDATE @key WITH {price: @price} IN products",
}

#: Inserted orders carry customer ids from here up, so no read of the
#: mix (all on generated customers) ever sees one.
WIRE_INSERT_CID_BASE = 1_000_000


def wire_sequence(data, seed: int, connection: int,
                  rounds: int = WIRE_CYCLE_ROUNDS) -> list:
    """Rounds for one connection.  Write operations are templates: the
    driver fills in a fresh key (insert) or price (update) when it runs
    them.  Each connection updates its own half of the products, so the
    final price of a product does not depend on thread interleaving."""
    rng = _rng("a_wire_mixed", seed, connection)
    ids = [row["id"] for row in data.customers]
    own_products = [
        row["_key"] for index, row in enumerate(data.products)
        if index % WIRE_CONNECTIONS == connection
    ]
    pools = {
        "point_rel": _Pool([{"id": v} for v in _spread(ids, 64)], rng),
        "point_doc": _Pool(
            [{"no": order["Order_no"]} for order in _spread(data.orders, 64)],
            rng),
        "point_kv": _Pool(
            [{"key": v} for v in _spread(sorted(data.carts, key=int), 64)],
            rng),
        "range_cursor": _Pool(
            [{"lo": lo, "hi": lo + 300} for lo in range(1, 97, 12)], rng),
        "insert": _Pool([{"total": total} for total in range(5, 55)], rng),
        "update": _Pool([{"key": key} for key in own_products], rng),
    }

    def make_op(cls):
        return Op(cls, WIRE_TEXTS[cls], pools[cls].take())

    return _rounds(WIRE_MIX, make_op, rng, rounds)


# ---------------------------------------------------------------------------
# c_txn_wal
# ---------------------------------------------------------------------------

#: Operations per round: 14 new-order transactions (70 %), 4 in-transaction
#: point reads (20 %), 2 aggregate scans outside any transaction (10 %).
TXN_MIX = {"new_order": 14, "txn_read": 4, "agg_scan": 2}
#: new-order operations per round whose first attempt meets a rival commit
#: on the same customer's cart (≈ the 0.3 of ``workload_c_multimodel``);
#: a fixed count, so aborts per round repeat exactly whatever the seed.
TXN_RIVALS_PER_ROUND = 4
TXN_CYCLE_ROUNDS = 16
TXN_MAX_RETRIES = 3
#: The contended pool: 10 % of the customers.
TXN_HOT_FRACTION = 0.10

TXN_AGG_TEXT = (
    "FOR c IN customers COLLECT city = c.city "
    "AGGREGATE total = SUM(c.credit_limit), n = COUNT(c) "
    "SORT city RETURN {city: city, total: total, n: n}"
)


def txn_sequence(data, seed: int, rounds: int = TXN_CYCLE_ROUNDS) -> list:
    """Rounds of transactional operations.  new-order binds carry the
    customer, the order total, a product and whether a rival interleaves;
    the driver adds a fresh order key when it runs one."""
    rng = _rng("c_txn_wal", seed)
    hot = [row["id"] for row in data.customers][
        : max(int(len(data.customers) * TXN_HOT_FRACTION), 1)]
    customers = _Pool(hot, rng)
    readers = _Pool(hot, rng)
    totals = _Pool(list(range(5, 51)), rng)
    products = _Pool(
        [row["product_no"] for row in _spread(data.products, 32)], rng)
    out = []
    for round_ops in _rounds(TXN_MIX, lambda cls: cls, rng, rounds):
        new_orders = [i for i, cls in enumerate(round_ops)
                      if cls == "new_order"]
        rivals = set(rng.sample(new_orders, TXN_RIVALS_PER_ROUND))
        ops = []
        for index, cls in enumerate(round_ops):
            if cls == "new_order":
                ops.append(Op(cls, None, {
                    "customer_id": customers.take(),
                    "total": totals.take(),
                    "product_no": products.take(),
                    "rival": index in rivals,
                }))
            elif cls == "txn_read":
                ops.append(Op(cls, None, {"customer_id": readers.take()}))
            else:
                ops.append(Op(cls, TXN_AGG_TEXT, {}, ordered=True))
        out.append(ops)
    return out
