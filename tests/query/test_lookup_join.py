"""The set-at-a-time lookup path against its frame-by-frame reference.

:func:`repro.query.executor._lookup_join` gathers a batch's keys, probes
each distinct one once and scatters the results back.  For any batch of
mixed keys — and any frame whose key, probe or emit raises — it must give
what evaluating key, probe and emit frame by frame gives: the same rows in
the same order, or the same error from the same frame.  The graph's
batched one-hop call must equal a depth-1 traversal of every start.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import make_demo_db
from repro.core import datamodel
from repro.obs import metrics
from repro.query.executor import ExecContext, _lookup_join, _lookup_token
from repro.query.optimizer import optimize
from repro.query.parser import parse
from repro.unibench.workloads import QUERIES_B
from tests.query.nested_scopes import load_lookup_collections


class KeyFailure(Exception):
    pass


class ProbeFailure(Exception):
    pass


class EmitFailure(Exception):
    pass


KEYS = st.one_of(
    st.sampled_from(["a", "b", "1", ""]),
    st.integers(-2, 2),
    st.sampled_from([0.0, 1.0, 1.5, -2.0]),
    st.booleans(),
    st.none(),
    st.sampled_from([{"x": 1}, [1], []]),
    st.sampled_from(["raise-key", "raise-probe", "raise-emit"]),
)


def key_fn(ctx, frame):
    if frame["k"] == "raise-key":
        raise KeyFailure(frame["i"])
    return frame["k"]


def probe_one(key):
    if key == "raise-probe":
        raise ProbeFailure()
    # Equal for keys the model calls equal (1 and 1.0), apart for the ones
    # it keeps apart (true and 1, '1' and 1).
    return datamodel.hash_value(key)


def emit(frame, result):
    if frame["k"] == "raise-emit":
        raise EmitFailure(frame["i"])
    return [{**frame, "v": result, "copy": copy} for copy in range(frame["i"] % 3)]


def outcome(run):
    try:
        return "rows", run()
    except (KeyFailure, ProbeFailure, EmitFailure) as error:
        return type(error).__name__, error.args


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(KEYS, max_size=24),
    cuts=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    width=st.integers(1, 5),
    per_frame=st.booleans(),
)
def test_lookup_join_equals_the_per_frame_reference(keys, cuts, width, per_frame):
    frames = [{"i": index, "k": key} for index, key in enumerate(keys)]
    batches, start = [], 0
    while start < len(frames):
        size = cuts[len(batches) % len(cuts)]
        batches.append(frames[start:start + size])
        start += size
    probed: list = []

    def probe(keys):
        probed.append(list(keys))
        return [probe_one(key) for key in keys]

    def reference():
        return [
            row for batch in batches for frame in batch
            for row in emit(frame, probe_one(key_fn(None, frame)))
        ]

    def gathered():
        ctx = ExecContext(db=None, bind_vars={}, batch_size=width)
        out = _lookup_join(ctx, iter(batches), key_fn, probe, emit, per_frame)
        return [row for batch in out for row in batch]

    assert outcome(gathered) == outcome(reference)
    for batch_keys in probed:
        # One probe per distinct key: no two dedupable keys a batch meets
        # twice, which is everything but NULL, booleans and containers.
        tokens = [_lookup_token(key) for key in batch_keys]
        assert len(set(tokens)) == len(tokens)


@pytest.fixture(scope="module")
def db():
    db = make_demo_db(scale_factor=1)
    load_lookup_collections(db)
    return db


@pytest.mark.parametrize("name", ["social", "lookup_graph"])
def test_one_hop_is_a_depth_one_traversal_of_every_start(db, name):
    graph = db.graph(name)
    starts = sorted(vertex["_key"] for vertex in graph.scan_cursor()) + ["nobody"]
    txn = db.begin()
    try:
        # The transaction's own edge must show inside it and not outside.
        graph.add_edge(starts[0], starts[-2], "knows", txn=txn)
        for direction in ("outbound", "inbound", "any"):
            for label in (None, "knows"):
                for within in (None, txn):
                    hops = graph.one_hop(starts, direction, label, txn=within)
                    assert hops == {
                        start: [
                            key for key, _depth in graph.traverse(
                                start, 1, 1, direction, label, txn=within
                            )
                        ]
                        for start in starts
                    }
    finally:
        db.abort(txn)


def test_q1_probes_once_per_distinct_key_and_calls_one_hop_per_batch(db):
    text, binds = QUERIES_B["Q1"]
    explained = db.explain(text, binds)
    assert (
        "LookupJoin friend IN 1..1 OUTBOUND c.id GRAPH social LABEL 'knows' "
        "(adjacency, one probe per distinct key per batch)" in explained
    )
    assert (
        "LookupJoin order_no = KV_GET('cart', friend._key) "
        "(one probe per distinct key per batch)" in explained
    )
    # The order numbers the friends' carts hold, from the model APIs.
    social, cart = db.graph("social"), db.bucket("cart")
    orders = {
        order_no
        for row in db.table("customers").select(
            where=lambda row: row["credit_limit"] > binds["min_credit"]
        )
        for friend in social.neighbors(str(row["id"]), label="knows")
        if friend != str(row["id"])
        and (order_no := cart.get(friend)) is not None
    }
    calls = metrics.counter("model_ops_total", model="graph", op="one_hop")
    before = calls.value
    result = db.query(text, binds)
    assert "lookup_join" in optimize(parse(text), db).rules_fired
    assert result.stats["index_lookups"] == len(orders)
    assert calls.value - before == 1  # one batch of customers
