"""Each shard is loaded by the one UniBench loader with its placement
predicate: it holds exactly its slice of a full load, every reference
store in full, and the same indexes."""

import json

import pytest

from repro import MultiModelDB
from repro.cluster.bootstrap import make_demo_shard_map, shard_slice
from repro.cluster.shardmap import ShardMap, StorePlacement, demo_placements
from repro.unibench.generator import generate, load_into_multimodel


def _rows(store) -> list:
    return sorted(json.dumps(row, sort_keys=True) for row in store.scan_cursor())


def _contents(db) -> dict:
    social = db.graph("social")
    return {
        "customers": _rows(db.table("customers")),
        "products": _rows(db.collection("products")),
        "orders": _rows(db.collection("orders")),
        "feedback": _rows(db.collection("feedback")),
        "cart": _rows(db.bucket("cart")),
        "social": _rows(social),
        "social edges": sorted(
            json.dumps(edge, sort_keys=True) for edge in social.edges()
        ),
        "vendors": _rows(db.triple_store("vendors")),
    }


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=1, seed=42)


@pytest.fixture(scope="module")
def full(data):
    db = MultiModelDB()
    load_into_multimodel(db, data)
    return db


@pytest.mark.parametrize("num_shards", [2, 3])
def test_each_shard_holds_exactly_its_slice(data, full, num_shards):
    shard_map = make_demo_shard_map(
        [f"127.0.0.1:{9000 + shard}" for shard in range(num_shards)]
    )
    everything = _contents(full)
    indexes = sorted(full.stats()["indexes"])
    for position in range(num_shards):
        shard = MultiModelDB()
        load_into_multimodel(shard, data, keep=shard_slice(shard_map, position))
        held = _contents(shard)
        for store, rows in everything.items():
            name = store.split()[0]
            if not shard_map.is_hashed(name):
                assert held[store] == rows, store
                continue
            key = shard_map.placement(name).partition_key
            expected = [
                row for row in rows
                if shard_map.owner(name, json.loads(row)[key]) == position
            ]
            assert expected, f"shard {position} owns no {store}"
            assert held[store] == expected, store
        # The graph's vertices come from the whole customer list.
        assert held["social"] == everything["social"]
        assert held["social edges"] == everything["social edges"]
        assert sorted(shard.stats()["indexes"]) == indexes


def test_default_predicate_keeps_every_row(data, full):
    kept = MultiModelDB()
    load_into_multimodel(kept, data, keep=lambda store, record: True)
    assert _contents(kept) == _contents(full)


@pytest.mark.parametrize("store", ["social", "vendors"])
def test_hash_partitioned_reference_stores_are_refused(store):
    placements = dict(demo_placements())
    placements[store] = StorePlacement("hash", "_key")
    shard_map = ShardMap(["127.0.0.1:9000", "127.0.0.1:9001"], placements)
    with pytest.raises(NotImplementedError, match="not provisioned"):
        shard_slice(shard_map, 0)
