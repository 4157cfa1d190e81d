"""Wire-level cluster behavior: routed DML, stale maps, replicas, status.

Everything here runs over real :class:`ReproServer` shards on loopback
ports — it is the contract the CLI (`connect --cluster`) and any
application using :class:`ClusterClient` rely on.
"""

import pytest

from repro.client import ReproClient
from repro.cluster import start_cluster
from repro.errors import (
    ClusterError,
    ClusterUnsupportedError,
    ShardMapStaleError,
)


@pytest.fixture(scope="module")
def cluster():
    with start_cluster(num_shards=3, scale_factor=1, seed=11) as handle:
        yield handle


@pytest.fixture()
def client(cluster):
    with cluster.client() as cluster_client:
        yield cluster_client


def test_routed_write_then_read_back_on_one_shard(client, cluster):
    client.query(
        "UPSERT {id: @id} INSERT {id: @id, name: @n, city: @c, "
        "credit_limit: 1} UPDATE {name: @n} INTO customers",
        {"id": 920, "n": "wired", "c": "Brno"},
    )
    result = client.query(
        "EXPLAIN ANALYZE FOR c IN customers FILTER c.id == @id "
        "RETURN c.name",
        {"id": 920},
    )
    assert result.rows == ["wired"]
    assert "fan_out=1" in result.analyzed
    # The row physically lives only on its owner shard.
    owner = cluster.shard_map.owner("customers", 920)
    copies = 0
    for entry in cluster.shard_map.shards:
        host, _, port = entry.primary.rpartition(":")
        with ReproClient(host, int(port)) as direct:
            rows = direct.query(
                "FOR c IN customers FILTER c.id == 920 RETURN c.id"
            ).rows
        if rows:
            copies += 1
            assert entry.shard_id == owner
    assert copies == 1


def test_reference_write_lands_on_every_shard(client, cluster):
    client.query("UPDATE @k WITH {v: 999} IN cart", {"k": "1"})
    for entry in cluster.shard_map.shards:
        host, _, port = entry.primary.rpartition(":")
        with ReproClient(host, int(port)) as direct:
            assert direct.query(
                "RETURN KV_GET('cart', '1')"
            ).rows == [{"v": 999}]


def test_stale_map_is_refetched_transparently(cluster):
    with cluster.client() as fresh:
        baseline = fresh.query("FOR c IN customers RETURN c.id").rows
        assert fresh.shard_map.version == cluster.shard_map.version
        stale = fresh.coordinator
        # The topology moves on: every server adopts a bumped map.  The
        # client's next statement hits SHARD_MAP_STALE, refetches, and
        # retries — the caller never sees the hiccup.
        bumped = cluster.shard_map.bumped()
        for server in cluster.servers + cluster.replica_servers:
            server.shard_map = bumped
        try:
            result = fresh.query("FOR c IN customers RETURN c.id")
            assert sorted(result.rows) == sorted(baseline)
            assert fresh.shard_map.version == bumped.version
            # The first try was served from the old map's cached plan; the
            # retry planned afresh on the new map's coordinator.
            assert stale.plan_cache.stats()["hits"] == 1
            assert fresh.coordinator is not stale
            assert result.stats["plan_cached"] is False
            fresh_cache = fresh.coordinator.plan_cache.stats()
            assert (fresh_cache["hits"], fresh_cache["misses"]) == (0, 1)
        finally:
            for server in cluster.servers + cluster.replica_servers:
                server.shard_map = cluster.shard_map


def test_version_check_raises_typed_error_server_side(cluster):
    entry = cluster.shard_map.entry(0)
    host, _, port = entry.primary.rpartition(":")
    with ReproClient(host, int(port)) as direct:
        direct.shard_map_version = cluster.shard_map.version + 5
        with pytest.raises(ShardMapStaleError):
            direct.query("RETURN 1")


def test_shard_map_op_serves_the_map(cluster):
    entry = cluster.shard_map.entry(1)
    host, _, port = entry.primary.rpartition(":")
    with ReproClient(host, int(port)) as direct:
        payload = direct.shard_map()
    assert payload["shard_id"] == 1
    assert payload["shard_map"]["version"] == cluster.shard_map.version


def test_seed_bootstrap_discovers_the_topology(cluster):
    seed = cluster.shard_map.entry(2).primary
    from repro.cluster import ClusterClient

    with ClusterClient(seed=seed) as discovered:
        info = discovered.info()
        assert info["shards"] == 3
        rows = discovered.query("RETURN 1").rows
        assert rows == [1]


def test_transactions_are_refused_with_guidance(client):
    with pytest.raises(ClusterUnsupportedError):
        client.begin()


def test_shards_status_reports_the_roster(client):
    report = client.shards_status()
    assert [entry["shard_id"] for entry in report] == [0, 1, 2]
    assert all(entry["alive"] for entry in report)


def test_info_names_the_placements(client):
    info = client.info()
    assert info["cluster"] is True
    assert info["placements"]["customers"] == "hash"
    assert info["placements"]["social"] == "reference"


def test_info_reports_the_coordinator_plan_cache(client):
    text = "FOR c IN customers FILTER c.id == @id RETURN c.name"
    assert client.query(text, {"id": 1}).stats["plan_cached"] is False
    assert client.query(text, {"id": 2}).stats["plan_cached"] is True
    assert client.explain(text, {"id": 3}).startswith("cluster plan")
    cache = client.info()["plan_cache"]
    assert (cache["size"], cache["hits"], cache["misses"]) == (1, 2, 1)


def test_client_needs_a_map_or_a_seed():
    from repro.cluster import ClusterClient

    with pytest.raises(ClusterError):
        ClusterClient()


@pytest.mark.parametrize("level", ["quorum", "STRONG", ""])
def test_client_rejects_an_unknown_level_when_built(level):
    # The router's vocabulary, checked before any shard is dialled; the
    # seed names no live server.
    from repro.cluster import ClusterClient

    with pytest.raises(ValueError, match="unknown consistency"):
        ClusterClient(seed="127.0.0.1:1", consistency=level)


def test_replicated_shard_serves_under_the_coordinator():
    # One shard carries a WAL-shipping replica; eventual reads may be
    # served by it, and the scatter results stay equivalent.
    with start_cluster(
        num_shards=3, scale_factor=1, seed=11, replica_for=1
    ) as handle:
        assert handle.shard_map.entry(1).replicas
        with handle.client() as strong, handle.client(
            consistency="eventual"
        ) as eventual:
            expected = sorted(
                strong.query("FOR c IN customers RETURN c.id").rows
            )
            got = sorted(
                eventual.query("FOR c IN customers RETURN c.id").rows
            )
            assert got == expected
