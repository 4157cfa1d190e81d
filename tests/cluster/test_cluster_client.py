"""``ClusterClient`` routing that needs no server processes: the shard
nodes are stand-ins that record which address each statement reached."""

import pytest

from repro.cluster import ClusterClient
from repro.cluster.shardmap import ShardMap, demo_placements


class _Cursor:
    stats: dict = {}
    analyzed = None

    def fetch_all(self):
        return []

    def result(self):
        return self  # a reply already read


class _Node:
    """A shard primary or replica; *reached* lists the addresses that
    answered a statement, in order."""

    reached: list = []

    def __init__(self, host=None, port=None, **options):
        self.address = f"{host}:{port}"

    def submit(self, text, bind_vars=None, **options):
        _Node.reached.append(self.address)
        return _Cursor()

    def close(self):
        pass


@pytest.fixture()
def nodes(monkeypatch):
    monkeypatch.setattr("repro.client.client.ReproClient", _Node)
    _Node.reached = []
    return _Node.reached


def _map(version=1):
    return ShardMap(
        [
            {"primary": "127.0.0.1:1", "replicas": ["127.0.0.1:11"]},
            {"primary": "127.0.0.1:2", "replicas": ["127.0.0.1:12"]},
        ],
        demo_placements(),
        version=version,
    )


PRIMARIES = {"127.0.0.1:1", "127.0.0.1:2"}
REPLICAS = {"127.0.0.1:11", "127.0.0.1:12"}


def _reached(client, nodes, text):
    del nodes[:]
    client.query(text)
    return set(nodes)


def test_store_levels_reach_every_shard_router(nodes):
    client = ClusterClient(_map())
    graph = "FOR v IN 1..1 OUTBOUND 'nobody' GRAPH social RETURN v"
    # A router built before the level is set …
    assert _reached(client, nodes, "FOR c IN customers RETURN c.id") == PRIMARIES
    client.set_consistency("customers", "eventual")
    assert _reached(client, nodes, "FOR c IN customers RETURN c.id") == REPLICAS
    # … and one built after it, on a map adopted later.
    client.set_consistency("social", "eventual")
    client._adopt_map(_map(version=2))
    assert _reached(client, nodes, "FOR c IN customers RETURN c.id") == REPLICAS
    assert _reached(client, nodes, graph) <= REPLICAS
    # A store without a level of its own reads at the client's default.
    assert _reached(client, nodes, "FOR o IN orders RETURN o._key") == PRIMARIES
    client.close()


def test_a_store_level_is_checked_when_set(nodes):
    client = ClusterClient(_map())
    with pytest.raises(ValueError, match="unknown consistency"):
        client.set_consistency("customers", "quorum")
    assert _reached(client, nodes, "FOR c IN customers RETURN c.id") == PRIMARIES
