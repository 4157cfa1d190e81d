"""Property-graph tests: CRUD, adjacency, traversals, shortest paths."""

import pytest

from repro.core.context import EngineContext
from repro.errors import PrimaryKeyError, UnknownCollectionError
from repro.graph import Direction, PropertyGraph


@pytest.fixture()
def social():
    """The social network of slide 26: Mary knows John, Anne knows Mary."""
    graph = PropertyGraph(EngineContext(), "social")
    for key, name in [("1", "Mary"), ("2", "John"), ("3", "Anne")]:
        graph.add_vertex(key, {"name": name})
    graph.add_edge("1", "2", label="knows")
    graph.add_edge("3", "1", label="knows")
    return graph


class TestVertices:
    def test_add_and_get(self, social):
        assert social.vertex("1")["name"] == "Mary"
        assert social.vertex_count() == 3

    def test_duplicate(self, social):
        with pytest.raises(PrimaryKeyError):
            social.add_vertex("1")

    def test_update(self, social):
        social.update_vertex("1", {"city": "Prague"})
        assert social.vertex("1")["city"] == "Prague"
        assert social.vertex("1")["name"] == "Mary"

    def test_remove_cascades_edges(self, social):
        assert social.remove_vertex("1")
        assert social.edge_count() == 0
        assert not social.remove_vertex("1")

    def test_remove_without_cascade_keeps_edges(self, social):
        social.remove_vertex("2", cascade=False)
        assert social.edge_count() == 2


class TestEdges:
    def test_endpoints_must_exist(self, social):
        with pytest.raises(UnknownCollectionError):
            social.add_edge("1", "99")

    def test_edge_properties_and_label(self, social):
        key = social.add_edge("2", "3", label="follows", properties={"since": 2016})
        edge = social.edge(key)
        assert edge["_from"] == "2"
        assert edge["since"] == 2016

    def test_duplicate_edge_key(self, social):
        social.add_edge("1", "2", key="dup")
        with pytest.raises(PrimaryKeyError):
            social.add_edge("1", "3", key="dup")

    def test_remove_edge(self, social):
        key = social.add_edge("2", "3")
        assert social.remove_edge(key)
        assert social.edge(key) is None


class TestNeighborsAndDegree:
    def test_outbound(self, social):
        assert social.neighbors("1", Direction.OUTBOUND) == ["2"]

    def test_inbound(self, social):
        assert social.neighbors("1", Direction.INBOUND) == ["3"]

    def test_any(self, social):
        assert social.neighbors("1", Direction.ANY) == ["2", "3"]

    def test_label_filter(self, social):
        social.add_edge("1", "3", label="blocks")
        assert social.neighbors("1", Direction.OUTBOUND, label="knows") == ["2"]
        assert social.neighbors("1", Direction.OUTBOUND, label="blocks") == ["3"]

    def test_degree(self, social):
        assert social.degree("1", Direction.OUTBOUND) == 1
        assert social.degree("1", Direction.ANY) == 2

    def test_bad_direction(self, social):
        with pytest.raises(ValueError):
            social.neighbors("1", "sideways")


class TestTraversal:
    @pytest.fixture()
    def chain(self):
        graph = PropertyGraph(EngineContext(), "chain")
        for i in range(6):
            graph.add_vertex(str(i))
        for i in range(5):
            graph.add_edge(str(i), str(i + 1))
        return graph

    def test_one_hop(self, social):
        # FOR f IN 1..1 OUTBOUND '1' knows (slide 28)
        assert social.traverse("1", 1, 1, Direction.OUTBOUND, label="knows") == [
            ("2", 1)
        ]

    def test_depth_range(self, chain):
        result = chain.traverse("0", 2, 3, Direction.OUTBOUND)
        assert result == [("2", 2), ("3", 3)]

    def test_min_depth_zero_includes_start(self, chain):
        result = chain.traverse("0", 0, 1, Direction.OUTBOUND)
        assert ("0", 0) in result

    def test_cycles_terminate(self):
        graph = PropertyGraph(EngineContext(), "cycle")
        for key in "abc":
            graph.add_vertex(key)
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        result = graph.traverse("a", 1, 10, Direction.OUTBOUND)
        assert result == [("b", 1), ("c", 2)]

    def test_bad_bounds(self, chain):
        with pytest.raises(ValueError):
            chain.traverse("0", 3, 1)


class TestShortestPath:
    def test_path_found(self, social):
        social.add_edge("2", "3")
        assert social.shortest_path("1", "3", Direction.OUTBOUND) == ["1", "2", "3"]

    def test_same_start_and_goal(self, social):
        assert social.shortest_path("1", "1") == ["1"]

    def test_unreachable(self, social):
        social.add_vertex("island")
        assert social.shortest_path("1", "island") is None

    def test_any_direction_uses_reverse_edges(self, social):
        # 2 -> 1 only via the inbound edge 1->2.
        assert social.shortest_path("2", "3", Direction.ANY) == ["2", "1", "3"]


class TestTransactions:
    def test_graph_writes_are_transactional(self, social):
        manager = social._context.transactions
        txn = manager.begin()
        social.add_vertex("4", {"name": "Eve"}, txn=txn)
        social.add_edge("4", "1", label="knows", txn=txn)
        # Not visible outside the transaction yet.
        assert social.vertex("4") is None
        assert social.neighbors("1", Direction.INBOUND) == ["3"]
        manager.commit(txn)
        assert social.vertex("4")["name"] == "Eve"
        assert social.neighbors("1", Direction.INBOUND) == ["3", "4"]

    def test_traversal_inside_transaction_sees_own_writes(self, social):
        manager = social._context.transactions
        txn = manager.begin()
        social.add_vertex("4", txn=txn)
        social.add_edge("1", "4", txn=txn)
        neighbors = social.neighbors("1", Direction.OUTBOUND, txn=txn)
        assert neighbors == ["2", "4"]
        manager.abort(txn)
        assert social.neighbors("1", Direction.OUTBOUND) == ["2"]

    def test_truncate(self, social):
        social.truncate()
        assert social.vertex_count() == 0
        assert social.edge_count() == 0
