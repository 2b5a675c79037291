"""Unit tests for the SocialGraph hash-table storage."""

import pytest

from repro.errors import GraphError
from repro.graph import SocialGraph


def triangle() -> SocialGraph:
    return SocialGraph.from_edges([(1, 2, 0.5), (2, 3, 1.5), (1, 3, 2.0)])


class TestConstruction:
    def test_empty(self):
        graph = SocialGraph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.nodes() == []
        assert list(graph.edges()) == []

    def test_pre_inserted_nodes(self):
        graph = SocialGraph(nodes=[1, 2, 3])
        assert graph.num_nodes == 3
        assert graph.num_edges == 0

    def test_from_edges_with_weights(self):
        graph = triangle()
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert graph.weight(1, 2) == 0.5

    def test_from_edges_default_weight(self):
        graph = SocialGraph.from_edges([(1, 2), (2, 3)], default_weight=2.0)
        assert graph.weight(1, 2) == 2.0

    def test_from_edges_keeps_last_duplicate(self):
        graph = SocialGraph.from_edges([(1, 2, 1.0), (2, 1, 3.0)])
        assert graph.num_edges == 1
        assert graph.weight(1, 2) == 3.0

    def test_from_directed_sum(self):
        graph = SocialGraph.from_directed_edges(
            [(1, 2, 1.0), (2, 1, 2.0), (3, 1, 5.0)], combine="sum"
        )
        assert graph.weight(1, 2) == 3.0
        assert graph.weight(1, 3) == 5.0

    @pytest.mark.parametrize(
        "mode,expected", [("max", 2.0), ("min", 1.0), ("mean", 1.5)]
    )
    def test_from_directed_modes(self, mode, expected):
        graph = SocialGraph.from_directed_edges(
            [(1, 2, 1.0), (2, 1, 2.0)], combine=mode
        )
        assert graph.weight(1, 2) == expected

    def test_from_directed_unknown_mode(self):
        with pytest.raises(GraphError):
            SocialGraph.from_directed_edges([(1, 2, 1.0)], combine="bogus")

    def test_from_directed_rejects_self_loop(self):
        with pytest.raises(GraphError):
            SocialGraph.from_directed_edges([(1, 1, 1.0)])


class TestMutation:
    def test_add_edge_symmetric(self):
        graph = SocialGraph()
        graph.add_edge("a", "b", 2.5)
        assert graph.weight("a", "b") == 2.5
        assert graph.weight("b", "a") == 2.5
        assert graph.has_edge("b", "a")

    def test_add_edge_rejects_self_loop(self):
        with pytest.raises(GraphError):
            SocialGraph().add_edge(1, 1)

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_add_edge_rejects_non_positive_weight(self, weight):
        with pytest.raises(GraphError):
            SocialGraph().add_edge(1, 2, weight)

    def test_overwrite_updates_total_weight(self):
        graph = SocialGraph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(1, 2, 4.0)
        assert graph.num_edges == 1
        assert graph.total_edge_weight() == 4.0

    def test_remove_edge(self):
        graph = triangle()
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.num_edges == 2
        assert graph.total_edge_weight() == pytest.approx(3.5)

    def test_remove_missing_edge(self):
        with pytest.raises(GraphError):
            triangle().remove_edge(1, 99)

    def test_remove_node_drops_incident_edges(self):
        graph = triangle()
        graph.remove_node(2)
        assert graph.num_nodes == 2
        assert graph.num_edges == 1
        assert graph.has_edge(1, 3)

    def test_remove_missing_node(self):
        with pytest.raises(GraphError):
            triangle().remove_node(99)


class TestQueries:
    def test_neighbors(self):
        graph = triangle()
        assert graph.neighbors(1) == {2: 0.5, 3: 2.0}

    def test_neighbors_missing_node(self):
        with pytest.raises(GraphError):
            triangle().neighbors(99)

    def test_weight_missing_edge(self):
        graph = SocialGraph(nodes=[1, 2])
        with pytest.raises(GraphError):
            graph.weight(1, 2)

    def test_degree_and_weighted_degree(self):
        graph = triangle()
        assert graph.degree(1) == 2
        assert graph.weighted_degree(1) == pytest.approx(2.5)

    def test_edges_each_once(self):
        edges = list(triangle().edges())
        assert len(edges) == 3
        seen = {frozenset((u, v)) for u, v, _ in edges}
        assert len(seen) == 3

    def test_averages(self):
        graph = triangle()
        assert graph.average_degree() == pytest.approx(2.0)
        assert graph.average_edge_weight() == pytest.approx(4.0 / 3.0)
        assert graph.max_degree() == 2

    def test_averages_empty(self):
        graph = SocialGraph()
        assert graph.average_degree() == 0.0
        assert graph.average_edge_weight() == 0.0
        assert graph.max_degree() == 0

    def test_contains_len_iter(self):
        graph = triangle()
        assert 1 in graph
        assert 99 not in graph
        assert len(graph) == 3
        assert sorted(graph) == [1, 2, 3]


class TestDerived:
    def test_subgraph(self):
        graph = triangle()
        graph.add_edge(3, 4, 1.0)
        sub = graph.subgraph([1, 2, 3])
        assert sub.num_nodes == 3
        assert sub.num_edges == 3
        assert 4 not in sub

    def test_subgraph_keeps_graph_order(self):
        graph = SocialGraph.from_edges(
            [("c", "a"), ("a", "d"), ("d", "b"), ("b", "c"), ("e", "a")]
        )
        for keep in (["b", "a", "d", "c"], ["d", "c", "b", "a"], {"a", "b", "c", "d"}):
            sub = graph.subgraph(keep)
            assert sub.nodes() == ["c", "a", "d", "b"]
            assert list(sub.edges()) == [
                ("c", "a", 1.0), ("c", "b", 1.0), ("a", "d", 1.0), ("d", "b", 1.0)
            ]

    def test_subgraph_missing_node(self):
        with pytest.raises(GraphError):
            triangle().subgraph([1, 99])

    def test_subgraph_is_independent_copy(self):
        graph = triangle()
        sub = graph.subgraph([1, 2])
        sub.add_edge(1, 2, 9.0)
        assert graph.weight(1, 2) == 0.5

    def test_copy(self):
        graph = triangle()
        clone = graph.copy()
        clone.remove_edge(1, 2)
        assert graph.has_edge(1, 2)
        assert not clone.has_edge(1, 2)

    def test_relabeled(self):
        graph = SocialGraph.from_edges([("x", "y", 2.0)])
        relabeled, mapping = graph.relabeled()
        assert set(mapping) == {"x", "y"}
        assert relabeled.weight(mapping["x"], mapping["y"]) == 2.0

    def test_degree_ordered_nodes(self):
        graph = SocialGraph.from_edges([(1, 2), (1, 3), (1, 4), (2, 3)])
        order = graph.degree_ordered_nodes()
        assert order[0] == 1
        ascending = graph.degree_ordered_nodes(descending=False)
        assert ascending[-1] == 1
