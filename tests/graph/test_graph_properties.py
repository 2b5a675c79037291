"""Property-based tests (hypothesis) for graph-substrate invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import SocialGraph, cut_weight, forest_fire_sample


def edges_strategy(max_node: int = 12, max_edges: int = 40):
    return st.lists(
        st.tuples(
            st.integers(0, max_node),
            st.integers(0, max_node),
            st.floats(0.1, 10.0),
        ).filter(lambda e: e[0] != e[1]),
        max_size=max_edges,
    )


@settings(max_examples=60, deadline=None)
@given(edges=edges_strategy())
def test_edge_count_and_weight_bookkeeping(edges):
    """num_edges / total_edge_weight stay exact under duplicate inserts."""
    graph = SocialGraph.from_edges(edges)
    listed = list(graph.edges())
    assert graph.num_edges == len(listed)
    assert graph.total_edge_weight() == pytest.approx(
        sum(w for _, _, w in listed)
    )
    # Handshake lemma on the weighted degrees.
    assert sum(graph.weighted_degree(v) for v in graph) == pytest.approx(
        2.0 * graph.total_edge_weight()
    )


@settings(max_examples=60, deadline=None)
@given(edges=edges_strategy())
def test_edges_are_symmetric(edges):
    graph = SocialGraph.from_edges(edges)
    for u, v, w in graph.edges():
        assert graph.weight(v, u) == w
        assert u in graph.neighbors(v)
        assert v in graph.neighbors(u)


@settings(max_examples=40, deadline=None)
@given(edges=edges_strategy(), keep_mask=st.integers(0, 2**13 - 1))
def test_subgraph_is_induced(edges, keep_mask):
    """Subgraph keeps exactly the edges with both endpoints kept."""
    graph = SocialGraph.from_edges(edges)
    kept = [node for i, node in enumerate(graph.nodes()) if keep_mask >> i & 1]
    sub = graph.subgraph(kept)
    kept_set = set(kept)
    expected = [
        (u, v, w)
        for u, v, w in graph.edges()
        if u in kept_set and v in kept_set
    ]
    assert sub.num_nodes == len(kept)
    assert sub.num_edges == len(expected)
    for u, v, w in expected:
        assert sub.weight(u, v) == w


@settings(max_examples=40, deadline=None)
@given(edges=edges_strategy())
def test_relabeled_preserves_structure(edges):
    graph = SocialGraph.from_edges(edges)
    relabeled, mapping = graph.relabeled()
    assert relabeled.num_nodes == graph.num_nodes
    assert relabeled.num_edges == graph.num_edges
    for u, v, w in graph.edges():
        assert relabeled.weight(mapping[u], mapping[v]) == w


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
            lambda e: e[0] != e[1]
        ),
        min_size=5,
        max_size=60,
    ),
    target_fraction=st.floats(0.2, 1.0),
    seed=st.integers(0, 1000),
)
def test_forest_fire_size_and_induction(edges, target_fraction, seed):
    graph = SocialGraph.from_edges(edges)
    target = max(1, int(target_fraction * graph.num_nodes))
    sample = forest_fire_sample(graph, target, rng=random.Random(seed))
    assert sample.num_nodes == target
    for u, v, w in sample.edges():
        assert graph.weight(u, v) == w


@settings(max_examples=40, deadline=None)
@given(
    edges=edges_strategy(),
    label_bits=st.integers(0, 2**13 - 1),
)
def test_cut_plus_internal_equals_total(edges, label_bits):
    graph = SocialGraph.from_edges(edges)
    labels = {
        node: (label_bits >> i) & 1 for i, node in enumerate(graph.nodes())
    }
    cut = cut_weight(graph, labels)
    from repro.graph import internal_weight

    assert cut + internal_weight(graph, labels) == pytest.approx(
        graph.total_edge_weight()
    )
    assert 0.0 <= cut <= graph.total_edge_weight() + 1e-12


def _add_edge_loop(edges, nodes):
    """The reference ``from_edges`` must equal: one ``add_edge`` per
    tuple, in order, after pre-inserting ``nodes``."""
    graph = SocialGraph(nodes)
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return graph


@settings(max_examples=100, deadline=None)
@given(
    edges=edges_strategy(),
    nodes=st.lists(st.integers(0, 15), max_size=8),
)
def test_from_edges_is_the_add_edge_loop(edges, nodes):
    """Same node order, adjacency dict orders, counts and bit-equal
    total weight as inserting the edges one by one."""
    bulk = SocialGraph.from_edges(edges, nodes=nodes)
    loop = _add_edge_loop(edges, nodes)
    assert bulk.nodes() == loop.nodes()
    for u in loop.nodes():
        assert list(bulk.neighbors(u).items()) == list(loop.neighbors(u).items())
    assert list(bulk.edges()) == list(loop.edges())
    assert bulk.num_edges == loop.num_edges
    assert bulk.total_edge_weight().hex() == loop.total_edge_weight().hex()


@pytest.mark.parametrize("bad", [(2, 2, 1.0), (1, 2, 0.0), (1, 2, -1.0)])
def test_from_edges_rejects_what_add_edge_rejects(bad):
    edges = [(0, 1, 1.0), bad]
    with pytest.raises(GraphError) as bulk:
        SocialGraph.from_edges(edges)
    with pytest.raises(GraphError) as loop:
        _add_edge_loop(edges, None)
    assert str(bulk.value) == str(loop.value)
