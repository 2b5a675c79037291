"""Pin the vectorized CSR builder against an independent per-row reference.

The reference below is written from the definition, one row at a time:
player ``v``'s slots hold its friends in ascending index order with
their weights, and ``W_v = 0.5 * row.sum()``.  The builder under test
gathers every row at once and sorts them in one pass, so agreement on
the bytes — including ``half_strength``, whose per-row summation order
the builder must reproduce exactly — is the contract checked here.
Graphs are filled in shuffled order, so adjacency-dict order never
matches slot order by accident.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import RMGPInstance
from repro.core.incremental import IncrementalRMGP
from repro.errors import GraphError
from repro.graph import SocialGraph
from repro.streaming.feed import MutationFeed
from repro.streaming.mutations import random_mutation_stream


def reference_csr(graph: SocialGraph) -> dict:
    """Per-row CSR arrays of ``graph`` in its node order."""
    node_ids = graph.nodes()
    index_of = {node: i for i, node in enumerate(node_ids)}
    indptr = [0]
    indices, weights, owner, half_strength = [], [], [], []
    for player, node in enumerate(node_ids):
        row = sorted(
            (index_of[friend], weight)
            for friend, weight in graph.neighbors(node).items()
        )
        row_weights = np.array([w for _, w in row], dtype=np.float64)
        indices.extend(i for i, _ in row)
        weights.extend(row_weights.tolist())
        owner.extend([player] * len(row))
        indptr.append(indptr[-1] + len(row))
        half_strength.append(0.5 * row_weights.sum())
    weights = np.array(weights, dtype=np.float64)
    return {
        "indptr": np.array(indptr, dtype=np.int64),
        "indices": np.array(indices, dtype=np.int64),
        "weights": weights,
        "half_weights": 0.5 * weights,
        "edge_owner": np.array(owner, dtype=np.int64),
        "degrees": np.diff(np.array(indptr, dtype=np.int64)),
        "half_strength": np.array(half_strength, dtype=np.float64),
    }


def assert_matches_reference(instance: RMGPInstance) -> None:
    expected = reference_csr(instance.graph)
    actual = {
        "indptr": instance.indptr,
        "indices": instance.indices,
        "weights": instance.weights,
        "half_weights": instance.half_weights,
        "edge_owner": instance.edge_owner,
        "degrees": instance.degrees(),
        "half_strength": instance.half_strength,
    }
    for name, array in expected.items():
        assert actual[name].dtype == array.dtype, name
        assert actual[name].tobytes() == array.tobytes(), name


def shuffled_weighted_graph(seed: int, n: int = 300, hub: int = 200) -> SocialGraph:
    """Random weights, shuffled node and edge insertion order.

    One hub of degree ``hub`` pushes a row past numpy's 128-element
    pairwise-summation block, and a few isolated nodes (first and last
    in node order among them) get empty rows.
    """
    rng = random.Random(seed)
    nodes = list(range(n))
    rng.shuffle(nodes)
    isolated = {nodes[0], nodes[-1], nodes[n // 3]}
    pool = [v for v in nodes if v not in isolated]
    hub_node = pool[len(pool) // 2]
    edges = {}
    for friend in rng.sample([v for v in pool if v != hub_node], hub):
        edges[frozenset((hub_node, friend))] = rng.uniform(0.01, 10.0)
    for _ in range(4 * n):
        u, v = rng.sample(pool, 2)
        edges[frozenset((u, v))] = rng.uniform(0.01, 10.0)
    pairs = [tuple(pair) + (w,) for pair, w in edges.items()]
    rng.shuffle(pairs)
    graph = SocialGraph(nodes)
    for u, v, w in pairs:
        graph.add_edge(u, v, w)
    return graph


def make_instance(graph: SocialGraph, seed: int = 0) -> RMGPInstance:
    costs = np.random.default_rng(seed).uniform(0.1, 1.0, (graph.num_nodes, 4))
    return RMGPInstance(graph, list(range(4)), costs, alpha=0.4)


class TestBuilderMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_weighted_graphs(self, seed):
        instance = make_instance(shuffled_weighted_graph(seed), seed)
        assert (instance.degrees() == 0).sum() == 3
        assert instance.degrees().max() > 128
        assert_matches_reference(instance)

    def test_isolated_nodes_only(self):
        instance = make_instance(SocialGraph(["a", "b", "c"]))
        assert_matches_reference(instance)
        assert instance.indices.size == 0
        assert instance.half_strength.tolist() == [0.0, 0.0, 0.0]

    def test_empty_graph(self):
        instance = make_instance(SocialGraph())
        assert_matches_reference(instance)
        assert instance.indptr.tolist() == [0]

    def test_churned_instance(self):
        # Churn perturbs adjacency-dict order and leaves the scratch
        # buffers larger than the live views; a rebuild on the engine's
        # own instance must still match the reference exactly.
        base = make_instance(shuffled_weighted_graph(11, n=120, hub=60), 11)
        engine = IncrementalRMGP(base, seed=0)
        feed = MutationFeed(engine)
        stream = random_mutation_stream(base, 120, seed=5)
        for start in range(0, len(stream), 20):
            feed.apply(stream[start : start + 20])
        churned = engine.instance
        churned.rebuild_adjacency()
        assert churned._csr_scratch["indices"].size >= churned.indices.size
        assert_matches_reference(churned)

    def test_dangling_edge_names_its_owner(self):
        graph = shuffled_weighted_graph(3, n=40, hub=10)
        owner = graph.nodes()[5]
        graph._adj[owner]["ghost"] = 1.0
        with pytest.raises(
            GraphError, match=rf"edge {owner!r} -> 'ghost' dangles"
        ):
            make_instance(graph)
