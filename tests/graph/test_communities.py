"""Unit tests for label propagation, and the RMGP <-> LP bridge."""

import random

import numpy as np
import pytest

from repro import partition
from repro.errors import GraphError
from repro.graph import SocialGraph, planted_partition
from repro.graph.communities import agreement, community_sizes, label_propagation


class TestLabelPropagation:
    def test_two_cliques_found(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
        graph = SocialGraph.from_edges(edges)
        graph.add_edge(0, 4, 0.01)  # weak bridge
        labels = label_propagation(graph, rng=random.Random(0))
        assert len({labels[i] for i in range(4)}) == 1
        assert len({labels[i] for i in range(4, 8)}) == 1
        assert labels[0] != labels[4]

    def test_planted_partition_recovered(self):
        graph, membership = planted_partition(
            [20, 20], 0.6, 0.02, random.Random(1)
        )
        labels = label_propagation(graph, rng=random.Random(1))
        truth = {v: membership[v] for v in graph}
        assert agreement(labels, truth) > 0.9

    def test_isolated_node_keeps_label(self):
        graph = SocialGraph(nodes=[0])
        labels = label_propagation(graph, rng=random.Random(0))
        assert labels == {0: 0}

    def test_initial_labels_respected(self):
        graph = SocialGraph.from_edges([(0, 1), (1, 2)])
        labels = label_propagation(
            graph,
            rng=random.Random(0),
            initial_labels={0: 7, 1: 7, 2: 7},
        )
        assert set(labels.values()) == {7}

    def test_incomplete_initial_labels_rejected(self):
        graph = SocialGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            label_propagation(graph, initial_labels={0: 1})

    def test_bad_sweeps_rejected(self):
        with pytest.raises(GraphError):
            label_propagation(SocialGraph(), max_sweeps=0)


class TestHelpers:
    def test_community_sizes_sorted(self):
        sizes = community_sizes({0: "a", 1: "a", 2: "b"})
        assert sizes == [2, 1]

    def test_agreement_identity(self):
        labels = {0: 1, 1: 1, 2: 2}
        assert agreement(labels, labels) == 1.0

    def test_agreement_permutation_invariant(self):
        a = {0: 1, 1: 1, 2: 2}
        b = {0: 9, 1: 9, 2: 3}
        assert agreement(a, b) == 1.0

    def test_agreement_mismatched_sets(self):
        with pytest.raises(GraphError):
            agreement({0: 1}, {1: 1})


class TestRMGPBridge:
    def test_low_alpha_rmgp_approximates_label_propagation(self):
        """With alpha -> 0 RMGP's best response is weighted LP over k seeds.

        On a planted two-community graph with one event per community,
        low-alpha RMGP should recover the communities just like label
        propagation does.
        """
        from repro.core import RMGPInstance

        graph, membership = planted_partition(
            [15, 15], 0.6, 0.02, random.Random(2)
        )
        # Tiny assignment preference toward the "own" community's event.
        cost = np.array(
            [[0.0, 0.01] if membership[v] == 0 else [0.01, 0.0] for v in graph]
        )
        instance = RMGPInstance(graph, ["c0", "c1"], cost, alpha=0.05)
        result = partition(instance, solver="b", init="closest", order="given")
        rmgp_labels = {
            node: int(result.assignment[i])
            for i, node in enumerate(graph.nodes())
        }
        truth = {v: membership[v] for v in graph}
        assert agreement(rmgp_labels, truth) > 0.9
