"""Unit tests for RMGPInstance index-space construction."""

import numpy as np
import pytest

from repro.core import RMGPInstance
from repro.errors import ConfigurationError
from repro.graph import SocialGraph

from tests.core.conftest import random_instance


def small_graph() -> SocialGraph:
    return SocialGraph.from_edges([("u", "v", 2.0), ("v", "w", 3.0)])


class TestConstruction:
    def test_dimensions(self):
        instance = RMGPInstance(small_graph(), ["a", "b"], np.zeros((3, 2)))
        assert instance.n == 3
        assert instance.k == 2
        assert instance.alpha == 0.5

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ConfigurationError):
            RMGPInstance(small_graph(), ["a"], np.zeros((3, 1)), alpha=alpha)

    def test_rejects_empty_classes(self):
        with pytest.raises(ConfigurationError):
            RMGPInstance(small_graph(), [], np.zeros((3, 0)))

    def test_rejects_duplicate_classes(self):
        with pytest.raises(ConfigurationError):
            RMGPInstance(small_graph(), ["a", "a"], np.zeros((3, 2)))

    def test_rejects_cost_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            RMGPInstance(small_graph(), ["a", "b"], np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            RMGPInstance(small_graph(), ["a", "b"], np.zeros((3, 3)))

    def test_neighbor_arrays_match_graph(self):
        graph = small_graph()
        instance = RMGPInstance(graph, ["a"], np.zeros((3, 1)))
        v_index = instance.index_of["v"]
        row = slice(instance.indptr[v_index], instance.indptr[v_index + 1])
        neighbors = set(instance.indices[row].tolist())
        assert neighbors == {instance.index_of["u"], instance.index_of["w"]}
        assert sorted(instance.weights[row].tolist()) == [2.0, 3.0]

    def test_half_strength(self):
        instance = RMGPInstance(small_graph(), ["a"], np.zeros((3, 1)))
        v = instance.index_of["v"]
        assert instance.half_strength[v] == pytest.approx(2.5)
        assert instance.max_social_cost[v] == pytest.approx(0.5 * 2.5)

    def test_degrees(self):
        instance = RMGPInstance(small_graph(), ["a"], np.zeros((3, 1)))
        degrees = {
            node: instance.degrees()[i]
            for node, i in instance.index_of.items()
        }
        assert degrees == {"u": 1, "v": 2, "w": 1}


class TestClones:
    def test_with_alpha(self):
        base = random_instance(alpha=0.5)
        clone = base.with_alpha(0.8)
        assert clone.alpha == 0.8
        assert clone.n == base.n
        assert base.alpha == 0.5

    def test_with_cost(self):
        base = random_instance()
        from repro.core import ScaledCost

        clone = base.with_cost(ScaledCost(base.cost, 2.0))
        assert clone.cost.cost(0, 0) == pytest.approx(2 * base.cost.cost(0, 0))


class TestAssignmentConversion:
    def test_round_trip(self):
        instance = RMGPInstance(small_graph(), ["a", "b"], np.zeros((3, 2)))
        assignment = np.array([0, 1, 0])
        labels = instance.assignment_to_labels(assignment)
        assert labels == {"u": "a", "v": "b", "w": "a"}
        back = instance.labels_to_assignment(labels)
        np.testing.assert_array_equal(back, assignment)

    def test_labels_with_unknown_user(self):
        instance = RMGPInstance(small_graph(), ["a"], np.zeros((3, 1)))
        with pytest.raises(ConfigurationError):
            instance.labels_to_assignment({"zz": "a"})

    def test_labels_with_unknown_class(self):
        instance = RMGPInstance(small_graph(), ["a"], np.zeros((3, 1)))
        with pytest.raises(ConfigurationError):
            instance.labels_to_assignment({"u": "zz", "v": "a", "w": "a"})

    def test_labels_incomplete(self):
        instance = RMGPInstance(small_graph(), ["a"], np.zeros((3, 1)))
        with pytest.raises(ConfigurationError):
            instance.labels_to_assignment({"u": "a"})

    def test_validate_rejects_bad_shape(self):
        instance = RMGPInstance(small_graph(), ["a"], np.zeros((3, 1)))
        with pytest.raises(ConfigurationError):
            instance.validate_assignment(np.zeros(2, dtype=np.int64))

    def test_validate_rejects_out_of_range(self):
        instance = RMGPInstance(small_graph(), ["a", "b"], np.zeros((3, 2)))
        with pytest.raises(ConfigurationError):
            instance.validate_assignment(np.array([0, 1, 2]))
        with pytest.raises(ConfigurationError):
            instance.validate_assignment(np.array([0, -1, 1]))
