"""Unit tests for multi-criteria assignment costs."""

import numpy as np
import pytest

from repro import partition
from repro.apps import (
    Criterion,
    combine_criteria,
    criterion_breakdown,
    min_max_rescaled,
)
from repro.core import MatrixCost, RMGPInstance
from repro.errors import ConfigurationError
from repro.graph import SocialGraph


class TestRescale:
    def test_maps_to_unit_interval(self):
        matrix = np.array([[10.0, 20.0], [30.0, 40.0]])
        scaled = min_max_rescaled(matrix)
        assert scaled.min() == 0.0
        assert scaled.max() == 1.0
        np.testing.assert_allclose(
            scaled, [[0.0, 1.0 / 3.0], [2.0 / 3.0, 1.0]]
        )

    def test_constant_matrix_becomes_zero(self):
        np.testing.assert_allclose(
            min_max_rescaled(np.full((2, 2), 7.0)), np.zeros((2, 2))
        )


class TestCombine:
    def test_weighted_sum_of_rescaled(self):
        distance = np.array([[0.0, 100.0]])
        preference = np.array([[1.0, 0.0]])
        combined = combine_criteria(
            [
                Criterion("distance", distance, weight=1.0),
                Criterion("preference", preference, weight=1.0),
            ]
        )
        np.testing.assert_allclose(combined.row(0), [1.0, 1.0])

    def test_without_rescale(self):
        distance = np.array([[0.0, 100.0]])
        combined = combine_criteria(
            [Criterion("distance", distance)], rescale=False
        )
        np.testing.assert_allclose(combined.row(0), [0.0, 100.0])

    def test_provider_criteria_used_as_is(self):
        provider = MatrixCost(np.array([[1.0, 2.0]]))
        combined = combine_criteria([Criterion("p", provider)], rescale=True)
        np.testing.assert_allclose(combined.row(0), [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            combine_criteria([])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ConfigurationError):
            combine_criteria([Criterion("d", np.ones((1, 2)), weight=0.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigurationError):
            Criterion("d", np.ones((1, 2)), weight=-1.0)


class TestBreakdown:
    def test_per_criterion_totals(self):
        distance = np.array([[0.0, 4.0], [4.0, 0.0]])
        preference = np.array([[1.0, 0.0], [0.0, 1.0]])
        criteria = [
            Criterion("distance", distance, weight=2.0),
            Criterion("preference", preference, weight=1.0),
        ]
        assignment = np.array([0, 1])
        breakdown = criterion_breakdown(criteria, assignment, rescale=False)
        assert breakdown["distance"] == pytest.approx(0.0)
        assert breakdown["preference"] == pytest.approx(2.0)

    def test_rescaled_breakdown_matches_combined_objective(self):
        rng = np.random.default_rng(0)
        distance = rng.uniform(0, 500, (6, 3))
        preference = rng.uniform(0, 1, (6, 3))
        criteria = [
            Criterion("distance", distance, weight=0.7),
            Criterion("preference", preference, weight=0.3),
        ]
        combined = combine_criteria(criteria)
        assignment = rng.integers(0, 3, 6)
        total = sum(
            combined.cost(v, int(assignment[v])) for v in range(6)
        )
        breakdown = criterion_breakdown(criteria, assignment)
        assert sum(breakdown.values()) == pytest.approx(total)


class TestGameIntegration:
    def test_multicriteria_game_solves(self):
        graph = SocialGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        distance = np.array([[0.0, 9.0], [5.0, 5.0], [9.0, 0.0]])
        preference = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
        cost = combine_criteria(
            [Criterion("d", distance), Criterion("p", preference)]
        )
        instance = RMGPInstance(graph, ["a", "b"], cost, alpha=0.5)
        result = partition(instance, solver="b", init="closest", order="given")
        assert result.converged
