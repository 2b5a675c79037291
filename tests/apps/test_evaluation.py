"""Unit tests for recommendation-quality metrics."""

import numpy as np
import pytest

from repro import partition
from repro.apps.evaluation import (
    attendance_gini,
    distance_percentiles,
    satisfaction_report,
    user_satisfaction,
)
from repro.core import RMGPInstance
from repro.errors import ConfigurationError
from repro.graph import SocialGraph

from tests.core.conftest import random_instance


@pytest.fixture
def pair_instance():
    graph = SocialGraph.from_edges([(0, 1, 1.0)])
    cost = np.array([[0.0, 2.0], [2.0, 0.0]])
    return RMGPInstance(graph, ["a", "b"], cost, alpha=0.5)


class TestUserSatisfaction:
    def test_at_cheapest_class(self, pair_instance):
        scores = user_satisfaction(pair_instance, np.array([0, 1]))
        assert scores[0].assignment_cost == 0.0
        assert scores[0].detour_ratio == 1.0
        assert scores[0].social_fraction == 0.0  # friend elsewhere

    def test_detour(self, pair_instance):
        scores = user_satisfaction(pair_instance, np.array([1, 1]))
        assert scores[0].assignment_cost == 2.0
        assert scores[0].detour_ratio == float("inf")  # cheapest was free
        assert scores[0].social_fraction == 1.0

    def test_no_friends_full_social(self):
        graph = SocialGraph(nodes=[0])
        instance = RMGPInstance(graph, ["a"], np.array([[1.0]]))
        scores = user_satisfaction(instance, np.array([0]))
        assert scores[0].social_fraction == 1.0
        assert scores[0].friends_total == 0


class TestGini:
    def test_even_is_zero(self):
        assignment = np.array([0, 0, 1, 1, 2, 2])
        assert attendance_gini(assignment, 3) == pytest.approx(0.0, abs=1e-12)

    def test_all_in_one_class(self):
        assignment = np.zeros(10, dtype=np.int64)
        value = attendance_gini(assignment, 5)
        assert value == pytest.approx(1.0 - 1.0 / 5.0)

    def test_monotone_in_skew(self):
        even = attendance_gini(np.array([0, 0, 1, 1]), 2)
        skew = attendance_gini(np.array([0, 0, 0, 1]), 2)
        assert skew > even

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            attendance_gini(np.array([0]), 0)


class TestPercentiles:
    def test_values(self, pair_instance):
        result = distance_percentiles(
            pair_instance, np.array([0, 0]), percentiles=(0, 100)
        )
        assert result[0] == 0.0
        assert result[100] == 2.0


class TestReport:
    def test_equilibrium_report_consistency(self):
        instance = random_instance(seed=0)
        result = partition(instance, solver="b", seed=0)
        report = satisfaction_report(instance, result.assignment)
        assert report.mean_detour_ratio >= 1.0
        assert 0 <= report.users_at_cheapest <= instance.n
        assert 0.0 <= report.mean_social_fraction <= 1.0
        assert 0.0 <= report.attendance_gini <= 1.0
        assert "detour" in str(report)

    def test_closest_init_everyone_at_cheapest(self):
        instance = random_instance(edge_probability=0.0, seed=2)
        result = partition(instance, solver="b", init="closest", order="given")
        report = satisfaction_report(instance, result.assignment)
        assert report.users_at_cheapest == instance.n
        assert report.mean_detour_ratio == pytest.approx(1.0)
        assert report.isolated_users == instance.n
