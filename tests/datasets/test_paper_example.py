"""The reconstructed running example must satisfy every claim the paper
makes about it explicitly (Sections 3.1 and 4.1)."""

import numpy as np
import pytest

from repro import partition
from repro.core import build_elimination_plan, is_nash_equilibrium, objective
from repro.datasets import (
    EVENTS,
    USERS,
    paper_example_cost_matrix,
    paper_example_graph,
    paper_example_instance,
)


@pytest.fixture(scope="module")
def instance():
    return paper_example_instance()


@pytest.fixture(scope="module")
def plan(instance):
    return build_elimination_plan(instance)


class TestFigure1Data:
    def test_six_users_three_events(self, instance):
        assert instance.n == 6
        assert instance.k == 3
        assert instance.alpha == 0.5

    def test_v1_costs_match_section_4_1(self):
        matrix = paper_example_cost_matrix()
        v1 = USERS.index("v1")
        np.testing.assert_allclose(matrix[v1], [0.48, 0.60, 0.27])

    def test_graph_shape(self):
        graph = paper_example_graph()
        assert graph.num_nodes == 6
        assert graph.num_edges == 6
        # W_v1 = 0.10 (half the incident weight), forced by VR_v1 = 0.37.
        assert graph.weighted_degree("v1") == pytest.approx(0.20)


class TestSection41Claims:
    def test_vr_v1_is_0_37(self, instance, plan):
        v1 = instance.index_of["v1"]
        assert plan.valid_regions[v1] == pytest.approx(0.37)

    def test_s_v1_contains_only_p3(self, instance, plan):
        v1 = instance.index_of["v1"]
        assert plan.valid_classes[v1].tolist() == [EVENTS.index("p3")]
        assert plan.fixed_class[v1] == EVENTS.index("p3")

    def test_v5_eliminated(self, instance, plan):
        """'Similarly, we can eliminate v5' — one valid strategy only."""
        v5 = instance.index_of["v5"]
        assert plan.fixed_class[v5] == EVENTS.index("p1")

    def test_p1_pruned_from_v2(self, instance, plan):
        """'... and prune p1 from S'_v2'."""
        v2 = instance.index_of["v2"]
        valid = set(plan.valid_classes[v2].tolist())
        assert EVENTS.index("p1") not in valid
        assert EVENTS.index("p2") in valid
        assert EVENTS.index("p3") in valid


class TestEquilibrium:
    def test_deterministic_equilibrium(self, instance):
        result = partition(instance, solver="b", init="closest", order="given")
        assert result.labels == {
            "v1": "p3",
            "v2": "p2",
            "v3": "p2",
            "v4": "p2",
            "v5": "p1",
            "v6": "p2",
        }
        assert is_nash_equilibrium(instance, result.assignment)

    def test_v4_dragged_by_friends(self, instance):
        """The Figure 1 narrative: v4 is not at his closest event because
        his friends v3 and v6 attend another one."""
        result = partition(instance, solver="b", init="closest", order="given")
        v4 = instance.index_of["v4"]
        closest = int(instance.cost.row(v4).argmin())
        assert result.assignment[v4] != closest
        assert result.labels["v4"] == result.labels["v3"] == result.labels["v6"]

    def test_all_solvers_agree_on_this_instance(self, instance):
        expected = partition(
            instance, solver="b", init="closest", order="given"
        )
        optimized = partition(
            instance, solver="all", init="closest", order="given"
        )
        np.testing.assert_array_equal(expected.assignment, optimized.assignment)

    def test_objective_value(self, instance):
        result = partition(instance, solver="b", init="closest", order="given")
        value = objective(instance, result.assignment)
        # Hand computation: assignment = .27+.34+.30+.67+.10+.20 = 1.88;
        # crossing edges: (v1,v4)=.1, (v1,v5)=.1, (v2,v5)=.4 -> 0.6.
        assert value.assignment_cost == pytest.approx(1.88)
        assert value.social_cost == pytest.approx(0.60)
        assert value.total == pytest.approx(0.5 * 1.88 + 0.5 * 0.60)
