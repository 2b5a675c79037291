"""Unit tests for RMGP_N normalization (Section 3.3)."""

from math import sqrt

import numpy as np
import pytest

from repro import partition
from repro.core import (
    RMGPInstance,
    average_median_cost,
    average_min_cost,
    estimate_cn,
    exact_cn,
    normalize,
    normalize_with_constant,
    objective,
)
from repro.errors import ConfigurationError
from repro.graph import SocialGraph

from tests.core.conftest import random_instance


def scaled_instance(scale: float, seed: int = 0) -> RMGPInstance:
    """Random instance whose assignment costs are multiplied by scale."""
    base = random_instance(seed=seed)
    matrix = base.cost.dense() * scale
    return RMGPInstance(base.graph, base.classes, matrix, alpha=base.alpha)


class TestDistanceStatistics:
    def test_average_min_cost(self):
        graph = SocialGraph.from_edges([(0, 1, 1.0)])
        cost = np.array([[1.0, 3.0], [5.0, 2.0]])
        instance = RMGPInstance(graph, ["a", "b"], cost)
        assert average_min_cost(instance) == pytest.approx((1.0 + 2.0) / 2)

    def test_average_median_cost(self):
        graph = SocialGraph.from_edges([(0, 1, 1.0)])
        cost = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        instance = RMGPInstance(graph, ["a", "b", "c"], cost)
        assert average_median_cost(instance) == pytest.approx((3.0 + 4.0) / 2)


class TestEstimates:
    def test_optimistic_formula(self, instance):
        est = estimate_cn(instance, "optimistic")
        expected = (est.deg_avg * est.w_avg) / (
            2.0 * est.avg_min_cost * sqrt(instance.k)
        )
        assert est.cn == pytest.approx(expected)

    def test_pessimistic_formula(self, instance):
        est = estimate_cn(instance, "pessimistic")
        expected = (est.deg_avg * (instance.k - 1) * est.w_avg) / (
            2.0 * est.avg_median_cost * instance.k
        )
        assert est.cn == pytest.approx(expected)

    def test_unknown_method_rejected(self, instance):
        with pytest.raises(ConfigurationError):
            estimate_cn(instance, "bogus")

    def test_degenerate_no_edges(self):
        instance = random_instance(edge_probability=0.0, seed=1)
        est = estimate_cn(instance, "pessimistic")
        assert est.cn == 1.0  # falls back to the identity scaling

    def test_cn_scales_inversely_with_costs(self):
        """Doubling all distances halves C_N (the space contracts back)."""
        small = estimate_cn(scaled_instance(1.0), "pessimistic").cn
        big = estimate_cn(scaled_instance(2.0), "pessimistic").cn
        assert big == pytest.approx(small / 2.0)


class TestNormalize:
    def test_returns_scaled_instance(self, instance):
        normalized, est = normalize(instance, "pessimistic")
        assert normalized.cost.cost(0, 0) == pytest.approx(
            est.cn * instance.cost.cost(0, 0)
        )
        assert normalized.alpha == instance.alpha
        assert normalized.graph is instance.graph

    @pytest.mark.parametrize("solver", ["gt", "b", "vec"])
    def test_clone_solves_like_a_fresh_build(self, solver):
        """``with_cost`` shares the parent's CSR and ``max_social_cost``;
        the normalized solve must equal one on a from-scratch instance."""
        base = scaled_instance(100.0, seed=4)
        normalized, _ = normalize(base, "pessimistic")
        fresh = RMGPInstance(
            base.graph, base.classes, normalized.cost, alpha=base.alpha
        )
        ours = partition(normalized, solver=solver, seed=2)
        theirs = partition(fresh, solver=solver, seed=2)
        np.testing.assert_array_equal(ours.assignment, theirs.assignment)
        assert ours.value == theirs.value

    def test_normalization_balances_components(self):
        """After pessimistic normalization the two cost scales are close.

        We check the *potential* scale: normalized total assignment cost
        and social cost of the solved game are within a modest factor,
        whereas raw they differ by the cost scale (x100 here).
        """
        raw = scaled_instance(100.0, seed=3)
        result_raw = partition(raw, solver="b", init="closest", order="given")
        value_raw = objective(raw, result_raw.assignment)
        ratio_raw = value_raw.assignment_cost / max(value_raw.social_cost, 1e-9)

        normalized, _ = normalize(raw, "pessimistic")
        result_norm = partition(
            normalized, solver="b", init="closest", order="given"
        )
        value_norm = objective(normalized, result_norm.assignment)
        ratio_norm = value_norm.assignment_cost / max(value_norm.social_cost, 1e-9)

        assert ratio_raw > 10 * ratio_norm

    def test_scaling_invariance_of_solution(self):
        """Normalizing fully compensates a uniform rescale of the costs.

        An instance with costs c and one with costs 100c normalize to the
        same effective game, so deterministic dynamics coincide.
        """
        a, _ = normalize(scaled_instance(1.0, seed=4), "pessimistic")
        b, _ = normalize(scaled_instance(100.0, seed=4), "pessimistic")
        result_a = partition(a, solver="b", init="closest", order="given")
        result_b = partition(b, solver="b", init="closest", order="given")
        np.testing.assert_array_equal(result_a.assignment, result_b.assignment)

    def test_normalize_with_constant(self, instance):
        scaled = normalize_with_constant(instance, 3.0)
        assert scaled.cost.cost(1, 1) == pytest.approx(3 * instance.cost.cost(1, 1))

    @pytest.mark.parametrize("cn", [0.0, -2.0])
    def test_normalize_with_bad_constant(self, instance, cn):
        with pytest.raises(ConfigurationError):
            normalize_with_constant(instance, cn)


class TestExactCN:
    def test_definition(self, instance):
        result = partition(instance, solver="b", seed=0)
        value = objective(instance, result.assignment)
        ac = value.assignment_cost / instance.n
        sc = 2.0 * value.social_cost / instance.n
        assert exact_cn(instance, result.assignment) == pytest.approx(
            sc / (2.0 * ac)
        )

    def test_zero_assignment_cost(self):
        graph = SocialGraph.from_edges([(0, 1, 1.0)])
        instance = RMGPInstance(graph, ["a"], np.zeros((2, 1)))
        assert exact_cn(instance, np.zeros(2, dtype=np.int64)) == 1.0
