"""Unit tests for RMGP_se (Section 4.1)."""

import numpy as np
import pytest

from repro import partition
from repro.core import (
    build_elimination_plan,
    is_nash_equilibrium,
    player_strategy_costs,
)

from tests.core.conftest import random_instance


class TestEliminationPlan:
    def test_valid_regions_formula(self, instance):
        plan = build_elimination_plan(instance)
        ratio = (1 - instance.alpha) / instance.alpha
        for player in range(instance.n):
            row = instance.cost.row(player)
            expected = row.min() + ratio * instance.half_strength[player]
            assert plan.valid_regions[player] == pytest.approx(expected)

    def test_valid_sets_definition(self, instance):
        plan = build_elimination_plan(instance)
        for player in range(instance.n):
            row = instance.cost.row(player)
            bound = plan.valid_regions[player]
            expected = set(np.flatnonzero(row <= bound + 1e-12).tolist())
            assert set(plan.valid_classes[player].tolist()) == expected

    def test_cheapest_class_always_valid(self, instance):
        plan = build_elimination_plan(instance)
        for player in range(instance.n):
            cheapest = int(instance.cost.row(player).argmin())
            assert cheapest in plan.valid_classes[player]

    def test_isolated_player_is_fixed(self):
        # A player with no friends can only follow the cheapest class.
        instance = random_instance(edge_probability=0.0, seed=1)
        plan = build_elimination_plan(instance)
        assert plan.num_fixed == instance.n

    def test_strategies_remaining_bounds(self, instance):
        plan = build_elimination_plan(instance)
        assert instance.n <= plan.strategies_remaining() <= instance.n * instance.k


class TestNeverPrunesBestResponse:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_best_response_always_valid(self, seed):
        """Any best response against any profile stays inside S'_v."""
        instance = random_instance(seed=seed)
        plan = build_elimination_plan(instance)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            assignment = rng.integers(0, instance.k, instance.n)
            for player in range(instance.n):
                costs = player_strategy_costs(instance, assignment, player)
                best = int(costs.argmin())
                assert best in plan.valid_classes[player], (
                    f"player {player}: best response {best} was pruned"
                )


class TestSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reaches_nash_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="se", seed=seed)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    def test_fixed_players_at_cheapest_class(self, instance):
        plan = build_elimination_plan(instance)
        result = partition(instance, solver="se", plan=plan, seed=0)
        for player in range(instance.n):
            if plan.fixed_class[player] >= 0:
                assert result.assignment[player] == plan.fixed_class[player]

    def test_final_classes_within_valid_sets(self, instance):
        plan = build_elimination_plan(instance)
        result = partition(instance, solver="se", plan=plan, seed=0)
        for player in range(instance.n):
            assert result.assignment[player] in plan.valid_classes[player]

    def test_reusing_plan_matches_fresh(self, instance):
        plan = build_elimination_plan(instance)
        fresh = partition(instance, solver="se", seed=3)
        reused = partition(instance, solver="se", plan=plan, seed=3)
        np.testing.assert_array_equal(fresh.assignment, reused.assignment)

    def test_extra_diagnostics(self, instance):
        result = partition(instance, solver="se", seed=0)
        assert result.extra["strategies_total"] == instance.n * instance.k
        assert 0 <= result.extra["num_fixed"] <= instance.n
        assert result.extra["strategies_remaining"] <= instance.n * instance.k

    def test_matches_baseline_quality_from_same_start(self):
        """From closest-init + given order, se explores the same responses."""

        instance = random_instance(seed=9)
        baseline = partition(
            instance, solver="b", init="closest", order="given"
        )
        pruned = partition(
            instance, solver="se", init="closest", order="given"
        )
        np.testing.assert_array_equal(baseline.assignment, pruned.assignment)
