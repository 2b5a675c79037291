"""Unit tests for RMGP_all (all optimizations composed)."""

import numpy as np
import pytest

from repro import partition
from repro.core import (
    build_elimination_plan,
    is_nash_equilibrium,
    player_strategy_costs,
)
from repro.core.combined import build_pruned_table
from repro.graph import greedy_coloring

from tests.core.conftest import random_instance


class TestPrunedTable:
    def test_valid_entries_match_strategy_costs(self, instance):
        plan = build_elimination_plan(instance)
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, instance.k, instance.n)
        table = build_pruned_table(instance, assignment, plan)
        for player in range(instance.n):
            costs = player_strategy_costs(instance, assignment, player)
            for klass in plan.valid_classes[player]:
                assert table[player, klass] == pytest.approx(costs[klass])

    def test_pruned_entries_are_inf(self, instance):
        plan = build_elimination_plan(instance)
        assignment = np.zeros(instance.n, dtype=np.int64)
        table = build_pruned_table(instance, assignment, plan)
        for player in range(instance.n):
            valid = set(plan.valid_classes[player].tolist())
            for klass in range(instance.k):
                if klass not in valid:
                    assert np.isinf(table[player, klass])


class TestSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reaches_nash_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="all", seed=seed)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    def test_fixed_players_respected(self, instance):
        plan = build_elimination_plan(instance)
        result = partition(instance, solver="all", plan=plan, seed=0)
        for player in range(instance.n):
            if plan.fixed_class[player] >= 0:
                assert result.assignment[player] == plan.fixed_class[player]

    def test_accepts_explicit_coloring(self, instance):
        coloring = greedy_coloring(instance.graph)
        result = partition(instance, solver="all", coloring=coloring, seed=0)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    def test_diagnostics(self, instance):
        result = partition(instance, solver="all", seed=0)
        assert result.extra["num_groups"] >= 1
        assert 0 <= result.extra["num_fixed"] <= instance.n
        assert result.extra["strategies_remaining"] <= instance.n * instance.k

    def test_warm_start_from_equilibrium(self, instance):
        first = partition(instance, solver="all", seed=0)
        second = partition(
            instance, solver="all", warm_start=first.assignment, seed=0
        )
        np.testing.assert_array_equal(first.assignment, second.assignment)
        assert second.total_deviations == 0

    def test_isolated_players_all_fixed(self):
        instance = random_instance(edge_probability=0.0, seed=2)
        result = partition(instance, solver="all", seed=0)
        assert result.extra["num_fixed"] == instance.n
        # Everyone sits at the cheapest class.
        for player in range(instance.n):
            cheapest = int(instance.cost.row(player).argmin())
            assert result.assignment[player] == cheapest
