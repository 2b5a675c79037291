"""Unit tests for the vectorized group-batched solver."""

import numpy as np
import pytest

from repro import partition
from repro.core import is_nash_equilibrium
from repro.graph import greedy_coloring

from tests.core.conftest import random_instance


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reaches_nash_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="vec", seed=seed)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    def test_matches_independent_sets_schedule(self, instance):
        """Same coloring + deterministic init => the same game trajectory.

        Within a group the batch commit equals sequential processing
        (members are non-adjacent), so RMGP_vec must land exactly where
        RMGP_is does when both sweep groups in the same (color) order.
        """
        coloring = greedy_coloring(instance.graph)
        scalar = partition(
            instance, solver="is", init="closest", order="given",
            coloring=coloring,
        )
        batched = partition(
            instance, solver="vec", init="closest", coloring=coloring
        )
        np.testing.assert_array_equal(scalar.assignment, batched.assignment)
        assert scalar.num_rounds == batched.num_rounds

    def test_warm_start_noop(self, instance):
        first = partition(instance, solver="vec", seed=0)
        second = partition(instance, solver="vec", warm_start=first.assignment)
        assert second.total_deviations == 0
        np.testing.assert_array_equal(first.assignment, second.assignment)

    def test_isolated_players(self):
        instance = random_instance(edge_probability=0.0, seed=1)
        result = partition(instance, solver="vec", init="closest")
        for player in range(instance.n):
            assert result.assignment[player] == int(
                instance.cost.row(player).argmin()
            )

    def test_value_matches_objective(self, instance):
        from repro.core import objective

        result = partition(instance, solver="vec", seed=2)
        assert result.value.total == pytest.approx(
            objective(instance, result.assignment).total
        )

    def test_facade_exposes_vec(self, instance):
        from repro.core import RMGPGame

        game = RMGPGame(
            instance.graph, instance.classes, instance.cost, instance.alpha
        )
        result = game.solve(method="vec", seed=0)
        assert result.solver == "RMGP_vec"
        assert game.verify(result).is_equilibrium


class TestLargerScale:
    def test_medium_instance(self):
        instance = random_instance(
            num_players=300, num_classes=12, edge_probability=0.04, seed=9
        )
        result = partition(instance, solver="vec", seed=0)
        assert is_nash_equilibrium(instance, result.assignment)
