"""Unit tests for max-gain (best-improvement) dynamics."""

import numpy as np
import pytest

from repro import partition
from repro.core import is_nash_equilibrium
from repro.errors import ConvergenceError

from tests.core.conftest import random_instance


class TestConvergence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reaches_nash_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="mg", seed=seed)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    def test_random_init_converges(self, instance):
        result = partition(instance, solver="mg", init="random", seed=7)
        assert is_nash_equilibrium(instance, result.assignment)

    def test_warm_start_noop(self, instance):
        first = partition(instance, solver="b", seed=0)
        second = partition(instance, solver="mg", warm_start=first.assignment)
        assert second.extra["total_moves"] == 0
        np.testing.assert_array_equal(first.assignment, second.assignment)

    def test_move_budget_enforced(self, instance):
        with pytest.raises(ConvergenceError):
            partition(
                instance, solver="mg", init="random", seed=1, max_moves=0
            )

    def test_moves_reported(self, instance):
        result = partition(instance, solver="mg", init="random", seed=2)
        assert result.extra["total_moves"] == result.total_deviations
        assert result.extra["total_moves"] >= 0

    def test_no_more_moves_than_round_robin_deviations_order(self, instance):
        """Max-gain usually needs no more moves than round-robin.

        Not a theorem — asserted with slack as a regression canary for
        the priority scheduling.
        """
        round_robin = partition(
            instance, solver="b", init="closest", order="given"
        )
        max_gain = partition(instance, solver="mg", init="closest")
        assert (
            max_gain.extra["total_moves"]
            <= 2 * max(round_robin.total_deviations, 1)
        )

    def test_potential_decreases_overall(self, instance):
        from repro.core import potential
        from repro.core.dynamics import initial_assignment

        start = initial_assignment(instance, "closest")
        result = partition(instance, solver="mg", init="closest")
        assert potential(instance, result.assignment) <= potential(
            instance, start
        ) + 1e-9
