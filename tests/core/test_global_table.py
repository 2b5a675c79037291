"""Unit tests for RMGP_gt (Figure 5)."""

import numpy as np
import pytest

from repro import partition
from repro.core import (
    build_global_table,
    happiness,
    is_nash_equilibrium,
    player_strategy_costs,
)

from tests.core.conftest import random_instance


class TestTableConstruction:
    def test_matches_strategy_costs(self, instance):
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, instance.k, instance.n)
        table = build_global_table(instance, assignment)
        for player in range(instance.n):
            np.testing.assert_allclose(
                table[player],
                player_strategy_costs(instance, assignment, player),
            )

    def test_happiness_flags(self, instance):
        rng = np.random.default_rng(1)
        assignment = rng.integers(0, instance.k, instance.n)
        table = build_global_table(instance, assignment)
        happy = happiness(table, assignment)
        for player in range(instance.n):
            row = table[player]
            expected = row[assignment[player]] <= row.min() + 1e-12
            assert happy[player] == expected


class TestSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reaches_nash_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="gt", seed=seed)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    def test_matches_baseline_from_same_start(self, instance):
        """Same init + same order => identical best-response trajectory.

        RMGP_gt performs "the same number of rounds as RMGP_b assuming
        both use the same initial assignments" (Section 4.3) — and the
        same final equilibrium, since only the bookkeeping differs.
        """
        baseline = partition(
            instance, solver="b", init="closest", order="given"
        )
        table = partition(instance, solver="gt", init="closest", order="given")
        np.testing.assert_array_equal(baseline.assignment, table.assignment)

    def test_examines_fewer_players_over_time(self):
        instance = random_instance(num_players=60, seed=7)
        result = partition(instance, solver="gt", init="random", seed=7)
        examined = [
            r.players_examined for r in result.rounds if r.round_index > 0
        ]
        if len(examined) > 2:
            # The number of unhappy players examined decays.
            assert examined[-1] <= examined[0]

    def test_table_consistent_at_termination(self, instance):
        result = partition(instance, solver="gt", seed=0)
        table = build_global_table(instance, result.assignment)
        happy = happiness(table, result.assignment)
        assert happy.all()

    def test_reports_table_bytes(self, instance):
        result = partition(instance, solver="gt", seed=0)
        assert result.extra["table_bytes"] == instance.n * instance.k * 8
