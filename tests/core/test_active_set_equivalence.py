"""Frontier scheduling must be observably identical to full sweeps.

The dirty-frontier scheduler (:class:`repro.core.dynamics.ActiveSet`)
claims to skip only players whose examination would provably be a no-op.
These tests pin that claim: reference implementations of the *seed*
full-sweep dynamics (every round examines every player) are kept inline
here, and every production solver must reproduce their assignments
byte for byte — same moves, same rounds, same potential — across
initializations, orderings, alphas, warm starts and the normalized
(:class:`~repro.core.costs.ScaledCost`) path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import partition
from repro.core import dynamics
from repro.core.equilibrium import equilibrium_report
from repro.core.normalization import normalize
from repro.core.objective import player_strategy_costs, potential
from repro.datasets.paper_example import paper_example_instance
from repro.graph import greedy_coloring

from .conftest import random_instance


def _full_sweep_baseline(
    instance,
    init="random",
    order="random",
    seed=None,
    warm_start=None,
    reshuffle_each_round=False,
):
    """The seed RMGP_b: every round examines *every* player."""
    rng = random.Random(seed)
    assignment = dynamics.initial_assignment(instance, init, rng, warm_start)
    sweep = dynamics.player_order(instance, order, rng)
    num_rounds = 0
    while True:
        num_rounds += 1
        if reshuffle_each_round and order == "random":
            sweep = dynamics.player_order(instance, order, rng)
        deviations = 0
        for player in sweep:
            costs = player_strategy_costs(instance, assignment, player)
            current = int(assignment[player])
            best = int(costs.argmin())
            if (
                best != current
                and costs[best] < costs[current] - dynamics.DEVIATION_TOLERANCE
            ):
                assignment[player] = best
                deviations += 1
        if deviations == 0:
            return assignment, num_rounds


class TestBaselineMatchesFullSweep:
    @pytest.mark.parametrize("init", ["random", "closest"])
    @pytest.mark.parametrize("order", ["random", "given", "degree"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_byte_identical_trajectory(self, init, order, alpha):
        instance = random_instance(num_players=40, alpha=alpha, seed=3)
        expected, expected_rounds = _full_sweep_baseline(
            instance, init=init, order=order, seed=11
        )
        result = partition(
            instance, solver="b", init=init, order=order, seed=11
        )
        assert result.assignment.tobytes() == expected.tobytes()
        assert result.num_rounds == expected_rounds
        assert potential(instance, result.assignment) == potential(
            instance, expected
        )

    def test_reshuffle_each_round(self):
        instance = random_instance(num_players=40, seed=6)
        expected, expected_rounds = _full_sweep_baseline(
            instance,
            init="random",
            order="random",
            seed=9,
            reshuffle_each_round=True,
        )
        result = partition(
            instance, solver="b",
            init="random",
            order="random",
            seed=9,
            reshuffle_each_round=True,
        )
        assert result.assignment.tobytes() == expected.tobytes()
        assert result.num_rounds == expected_rounds

    def test_warm_start(self):
        instance = random_instance(num_players=30, seed=2)
        start = partition(instance, solver="b", init="random", seed=1).assignment
        perturbed = start.copy()
        perturbed[::5] = (perturbed[::5] + 1) % instance.k
        expected, _ = _full_sweep_baseline(
            instance, order="given", warm_start=perturbed
        )
        result = partition(
            instance, solver="b", order="given", warm_start=perturbed
        )
        assert result.assignment.tobytes() == expected.tobytes()

    def test_normalized_scaled_cost_path(self):
        instance, _ = normalize(
            random_instance(num_players=40, seed=5), "pessimistic"
        )
        expected, expected_rounds = _full_sweep_baseline(
            instance, init="closest", order="degree", seed=0
        )
        result = partition(
            instance, solver="b", init="closest", order="degree", seed=0
        )
        assert result.assignment.tobytes() == expected.tobytes()
        assert result.num_rounds == expected_rounds


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_global_table_matches_full_sweep(self, alpha):
        instance = random_instance(num_players=40, alpha=alpha, seed=4)
        expected, expected_rounds = _full_sweep_baseline(
            instance, init="closest", order="given", seed=0
        )
        result = partition(
            instance, solver="gt", init="closest", order="given", seed=0
        )
        assert result.assignment.tobytes() == expected.tobytes()
        assert result.num_rounds == expected_rounds

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_vectorized_matches_independent_sets(self, alpha):
        instance = random_instance(num_players=40, alpha=alpha, seed=7)
        coloring = greedy_coloring(instance.graph)
        scalar = partition(
            instance, solver="is", init="closest", order="given", seed=0,
            coloring=coloring,
        )
        batched = partition(
            instance, solver="vec", init="closest", seed=0, coloring=coloring
        )
        assert batched.assignment.tobytes() == scalar.assignment.tobytes()
        assert batched.num_rounds == scalar.num_rounds


class TestFrontierProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        alpha=st.sampled_from([0.2, 0.5, 0.8]),
        solver=st.sampled_from(["baseline", "global_table", "vectorized"]),
    )
    def test_frontier_quiet_state_is_nash(self, seed, alpha, solver):
        """An empty frontier certifies equilibrium (Theorem 1 via ActiveSet)."""
        instance = random_instance(
            num_players=25, num_classes=3, alpha=alpha, seed=seed % 50
        )
        if solver == "baseline":
            result = partition(
                instance, solver="b", init="random", order="random", seed=seed
            )
        elif solver == "global_table":
            result = partition(instance, solver="gt", init="random", seed=seed)
        else:
            result = partition(
                instance, solver="vec", init="random", seed=seed
            )
        assert result.converged
        assert equilibrium_report(instance, result.assignment).is_equilibrium

    @pytest.mark.parametrize(
        "solve",
        [
            lambda inst: partition(
                inst, solver="b", init="random", order="given", seed=2
            ),
            lambda inst: partition(
                inst, solver="gt", init="random", order="given", seed=2
            ),
        ],
        ids=["baseline", "global_table"],
    )
    def test_players_examined_shrinks_on_paper_example(self, solve):
        """The frontier, not ``n``: examined counts strictly decrease."""
        result = solve(paper_example_instance())
        examined = [r.players_examined for r in result.rounds[1:]]
        assert len(examined) >= 2
        assert all(b < a for a, b in zip(examined, examined[1:]))
        # Round 1 of a cold solve examines at most every player once.
        assert examined[0] <= len(result.assignment)


class TestActiveSetUnit:
    def test_mark_clear_pending_roundtrip(self):
        active = dynamics.ActiveSet(6)
        assert active.any_dirty() and active.count() == 6
        active.clear(np.arange(6))
        assert not active.any_dirty()
        active.mark([4, 1])
        assert active.any_dirty() and active.count() == 2

    def test_initial_dirty_vector_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            dynamics.ActiveSet(4, dirty=np.ones(3, dtype=bool))
