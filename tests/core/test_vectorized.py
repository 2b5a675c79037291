"""Unit tests for the vectorized group-batched solver, and the batched
best-response kernel it shares with RMGP_is and RMGP_sync checked
against a per-player reference."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import partition
from repro.core import RMGPInstance, dynamics, is_nash_equilibrium
from repro.core.independent_sets import groups_from_coloring, ordered_groups
from repro.core.objective import player_strategy_costs
from repro.graph import SocialGraph

from tests.core.conftest import random_instance


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reaches_nash_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="vec", seed=seed)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

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


@st.composite
def tie_heavy_instances(draw):
    """Quarter-step costs, integer weights and α in quarters.

    Every cost, refund and sum is then a dyadic rational that float64
    holds exactly, so any summation order gives the same strategy costs
    and a tie is a true tie — the keep-current-on-ties rule decides.
    """
    n = draw(st.integers(2, 24))
    k = draw(st.integers(2, 5))
    graph = SocialGraph(range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3 * n)):
        graph.add_edge(u, v, float(draw(st.integers(1, 3))))
    steps = draw(
        st.lists(st.integers(0, 4), min_size=n * k, max_size=n * k)
    )
    cost = 0.25 * np.array(steps, dtype=np.float64).reshape(n, k)
    alpha = draw(st.sampled_from([0.25, 0.5, 0.75]))
    return RMGPInstance(graph, list(range(k)), cost, alpha=alpha)


def reference_best(instance, assignment, player):
    """Figure 3's best response for one player; ties keep the current."""
    costs = player_strategy_costs(instance, assignment, player)
    current = int(assignment[player])
    best = int(costs.argmin())
    if best != current and (
        costs[best] < costs[current] - dynamics.DEVIATION_TOLERANCE
    ):
        return best
    return current


def reference_group_rounds(instance, groups, assignment):
    """Frontier rounds over ``groups``, one player at a time.

    Each group's dirty members respond to the profile as it stood when
    the group began, then commit; a mover dirties its friends.  Returns
    the per-round ``(deviations, players_examined)`` trace.
    """
    dirty = np.ones(instance.n, dtype=bool)
    trace = []
    while True:
        deviations = examined = 0
        for group in groups:
            pending = [p for p in group if dirty[p]]
            moves = [
                (p, reference_best(instance, assignment, p)) for p in pending
            ]
            dirty[pending] = False
            examined += len(pending)
            for player, best in moves:
                if best != assignment[player]:
                    assignment[player] = best
                    friends = slice(
                        instance.indptr[player], instance.indptr[player + 1]
                    )
                    dirty[instance.indices[friends]] = True
                    deviations += 1
        trace.append((deviations, examined))
        if deviations == 0:
            return trace


def reference_sync_round(instance, assignment, rng, damping):
    """Every player responds to the same snapshot; each would-be mover
    draws once, in player-index order.  Returns the deviation count."""
    snapshot = assignment.copy()
    deviations = 0
    for player in range(instance.n):
        best = reference_best(instance, snapshot, player)
        if best != snapshot[player]:
            deviations += 1
            if rng.random() < damping:
                assignment[player] = best
    return deviations


class TestBatchedKernelReference:
    """The batched kernel against per-player rounds written from
    :func:`player_strategy_costs`, on the solvers that run it."""

    @settings(max_examples=60, deadline=None)
    @given(
        instance=tie_heavy_instances(),
        solver=st.sampled_from(["is", "vec"]),
        init=st.sampled_from(list(dynamics.INIT_METHODS)),
        order=st.sampled_from(list(dynamics.ORDER_METHODS)),
        exact_scale=st.sampled_from([None, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_kernel_matches_per_player_reference(
        self, instance, solver, init, order, exact_scale, seed
    ):
        options = {"order": order} if solver == "is" else {}
        result = partition(
            instance, solver=solver, init=init, seed=seed,
            exact_scale=exact_scale, **options,
        )
        rng = random.Random(seed)
        if solver == "is":
            sweep = dynamics.player_order(instance, order, rng)
            groups = ordered_groups(instance, None, sweep)
        else:
            groups = groups_from_coloring(instance)
        assignment = dynamics.initial_assignment(instance, init, rng)
        trace = reference_group_rounds(instance, groups, assignment)
        assert result.converged
        assert [
            (r.deviations, r.players_examined) for r in result.rounds[1:]
        ] == trace
        np.testing.assert_array_equal(result.assignment, assignment)

    @settings(max_examples=60, deadline=None)
    @given(
        instance=tie_heavy_instances(),
        init=st.sampled_from(list(dynamics.INIT_METHODS)),
        damping=st.sampled_from([0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_sync_matches_per_player_reference(
        self, instance, init, damping, seed
    ):
        result = partition(
            instance, solver="sync", init=init, seed=seed, damping=damping,
            max_rounds=40,
        )
        rng = random.Random(seed)
        assignment = dynamics.initial_assignment(instance, init, rng)
        trace = [
            reference_sync_round(instance, assignment, rng, damping)
            for _ in result.rounds[1:]
        ]
        assert [r.deviations for r in result.rounds[1:]] == trace
        np.testing.assert_array_equal(result.assignment, assignment)
