"""Unit tests for RMGP_all (all optimizations composed).

RMGP_all runs on RMGP_gt's :class:`~repro.core.global_table.BulkRounds`;
:class:`ReferenceLoop` keeps the per-friend round it replaced (one row
argmin per examined player, a friend flagged only when the move leaves
it unhappy) as the reference its trajectories must reproduce, the way
``table_round`` serves for ``BulkRounds``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import partition
from repro.core import (
    RMGPInstance,
    build_elimination_plan,
    dynamics,
    is_nash_equilibrium,
    player_strategy_costs,
)
from repro.core.combined import _CombinedLoop, build_pruned_table
from repro.core.normalization import normalize
from repro.datasets import gowalla_like
from repro.graph import SocialGraph, greedy_coloring

from tests.core.conftest import random_instance


class ReferenceLoop(_CombinedLoop):
    """RMGP_all with its former per-friend round."""

    def step(self):
        instance, table, assignment = self.instance, self.table, self.assignment
        dirty = self.active.flags
        fixed_mask = self.fixed_mask
        half = (1.0 - instance.alpha) * 0.5
        tol = dynamics.DEVIATION_TOLERANCE
        deviations = 0
        examined = 0
        indices, weights = instance.indices, instance.weights
        indptr = instance.indptr.tolist()
        for group in self.groups:
            for player in group:
                if not dirty[player]:
                    continue
                examined += 1
                dirty[player] = False
                current = int(assignment[player])
                best = int(table[player].argmin())
                if table[player, best] >= table[player, current] - tol:
                    continue
                assignment[player] = best
                deviations += 1
                row = slice(indptr[player], indptr[player + 1])
                for friend, weight in zip(indices[row], weights[row]):
                    delta = half * weight
                    table[friend, best] -= delta
                    table[friend, current] += delta
                    if fixed_mask[friend]:
                        continue
                    friend_class = int(assignment[friend])
                    dirty[friend] = not (
                        table[friend, friend_class]
                        <= table[friend].min() + tol
                    )
        return deviations, examined, examined


def all_loop(cls, instance, seed, init="closest", warm_start=None,
             coloring=None):
    """An RMGP_all loop set up as ``partition(solver="all")`` sets it."""
    loop = cls("RMGP_all", instance, seed=seed)
    loop.init_method, loop.order, loop.warm_start = init, "degree", warm_start
    loop.coloring, loop.plan = coloring, None
    return loop


def reference_all(instance, **kwargs):
    return all_loop(ReferenceLoop, instance, **kwargs).run()


@st.composite
def all_configs(draw):
    n = draw(st.integers(1, 14))
    k = draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [
        (u, v, float(draw(st.integers(1, 4))))
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True))
    ] if pairs else []
    graph = SocialGraph.from_edges(edges, nodes=range(n))
    if draw(st.booleans()):
        # Integer costs: exact ties between classes are common.
        cost = np.array(
            draw(st.lists(st.integers(0, 3), min_size=n * k, max_size=n * k)),
            dtype=np.float64,
        ).reshape(n, k)
    else:
        cost = np.random.default_rng(draw(st.integers(0, 999))).uniform(
            0.0, 1.0, (n, k)
        )
    alpha = draw(st.sampled_from([0.25, 0.3, 0.5, 0.8]))
    instance = RMGPInstance(graph, list(range(k)), cost, alpha=alpha)
    kwargs = {"seed": draw(st.integers(0, 9))}
    kwargs["init"] = draw(st.sampled_from(["closest", "random"]))
    if draw(st.booleans()):
        kwargs["warm_start"] = np.array(
            draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    if draw(st.booleans()):
        kwargs["coloring"] = greedy_coloring(
            graph, draw(st.permutations(range(n)))
        )
    return instance, kwargs


def _trajectory(result):
    return (
        result.assignment.tobytes(),
        result.num_rounds,
        [r.deviations for r in result.rounds],
        result.converged,
    )


@settings(max_examples=300, deadline=None)
@given(all_configs())
def test_all_matches_the_per_friend_reference(config):
    instance, kwargs = config
    assert _trajectory(partition(instance, solver="all", **kwargs)) == (
        _trajectory(reference_all(instance, **kwargs))
    )


@settings(max_examples=100, deadline=None)
@given(all_configs(), st.integers(0, 2**32 - 1))
def test_pruned_table_is_the_per_player_build(config, seed):
    """``build_pruned_table``'s one scatter writes the floats of the
    per-player strategy costs (Figure 3's kernel) on every valid class."""
    instance, _ = config
    plan = build_elimination_plan(instance)
    assignment = np.random.default_rng(seed).integers(
        0, instance.k, instance.n
    )
    table = build_pruned_table(instance, assignment, plan)
    for player in range(instance.n):
        valid = plan.valid_classes[player]
        costs = player_strategy_costs(instance, assignment, player)
        assert table[player, valid].tobytes() == costs[valid].tobytes()
        assert np.isposinf(np.delete(table[player], valid)).all()


@pytest.mark.parametrize(
    "instance",
    [
        random_instance(num_players=40, alpha=0.8, seed=3),
        random_instance(edge_probability=0.0, seed=2),  # every player fixed
        random_instance(num_classes=1, seed=1),  # k = 1: every player fixed
    ],
    ids=["pruned", "isolated", "one-class"],
)
def test_all_matches_the_reference_on_fixed_players(instance):
    for seed in range(3):
        assert _trajectory(partition(instance, solver="all", seed=seed)) == (
            _trajectory(reference_all(instance, seed=seed))
        )


def test_fixed_players_leave_the_frontier():
    """A move flags every friend; fixed friends are cleared after the
    round, since no sweep ever examines them."""
    instance = random_instance(num_players=40, alpha=0.9, seed=0)
    loop = all_loop(_CombinedLoop, instance, seed=0, init="random")
    loop.start()
    before = loop.assignment.copy()
    assert loop.step()[0] > 0
    movers = np.flatnonzero(loop.assignment != before)
    friends_of_movers = np.zeros(instance.n, dtype=bool)
    friends_of_movers[instance.indices[np.isin(instance.edge_owner, movers)]] = True
    assert (friends_of_movers & loop.fixed_mask).any()
    assert not loop.active.flags[loop.fixed_mask].any()


def _gowalla(seed):
    game, _, _ = gowalla_like(
        num_users=600, num_events=16, seed=seed
    ).lagp_task().build_game(alpha=0.5)
    return normalize(game.instance)[0]


#: sha256 of the assignment bytes on a normalized 600 x 16 gowalla-like
#: instance (graph seed = solver seed), recorded before RMGP_all moved
#: onto BulkRounds.
ASSIGNMENT_SHA256 = {
    (1, "all"): "b6180259bad7583a3391c93ddc9f201b994f3547d2d20d6ff8665eb69d521308",
    (1, "se"): "6c6969e6cffbb4a120a72f046c5703c0a2c368f1dc73560ca480c2047bbabf42",
    (1, "mg"): "f3def69532c776aeccb2b830bdcbeeb89642f5db7de21e9ea51428f83cd43a7f",
    (2, "all"): "24301cb7d28861770f47dc42fda046c82d21911464c082566d9ea63d9e3b884f",
    (2, "se"): "b7654dbea374583ee11dd10a3e982e4905b55f07a78984f828aa88706afe51f3",
    (2, "mg"): "e0f07181a04ae6a4f06ad32f52630b3bb3a77882d2f291e6bb55d506292024b4",
    (3, "all"): "141d946928c9d8426597c5cddea4e929e58078df08fd2ecbd526cabb6c1cbff8",
    (3, "se"): "5615d362cfc371234c1efcbac30e4fbb647979272ae1721dd8e6336a7b86087b",
    (3, "mg"): "038de869ecacd845d3da45c7f4a60d53906e2b65ba71b31b19be69beea5d128d",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gowalla_assignment_pins(seed):
    instance = _gowalla(seed)
    for solver in ("all", "se", "mg"):
        result = partition(instance, solver=solver, seed=seed)
        digest = hashlib.sha256(result.assignment.tobytes()).hexdigest()
        assert digest == ASSIGNMENT_SHA256[seed, solver], solver


class TestPrunedTable:
    def test_valid_entries_match_strategy_costs(self, instance):
        plan = build_elimination_plan(instance)
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, instance.k, instance.n)
        table = build_pruned_table(instance, assignment, plan)
        for player in range(instance.n):
            costs = player_strategy_costs(instance, assignment, player)
            valid = plan.valid_classes[player]
            assert table[player, valid].tobytes() == costs[valid].tobytes()

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
