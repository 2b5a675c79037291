"""Property-based tests (hypothesis) for the game-theoretic core.

These pin down the paper's theory on arbitrary random instances:

* Theorem 1 (exact potential game): a unilateral deviation changes the
  potential by exactly the change in the deviating player's own cost.
* Best responses never increase the potential; strict deviations
  strictly decrease it — hence termination (Lemma 2).
* Every solver variant terminates at a pure Nash equilibrium with
  identical validity guarantees.
* The objective always decomposes into per-player costs (Section 3.1).
* Inequality (5): C/2 <= Phi <= C.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import partition
from repro.core import (
    RMGPInstance,
    best_response,
    is_nash_equilibrium,
    objective,
    player_cost,
    potential,
    total_player_cost,
)
from repro.graph import SocialGraph


@st.composite
def rmgp_instances(draw, max_players: int = 10, max_classes: int = 4):
    """Random small RMGP instances with weighted graphs."""
    n = draw(st.integers(2, max_players))
    k = draw(st.integers(1, max_classes))
    alpha = draw(st.floats(0.05, 0.95))
    possible_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(possible_edges),
            unique=True,
            max_size=len(possible_edges),
        )
    ) if possible_edges else []
    weights = draw(
        st.lists(
            st.floats(0.1, 5.0), min_size=len(chosen), max_size=len(chosen)
        )
    )
    graph = SocialGraph(range(n))
    for (u, v), w in zip(chosen, weights):
        graph.add_edge(u, v, w)
    cost_values = draw(
        st.lists(st.floats(0.0, 10.0), min_size=n * k, max_size=n * k)
    )
    cost = np.array(cost_values).reshape(n, k)
    return RMGPInstance(graph, list(range(k)), cost, alpha=alpha)


@st.composite
def instances_with_assignment(draw):
    instance = draw(rmgp_instances())
    assignment = np.array(
        [draw(st.integers(0, instance.k - 1)) for _ in range(instance.n)],
        dtype=np.int64,
    )
    return instance, assignment


@settings(max_examples=60, deadline=None)
@given(instances_with_assignment())
def test_exact_potential_property(data):
    """Theorem 1: Phi's change equals the deviating player's cost change."""
    instance, assignment = data
    phi_before = potential(instance, assignment)
    for player in range(instance.n):
        for klass in range(instance.k):
            moved = assignment.copy()
            moved[player] = klass
            delta_phi = potential(instance, moved) - phi_before
            delta_cost = player_cost(instance, moved, player) - player_cost(
                instance, assignment, player
            )
            assert delta_phi == pytest.approx(delta_cost, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(instances_with_assignment())
def test_objective_decomposes_into_player_costs(data):
    """Section 3.1: RMGP(G, P, alpha) == sum_v C_v(s_v, pi_v)."""
    instance, assignment = data
    assert total_player_cost(instance, assignment) == pytest.approx(
        objective(instance, assignment).total, abs=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(instances_with_assignment())
def test_potential_sandwich_inequality(data):
    """Inequality (5): C/2 <= Phi <= C (for non-negative costs)."""
    instance, assignment = data
    c = objective(instance, assignment).total
    phi = potential(instance, assignment)
    assert 0.5 * c - 1e-9 <= phi <= c + 1e-9


@settings(max_examples=60, deadline=None)
@given(instances_with_assignment())
def test_best_response_never_increases_potential(data):
    instance, assignment = data
    for player in range(instance.n):
        response = best_response(instance, assignment, player)
        moved = assignment.copy()
        moved[player] = response
        assert potential(instance, moved) <= potential(instance, assignment) + 1e-9


SOLVERS = ["b", "se", "is", "gt", "all"]


@settings(max_examples=25, deadline=None)
@given(rmgp_instances(), st.integers(0, len(SOLVERS) - 1), st.integers(0, 3))
def test_every_solver_reaches_nash_equilibrium(instance, which, seed):
    result = partition(instance, solver=SOLVERS[which], seed=seed)
    assert result.converged
    assert is_nash_equilibrium(instance, result.assignment)


@settings(max_examples=25, deadline=None)
@given(rmgp_instances(), st.integers(0, 3))
def test_potential_monotone_along_dynamics(instance, seed):
    """The tracked potential never increases round over round."""
    result = partition(instance, solver="b", seed=seed, track_potential=True)
    values = [r.potential for r in result.rounds]
    for before, after in zip(values, values[1:]):
        assert after <= before + 1e-9


@settings(max_examples=25, deadline=None)
@given(rmgp_instances())
def test_deterministic_variants_agree(instance):
    """With identical init and sweep order, b / se / gt walk one path."""
    kwargs = {"init": "closest", "order": "given"}
    a = partition(instance, solver="b", **kwargs)
    b = partition(instance, solver="se", **kwargs)
    c = partition(instance, solver="gt", **kwargs)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.assignment, c.assignment)
