"""Unit tests for the shared dynamics helpers."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import RMGPInstance, initial_assignment, player_order
from repro.core.dynamics import RoundClock, check_round_budget
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph import SocialGraph

from tests.core.conftest import random_instance


def _instance_on(n, edges):
    graph = SocialGraph(range(n))
    for u, v in edges:
        graph.add_edge(u, v, 1.0)
    return RMGPInstance(graph, [0, 1], np.zeros((n, 2)))


@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    if n < 2:
        return n, []
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=3 * n))


class TestInitialAssignment:
    def test_random_within_range(self, instance):
        assignment = initial_assignment(instance, "random", random.Random(0))
        assert assignment.shape == (instance.n,)
        assert assignment.min() >= 0
        assert assignment.max() < instance.k

    def test_random_deterministic_with_seed(self, instance):
        a = initial_assignment(instance, "random", random.Random(3))
        b = initial_assignment(instance, "random", random.Random(3))
        np.testing.assert_array_equal(a, b)

    def test_closest_minimizes_each_row(self, instance):
        assignment = initial_assignment(instance, "closest")
        for player in range(instance.n):
            row = instance.cost.row(player)
            assert row[assignment[player]] == pytest.approx(row.min())

    def test_warm_start_overrides_method(self, instance):
        warm = np.zeros(instance.n, dtype=np.int64)
        assignment = initial_assignment(instance, "random", warm_start=warm)
        np.testing.assert_array_equal(assignment, warm)

    def test_warm_start_is_copied(self, instance):
        warm = np.zeros(instance.n, dtype=np.int64)
        assignment = initial_assignment(instance, "random", warm_start=warm)
        assignment[0] = 1
        assert warm[0] == 0

    def test_warm_start_validated(self, instance):
        with pytest.raises(ConfigurationError):
            initial_assignment(
                instance,
                "random",
                warm_start=np.full(instance.n, instance.k, dtype=np.int64),
            )

    def test_unknown_method(self, instance):
        with pytest.raises(ConfigurationError):
            initial_assignment(instance, "bogus")


class TestPlayerOrder:
    def test_given_is_identity(self, instance):
        assert player_order(instance, "given") == list(range(instance.n))

    def test_random_is_permutation(self, instance):
        order = player_order(instance, "random", random.Random(1))
        assert sorted(order) == list(range(instance.n))

    def test_degree_descending(self, instance):
        order = player_order(instance, "degree")
        degrees = instance.degrees()
        for a, b in zip(order, order[1:]):
            assert degrees[a] >= degrees[b]

    def test_degree_ties_by_index(self):
        instance = random_instance(edge_probability=0.0, seed=0)
        assert player_order(instance, "degree") == list(range(instance.n))

    @settings(max_examples=60, deadline=None)
    @given(_graphs())
    @example((0, []))
    @example((6, [(i, (i + 1) % 6) for i in range(6)]))  # all-equal degrees
    @example((7, [(0, 1), (0, 2), (3, 4)]))  # ties and isolated players
    def test_degree_matches_key_sort_spec(self, graph_spec):
        """Descending degree, ties by index."""
        instance = _instance_on(*graph_spec)
        deg = instance.degrees().tolist()
        spec = sorted(range(instance.n), key=lambda v: (-deg[v], v))
        order = player_order(instance, "degree")
        assert order == spec
        assert all(type(v) is int for v in order)

    def test_unknown_method(self, instance):
        with pytest.raises(ConfigurationError):
            player_order(instance, "bogus")


class TestClockAndBudget:
    def test_clock_laps_accumulate(self):
        clock = RoundClock()
        first = clock.lap()
        second = clock.lap()
        assert first >= 0.0
        assert second >= 0.0
        assert clock.total() >= first + second

    def test_budget_ok(self):
        check_round_budget(5, 10, "test")  # no raise

    def test_budget_exceeded(self):
        with pytest.raises(ConvergenceError):
            check_round_budget(11, 10, "test")
