"""Unit tests for the incremental (online) RMGP engine."""

import numpy as np
import pytest

from repro import partition
from repro.core import IncrementalRMGP, build_global_table, is_nash_equilibrium
from repro.errors import ConfigurationError

from tests.core.conftest import random_instance


@pytest.fixture
def engine(instance):
    return IncrementalRMGP(instance, seed=0)


class TestInitialSolve:
    def test_starts_at_equilibrium(self, engine):
        assert is_nash_equilibrium(engine.instance, engine.assignment)

    def test_matches_global_table_solver(self, instance):
        engine = IncrementalRMGP(instance, init="closest")
        direct = partition(
            instance, solver="gt", init="closest", order="given"
        )
        np.testing.assert_array_equal(engine.assignment, direct.assignment)


class TestCostUpdates:
    def test_update_then_resolve_is_equilibrium(self, engine):
        node = engine.instance.node_ids[0]
        new_row = np.zeros(engine.instance.k)
        new_row[1] = 0.0  # class 1 becomes free for this player
        new_row[0] = 10.0
        engine.update_player_costs(node, new_row)
        engine.resolve()
        assert is_nash_equilibrium(engine.instance, engine.assignment)
        # Table must equal a from-scratch rebuild.
        rebuilt = build_global_table(engine.instance, engine.assignment)
        np.testing.assert_allclose(engine._table, rebuilt, atol=1e-9)

    def test_dramatic_update_moves_player(self, engine):
        node = engine.instance.node_ids[0]
        player = engine.instance.index_of[node]
        current = int(engine.assignment[player])
        new_row = np.full(engine.instance.k, 1000.0)
        target = (current + 1) % engine.instance.k
        new_row[target] = 0.0
        engine.update_player_costs(node, new_row)
        engine.resolve()
        assert engine.assignment[player] == target

    def test_rejects_bad_rows(self, engine):
        node = engine.instance.node_ids[0]
        with pytest.raises(ConfigurationError):
            engine.update_player_costs(node, [1.0])  # wrong length
        with pytest.raises(ConfigurationError):
            engine.update_player_costs(
                node, [-1.0] * engine.instance.k
            )
        with pytest.raises(ConfigurationError):
            engine.update_player_costs("not-a-user", [0.0] * engine.instance.k)

    def test_noop_update_causes_no_deviations(self, engine):
        node = engine.instance.node_ids[3]
        player = engine.instance.index_of[node]
        engine.update_player_costs(node, engine._matrix[player].copy())
        result = engine.resolve()
        assert result.total_deviations == 0


class TestEdgeUpdates:
    def test_add_edge_consistency(self, engine):
        nodes = engine.instance.node_ids
        # Find a non-adjacent pair.
        graph = engine.instance.graph
        pair = None
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if not graph.has_edge(u, v):
                    pair = (u, v)
                    break
            if pair:
                break
        assert pair is not None
        engine.add_edge(*pair, weight=2.0)
        engine.resolve()
        assert is_nash_equilibrium(engine.instance, engine.assignment)
        rebuilt = build_global_table(engine.instance, engine.assignment)
        np.testing.assert_allclose(engine._table, rebuilt, atol=1e-9)

    def test_remove_edge_consistency(self, engine):
        u, v, _ = next(iter(engine.instance.graph.edges()))
        engine.remove_edge(u, v)
        engine.resolve()
        assert is_nash_equilibrium(engine.instance, engine.assignment)
        rebuilt = build_global_table(engine.instance, engine.assignment)
        np.testing.assert_allclose(engine._table, rebuilt, atol=1e-9)

    def test_strong_edge_pulls_friends_together(self):
        instance = random_instance(seed=4)
        engine = IncrementalRMGP(instance, seed=0)
        nodes = engine.instance.node_ids
        graph = engine.instance.graph
        pair = None
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if not graph.has_edge(u, v):
                    pair = (u, v)
                    break
            if pair:
                break
        # An overwhelming friendship forces co-location.
        engine.add_edge(*pair, weight=1000.0)
        engine.resolve()
        iu = engine.instance.index_of[pair[0]]
        iv = engine.instance.index_of[pair[1]]
        assert engine.assignment[iu] == engine.assignment[iv]


class TestRepeatedUpdates:
    def test_many_updates_stay_consistent(self, engine):
        rng = np.random.default_rng(0)
        for step in range(10):
            node = engine.instance.node_ids[
                int(rng.integers(engine.instance.n))
            ]
            engine.update_player_costs(
                node, rng.uniform(0, 1, engine.instance.k)
            )
            engine.resolve()
        assert is_nash_equilibrium(engine.instance, engine.assignment)
        rebuilt = build_global_table(engine.instance, engine.assignment)
        np.testing.assert_allclose(engine._table, rebuilt, atol=1e-9)
        assert engine.resolve_count == 11  # initial + 10

    def test_current_value_matches_objective(self, engine):
        from repro.core import objective

        value = engine.current_value()
        direct = objective(engine.instance, engine.assignment)
        assert value.total == pytest.approx(direct.total)
