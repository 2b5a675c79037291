"""Unit tests for RMGP_b (Figure 3)."""

import numpy as np
import pytest

from repro import partition
from repro.core import is_nash_equilibrium, objective, potential
from repro.errors import ConfigurationError, ConvergenceError

from tests.core.conftest import random_instance


class TestConvergence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reaches_nash_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="b", seed=seed)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    @pytest.mark.parametrize("init,order", [
        ("random", "random"),
        ("closest", "random"),
        ("closest", "degree"),
        ("random", "given"),
    ])
    def test_all_variants_converge(self, init, order, instance):
        result = partition(
            instance, solver="b", init=init, order=order, seed=0
        )
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    def test_last_round_has_no_deviations(self, instance):
        result = partition(instance, solver="b", seed=0)
        assert result.rounds[-1].deviations == 0

    def test_value_matches_objective(self, instance):
        result = partition(instance, solver="b", seed=0)
        recomputed = objective(instance, result.assignment)
        assert result.value.total == pytest.approx(recomputed.total)

    def test_round_budget_error(self, instance):
        with pytest.raises(ConvergenceError):
            partition(
                instance, solver="b", init="random", seed=4, max_rounds=0
            )


class TestDeterminism:
    def test_same_seed_same_result(self, instance):
        a = partition(instance, solver="b", seed=42)
        b = partition(instance, solver="b", seed=42)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.num_rounds == b.num_rounds

    def test_closest_init_deterministic_without_seed(self, instance):
        a = partition(instance, solver="b", init="closest", order="given")
        b = partition(instance, solver="b", init="closest", order="given")
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestHeuristics:
    def test_warm_start_from_equilibrium_is_noop(self, instance):
        first = partition(instance, solver="b", seed=0)
        second = partition(
            instance, solver="b", warm_start=first.assignment, seed=0
        )
        np.testing.assert_array_equal(first.assignment, second.assignment)
        assert second.num_rounds == 1  # one confirming round, no deviations
        assert second.total_deviations == 0

    def test_closest_init_starts_at_min_assignment_cost(self, instance):
        result = partition(
            instance, solver="b", init="closest", order="given",
            max_rounds=10_000,
        )
        # Every player's final class costs at most VR_v; weaker sanity:
        # the solution is an equilibrium.
        assert is_nash_equilibrium(instance, result.assignment)

    def test_variant_names(self, instance):
        assert partition(instance, solver="b", seed=0).solver == "RMGP_b"
        assert (
            partition(instance, solver="b", init="closest", seed=0).solver == "RMGP_b+i"
        )
        assert (
            partition(instance, solver="b", init="closest", order="degree", seed=0).solver
            == "RMGP_b+i+o"
        )

    def test_unknown_init_rejected(self, instance):
        with pytest.raises(ConfigurationError):
            partition(instance, solver="b", init="bogus")

    def test_unknown_order_rejected(self, instance):
        with pytest.raises(ConfigurationError):
            partition(instance, solver="b", order="bogus")


class TestPotentialTracking:
    def test_potential_non_increasing_across_rounds(self, instance):
        result = partition(instance, solver="b", seed=1, track_potential=True)
        potentials = [r.potential for r in result.rounds]
        assert all(p is not None for p in potentials)
        for before, after in zip(potentials, potentials[1:]):
            assert after <= before + 1e-9

    def test_final_potential_matches(self, instance):
        result = partition(instance, solver="b", seed=1, track_potential=True)
        assert result.rounds[-1].potential == pytest.approx(
            potential(instance, result.assignment)
        )


class TestResultShape:
    def test_labels_cover_all_users(self, instance):
        result = partition(instance, solver="b", seed=0)
        assert set(result.labels) == set(instance.node_ids)

    def test_round_zero_present(self, instance):
        result = partition(instance, solver="b", seed=0)
        assert result.rounds[0].round_index == 0
        assert result.rounds[0].deviations == 0

    def test_summary_mentions_solver(self, instance):
        result = partition(instance, solver="b", seed=0)
        assert "RMGP_b" in result.summary()
        assert "converged" in result.summary()
