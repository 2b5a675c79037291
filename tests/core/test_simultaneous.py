"""Unit tests for the synchronous-dynamics ablation."""

import numpy as np
import pytest

from repro import partition
from repro.core import RMGPInstance, is_nash_equilibrium
from repro.errors import ConfigurationError
from repro.graph import SocialGraph

from tests.core.conftest import random_instance


def oscillator() -> RMGPInstance:
    """Two friends who each prefer the other's current class.

    Both players start at their individually cheapest class; the strong
    edge makes each one's best response "follow the friend", so the
    synchronous update swaps them forever.
    """
    graph = SocialGraph.from_edges([(0, 1, 10.0)])
    cost = np.array([[0.0, 0.1], [0.1, 0.0]])
    return RMGPInstance(graph, ["a", "b"], cost, alpha=0.5)


class TestOscillation:
    def test_undamped_oscillates(self):
        instance = oscillator()
        result = partition(
            instance, solver="sync", init="closest", damping=1.0, max_rounds=50
        )
        assert not result.converged
        assert result.extra["cycle_detected"]

    def test_damping_breaks_cycles(self):
        instance = oscillator()
        result = partition(
            instance, solver="sync", init="closest", damping=0.5, seed=0,
            max_rounds=500,
        )
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)


class TestGeneralBehaviour:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converged_results_are_nash(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="sync", seed=seed, damping=0.7,
                                    max_rounds=1000)
        if result.converged:
            assert is_nash_equilibrium(instance, result.assignment)

    def test_potential_tracked_each_round(self):
        instance = random_instance(seed=3)
        result = partition(instance, solver="sync", seed=3, damping=0.8)
        assert all(r.potential is not None for r in result.rounds)

    def test_reports_potential_increases(self):
        # On the oscillator the potential bounces: at least one round
        # must have increased it.
        instance = oscillator()
        result = partition(
            instance, solver="sync", init="closest", damping=1.0, max_rounds=20
        )
        assert result.extra["potential_increases"] >= 1

    def test_rejects_bad_damping(self):
        instance = random_instance(seed=0)
        with pytest.raises(ConfigurationError):
            partition(instance, solver="sync", damping=0.0)
        with pytest.raises(ConfigurationError):
            partition(instance, solver="sync", damping=1.5)

    def test_warm_start_at_equilibrium_stays(self):

        instance = random_instance(seed=5)
        equilibrium = partition(instance, solver="b", seed=5)
        result = partition(
            instance, solver="sync", warm_start=equilibrium.assignment, seed=5
        )
        assert result.converged
        assert result.total_deviations == 0
