"""Unit tests for capacity-constrained RMGP."""

import numpy as np
import pytest

from repro import partition
from repro.core import capacity_violations, is_capacitated_equilibrium
from repro.core.capacitated import (
    feasible_initial_assignment,
    validate_capacities,
)
from repro.errors import ConfigurationError

from tests.core.conftest import random_instance


class TestValidation:
    def test_accepts_feasible(self, instance):
        caps = validate_capacities(instance, [instance.n] * instance.k)
        assert caps.sum() >= instance.n

    def test_rejects_wrong_length(self, instance):
        with pytest.raises(ConfigurationError):
            validate_capacities(instance, [instance.n])

    def test_rejects_negative(self, instance):
        caps = [instance.n] * instance.k
        caps[0] = -1
        with pytest.raises(ConfigurationError):
            validate_capacities(instance, caps)

    def test_rejects_insufficient_total(self, instance):
        per_class = (instance.n - 1) // instance.k
        with pytest.raises(ConfigurationError):
            validate_capacities(instance, [per_class] * instance.k)


class TestFeasibleInit:
    @pytest.mark.parametrize("init", ["closest", "random"])
    def test_respects_capacities(self, instance, init):
        import random

        caps = validate_capacities(
            instance, [(instance.n + instance.k - 1) // instance.k] * instance.k
        )
        assignment = feasible_initial_assignment(
            instance, caps, random.Random(0), init
        )
        assert not capacity_violations(assignment, caps)
        assert (assignment >= 0).all()


class TestSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reaches_capacitated_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        caps = [(instance.n + instance.k - 1) // instance.k + 1] * instance.k
        result = partition(instance, solver="cap", capacities=caps, seed=seed)
        assert result.converged
        assert not capacity_violations(result.assignment, caps)
        assert is_capacitated_equilibrium(instance, result.assignment, caps)

    def test_unbounded_capacities_reduce_to_nash(self, instance):
        """With capacities >= n the constrained game is the plain game."""
        from repro.core import is_nash_equilibrium

        caps = [instance.n] * instance.k
        result = partition(instance, solver="cap", capacities=caps, seed=0)
        assert is_nash_equilibrium(instance, result.assignment)

    def test_tight_capacities_spread_players(self, instance):
        """Exact capacities force a perfectly spread assignment."""
        per_class = instance.n // instance.k
        caps = [per_class] * instance.k
        # Make the total exactly n (pad the last class if needed).
        caps[-1] += instance.n - per_class * instance.k
        result = partition(instance, solver="cap", capacities=caps, seed=0)
        loads = np.bincount(result.assignment, minlength=instance.k)
        np.testing.assert_array_equal(loads, caps)

    def test_loads_reported(self, instance):
        caps = [instance.n] * instance.k
        result = partition(instance, solver="cap", capacities=caps, seed=0)
        assert sum(result.extra["loads"]) == instance.n
        assert result.extra["capacities"] == caps


class TestMinimumParticipation:
    def test_no_cancellations_when_threshold_low(self, instance):

        result = partition(
            instance, solver="minpart", min_participants=0, seed=0
        )
        assert result.converged
        assert result.extra["canceled"] == []
        assert result.solver == "RMGP_minpart"

    def test_small_events_get_canceled(self, instance):

        threshold = max(2, instance.n // instance.k)
        result = partition(
            instance, solver="minpart", min_participants=threshold, seed=0
        )
        loads = np.bincount(result.assignment, minlength=instance.k)
        for klass in range(instance.k):
            # Survivors meet the minimum; canceled classes are empty.
            assert loads[klass] == 0 or loads[klass] >= threshold
        for klass in result.extra["canceled"]:
            assert loads[klass] == 0

    def test_everyone_in_one_event_extreme(self, instance):

        result = partition(
            instance, solver="minpart", min_participants=instance.n, seed=0
        )
        loads = np.bincount(result.assignment, minlength=instance.k)
        assert sorted(loads.tolist(), reverse=True)[0] == instance.n

    def test_rejects_negative_minimum(self, instance):

        with pytest.raises(ConfigurationError):
            partition(instance, solver="minpart", min_participants=-1)

    def test_capacity_conflict_detected(self, instance):

        # Tight per-class capacity + impossible minimum: cancellations
        # would leave too few seats, which must raise, not loop.
        per_class = -(-instance.n // instance.k)
        with pytest.raises(ConfigurationError):
            partition(
                instance, solver="minpart",
                min_participants=per_class + 1,
                capacities=[per_class] * instance.k,
                seed=0,
            )


class TestViolations:
    def test_reports_overload(self):
        assignment = np.array([0, 0, 0, 1])
        assert capacity_violations(assignment, [2, 2]) == {0: 1}

    def test_no_violations(self):
        assignment = np.array([0, 1, 0, 1])
        assert capacity_violations(assignment, [2, 2]) == {}

    def test_equilibrium_check_rejects_overload(self, instance):
        caps = [instance.n] * instance.k
        result = partition(instance, solver="cap", capacities=caps, seed=0)
        tight = [0] * instance.k
        tight[0] = instance.n
        # The solved assignment almost surely violates "everyone in class
        # 0"; the check must reject infeasible assignments outright.
        if capacity_violations(result.assignment, tight):
            assert not is_capacitated_equilibrium(
                instance, result.assignment, tight
            )
