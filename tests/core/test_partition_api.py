"""Conformance of the unified ``repro.partition()`` API.

Every registry solver must (a) return the shared ``PartitionResult``
contract and (b) reject options it does not understand.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import SolveOptions, partition
from repro.core import registry
from repro.core.result import PartitionResult, RoundStats
from repro.errors import ConfigurationError
from tests.core.conftest import random_instance

#: canonical name -> extra kwargs the solver needs
SOLVER_KWARGS = {
    "b": {},
    "se": {},
    "is": {},
    "gt": {},
    "all": {},
    "vec": {},
    "mg": {},
    "sync": {},
    "cap": {"capacities": [12] * 4},
    "minpart": {"min_participants": 2},
}


@pytest.fixture(scope="module")
def instance():
    return random_instance(num_players=40, num_classes=4, seed=5)


class TestRegistry:
    def test_short_and_long_names_resolve_to_same_impl(self):
        assert registry.SOLVERS["b"] is registry.SOLVERS["baseline"]
        assert registry.SOLVERS["gt"] is registry.SOLVERS["global_table"]
        assert registry.SOLVERS["minpart"] is registry.SOLVERS["with_minimums"]

    def test_canonical_names(self):
        assert registry.canonical_solver_name("b") == "baseline"
        assert registry.canonical_solver_name("baseline") == "baseline"

    def test_unknown_solver_lists_registry(self, instance):
        with pytest.raises(ConfigurationError, match="baseline"):
            partition(instance, solver="nope")


@pytest.mark.parametrize("name", sorted(SOLVER_KWARGS))
class TestConformance:
    def test_result_contract(self, instance, name):
        extra = SOLVER_KWARGS[name]
        result = partition(instance, solver=name, seed=9, **extra)
        assert isinstance(result, PartitionResult)
        assert result.solver.startswith("RMGP_")
        assert result.assignment.dtype == np.int64
        assert result.assignment.shape == (instance.n,)
        assert len(result.labels) == instance.n
        assert result.rounds and all(
            isinstance(r, RoundStats) for r in result.rounds
        )
        assert result.rounds[0].round_index == 0
        assert result.wall_seconds >= 0
        # players_examined is real per-round work, never a stale default.
        assert all(
            r.players_examined >= 0 for r in result.rounds
        )
        assert any(r.players_examined > 0 for r in result.rounds)

    def test_assignment_is_a_fresh_copy(self, instance, name):
        extra = SOLVER_KWARGS[name]
        result = partition(instance, solver=name, seed=9, **extra)
        before = result.assignment.copy()
        result.assignment[:] = -1
        again = partition(instance, solver=name, seed=9, **extra)
        assert np.array_equal(again.assignment, before)

    def test_to_dict_is_json_ready(self, instance, name):
        import json

        extra = SOLVER_KWARGS[name]
        result = partition(instance, solver=name, seed=9, **extra)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["solver"] == result.solver
        assert payload["n"] == instance.n
        assert len(payload["assignment_sha256"]) == 64
        assert len(payload["round_trace"]) == len(result.rounds)


class TestSolveOptions:
    def test_options_equal_kwargs(self, instance):
        via_options = partition(
            instance, solver="gt",
            options=SolveOptions(seed=4, init="closest", order="given"),
        )
        via_kwargs = partition(
            instance, solver="gt", seed=4, init="closest", order="given"
        )
        assert np.array_equal(via_options.assignment, via_kwargs.assignment)

    def test_alpha_override(self, instance):
        result = partition(
            instance, solver="b", options=SolveOptions(alpha=0.9, seed=0)
        )
        assert result.value.alpha == pytest.approx(0.9)

    def test_conflicting_option_and_kwarg_raises(self, instance):
        with pytest.raises(ConfigurationError, match="seed"):
            partition(
                instance, solver="b", options=SolveOptions(seed=1), seed=2
            )

    def test_unsupported_option_raises(self, instance):
        # The vectorized solver has no `order` parameter.
        with pytest.raises(ConfigurationError, match="order"):
            partition(
                instance, solver="vec", options=SolveOptions(order="degree")
            )

    def test_unsupported_kwarg_raises(self, instance):
        with pytest.raises(ConfigurationError, match="capacities"):
            partition(instance, solver="gt", capacities=[1, 2, 3, 4])

    def test_defaults_are_not_forwarded(self, instance):
        # An untouched SolveOptions must work for every solver, even ones
        # that accept only a subset of the fields.
        result = partition(instance, solver="vec", options=SolveOptions())
        assert result.converged

    def test_recorder_option_routes_to_solver(self, instance):
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        partition(
            instance, solver="gt", options=SolveOptions(seed=0, recorder=recorder)
        )
        assert recorder.spans
        assert recorder.spans[0].name == "solve"
        assert recorder.spans[0].attrs["solver"] == "RMGP_gt"


class TestFacadeRouting:
    def test_game_solve_goes_through_registry(self):
        instance = random_instance(num_players=30, num_classes=3, seed=2)
        game = repro.RMGPGame(
            instance.graph,
            list(range(instance.k)),
            instance.cost.dense(),
            alpha=instance.alpha,
        )
        via_game = game.solve(method="gt", seed=1)
        via_partition = partition(instance, solver="gt", seed=1)
        assert np.array_equal(via_game.assignment, via_partition.assignment)

    def test_game_solve_rejects_unknown_method(self):
        instance = random_instance(num_players=10, num_classes=3, seed=2)
        game = repro.RMGPGame(
            instance.graph,
            list(range(instance.k)),
            instance.cost.dense(),
            alpha=instance.alpha,
        )
        with pytest.raises(ConfigurationError):
            game.solve(method="bogus")
