"""Wire-schema validation: every bad request fails with a field path."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import CancelToken
from repro.serve.wire import InstanceSpec, SolveRequest


class TestInstanceSpec:
    def test_defaults(self):
        spec = InstanceSpec.from_dict(None)
        assert spec == InstanceSpec("gowalla", 200, 8, 0)

    def test_paper_key_ignores_size_fields(self):
        spec = InstanceSpec.from_dict({"dataset": "paper"})
        assert spec.key() == ("paper",)
        assert spec.to_dict() == {"dataset": "paper"}

    def test_key_includes_graph_parameters(self):
        a = InstanceSpec.from_dict({"users": 100, "events": 4, "seed": 1})
        b = InstanceSpec.from_dict({"users": 100, "events": 4, "seed": 2})
        assert a.key() != b.key()

    def test_unknown_field_path(self):
        with pytest.raises(ConfigurationError, match=r"request\.instance\.n"):
            InstanceSpec.from_dict({"n": 10})

    def test_bad_type_path(self):
        with pytest.raises(
            ConfigurationError, match=r"request\.instance\.users: expected int"
        ):
            InstanceSpec.from_dict({"users": "many"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigurationError, match="got bool"):
            InstanceSpec.from_dict({"seed": True})

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            InstanceSpec.from_dict({"dataset": "twitter"})

    def test_size_floors(self):
        with pytest.raises(ConfigurationError, match=r"users: must be >= 2"):
            InstanceSpec.from_dict({"users": 1})
        with pytest.raises(ConfigurationError, match=r"events: must be >= 1"):
            InstanceSpec.from_dict({"events": 0})


class TestSolveRequest:
    def test_minimal_body_defaults(self):
        request = SolveRequest.from_dict({})
        assert request.solver == "gt"
        assert request.wait is True
        assert request.stream is False

    def test_unknown_top_level_field(self):
        with pytest.raises(
            ConfigurationError, match=r"request\.solverr: unknown field"
        ):
            SolveRequest.from_dict({"solverr": "gt"})

    def test_unknown_solver(self):
        with pytest.raises(
            ConfigurationError, match=r"request\.solver: unknown solver"
        ):
            SolveRequest.from_dict({"solver": "magic"})

    def test_options_validated_eagerly_with_path(self):
        with pytest.raises(
            ConfigurationError,
            match=r"request\.options\.seed: expected int",
        ):
            SolveRequest.from_dict({"options": {"seed": "zero"}})

    def test_options_unknown_key_has_path(self):
        with pytest.raises(
            ConfigurationError, match=r"request\.options\.sed: unknown field"
        ):
            SolveRequest.from_dict({"options": {"sed": 0}})

    def test_solver_kwargs_checked_against_signature(self):
        with pytest.raises(
            ConfigurationError,
            match=r"request\.solver_kwargs\.granularity",
        ):
            SolveRequest.from_dict(
                {"solver": "gt", "solver_kwargs": {"granularity": 3}}
            )
        # Solver-internal hooks are not wire parameters.
        with pytest.raises(
            ConfigurationError,
            match=r"request\.solver_kwargs\._checkpoint_solver",
        ):
            SolveRequest.from_dict(
                {
                    "solver": "cap",
                    "solver_kwargs": {
                        "capacities": [5, 5, 5],
                        "_checkpoint_solver": "RMGP_b",
                    },
                }
            )

    def test_solver_kwargs_live_objects_rejected(self):
        with pytest.raises(ConfigurationError, match="not a wire parameter"):
            SolveRequest.from_dict(
                {"solver": "gt", "solver_kwargs": {"recorder": None}}
            )
        with pytest.raises(ConfigurationError, match="not a wire parameter"):
            SolveRequest.from_dict(
                {"solver": "b", "solver_kwargs": {"deadline_seconds": 1.0}}
            )

    def test_solver_kwargs_accepts_registry_parameter(self):
        request = SolveRequest.from_dict(
            {
                "solver": "cap",
                "solver_kwargs": {"capacities": [5, 5, 5]},
            }
        )
        assert request.solver_kwargs == {"capacities": [5, 5, 5]}

    def test_stream_implies_waiting(self):
        with pytest.raises(ConfigurationError, match="streaming implies"):
            SolveRequest.from_dict({"stream": True, "wait": False})

    def test_non_object_body(self):
        with pytest.raises(ConfigurationError, match="expected an object"):
            SolveRequest.from_dict([1, 2, 3])


class TestBuildOptions:
    def test_injects_token_and_recorder(self):
        request = SolveRequest.from_dict({"options": {"seed": 3}})
        token = CancelToken()
        sentinel = object()
        options = request.build_options(None, token, sentinel)
        assert options.cancel_token is token
        assert options.recorder is sentinel
        assert options.seed == 3

    def test_default_deadline_applies_when_unset(self):
        request = SolveRequest.from_dict({})
        options = request.build_options(2.5, CancelToken())
        assert options.deadline_seconds == 2.5

    def test_request_deadline_wins_over_default(self):
        request = SolveRequest.from_dict(
            {"options": {"deadline_seconds": 0.25}}
        )
        options = request.build_options(2.5, CancelToken())
        assert options.deadline_seconds == 0.25
