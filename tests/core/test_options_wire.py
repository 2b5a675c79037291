"""`SolveOptions` wire round-trips: lossless, strict, solver-complete."""

import json

import numpy as np
import pytest

from repro.api import SolveOptions, partition
from repro.core.registry import (
    SOLVERS,
    accepted_parameters,
    canonical_solver_name,
)
from repro.datasets import paper_example_instance
from repro.errors import ConfigurationError
from repro.obs import Recorder
from repro.runtime import CancelToken

#: A representative wire value for every SolveOptions field a solver
#: can accept.  Values only need to type-check — semantic validation
#: happens inside partition()/the solver, not in from_dict.
_SAMPLE_VALUES = {
    "alpha": 0.25,
    "init": "random",
    "order": "sequential",
    "seed": 11,
    "max_rounds": 40,
    "warm_start": [0, 1, 2],
    "deadline_seconds": 9.5,
    "round_budget_seconds": 1.5,
    "checkpoint_every": 5,
    "checkpoint_path": "out/ckpt.npz",
    "resume_from": "out/ckpt.npz",
    "exact_scale": 2,
}


class TestRoundTrip:
    def test_empty_options_round_trip(self):
        options = SolveOptions()
        assert options.to_dict() == {}
        assert SolveOptions.from_dict({}) == options

    def test_full_wire_round_trip_is_lossless(self):
        payload = dict(_SAMPLE_VALUES)
        options = SolveOptions.from_dict(payload)
        wire = options.to_dict()
        # JSON-ready: survives an actual encode/decode cycle.
        rebuilt = SolveOptions.from_dict(json.loads(json.dumps(wire)))
        assert rebuilt.to_dict() == wire
        for name, value in _SAMPLE_VALUES.items():
            if name == "warm_start":
                assert wire[name] == value
            else:
                assert wire[name] == pytest.approx(value)

    def test_warm_start_becomes_int64_array(self):
        options = SolveOptions.from_dict({"warm_start": [2, 0, 1]})
        assert isinstance(options.warm_start, np.ndarray)
        assert options.warm_start.dtype == np.int64
        assert options.to_dict()["warm_start"] == [2, 0, 1]

    def test_int_alpha_normalizes_to_float(self):
        options = SolveOptions.from_dict({"alpha": 1})
        assert options.to_dict()["alpha"] == 1.0
        assert isinstance(options.to_dict()["alpha"], float)

    @pytest.mark.parametrize(
        "solver", sorted({canonical_solver_name(name) for name in SOLVERS})
    )
    def test_every_solver_knob_set_round_trips(self, solver):
        """For each registry solver: the options fields it accepts all
        survive ``to_dict``/``from_dict`` unchanged."""
        accepted = accepted_parameters(SOLVERS[solver])
        payload = {
            name: value
            for name, value in _SAMPLE_VALUES.items()
            if name in accepted or name in SolveOptions._BUDGET_FIELDS
        }
        assert payload, f"solver {solver} accepts no wire options?"
        options = SolveOptions.from_dict(payload)
        assert SolveOptions.from_dict(options.to_dict()).to_dict() == (
            options.to_dict()
        )


class TestRejections:
    def test_unknown_field_path(self):
        with pytest.raises(
            ConfigurationError, match=r"options\.seedz: unknown field"
        ):
            SolveOptions.from_dict({"seedz": 1})

    def test_custom_prefix_in_errors(self):
        with pytest.raises(
            ConfigurationError, match=r"request\.options\.seedz"
        ):
            SolveOptions.from_dict({"seedz": 1}, field_prefix="request.options")

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("alpha", "half"),
            ("seed", 1.5),
            ("seed", True),
            ("max_rounds", "ten"),
            ("warm_start", "012"),
            ("deadline_seconds", "soon"),
            ("exact_scale", False),
        ],
    )
    def test_ill_typed_values(self, field, bad):
        with pytest.raises(
            ConfigurationError, match=rf"options\.{field}"
        ):
            SolveOptions.from_dict({field: bad})

    def test_non_dict_payload(self):
        with pytest.raises(ConfigurationError, match="expected an object"):
            SolveOptions.from_dict("seed=1")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("recorder", Recorder()),
            ("cancel_token", CancelToken()),
        ],
    )
    def test_runtime_objects_cannot_serialize(self, field, value):
        options = SolveOptions(**{field: value})
        with pytest.raises(
            ConfigurationError, match=rf"options\.{field}.*live in-process"
        ):
            options.to_dict()

    def test_invalid_backend_fails_at_construction(self):
        # There is no backend option: any backend is an unknown field.
        with pytest.raises(ConfigurationError, match="unknown field"):
            SolveOptions.from_dict({"backend": "gpu"})


class TestPartitionAcceptsDictOptions:
    def test_dict_and_object_options_agree(self):
        instance = paper_example_instance()
        payload = {"seed": 4, "max_rounds": 30}
        via_dict = partition(instance, solver="gt", options=payload)
        via_object = partition(
            instance, solver="gt", options=SolveOptions.from_dict(payload)
        )
        assert (
            via_dict.to_dict()["assignment_sha256"]
            == via_object.to_dict()["assignment_sha256"]
        )

    def test_bad_dict_options_fail_before_solving(self):
        instance = paper_example_instance()
        with pytest.raises(ConfigurationError, match=r"options\.sed"):
            partition(instance, solver="gt", options={"sed": 1})
