"""The frozen ``repro-result/v1`` contract and its validator."""

import json

import pytest

from repro.api import partition
from repro.cli import main
from repro.core.result_schema import RESULT_SCHEMA_VERSION, validate_result
from repro.datasets import paper_example_instance
from repro.obs.validate import validate_file


@pytest.fixture(scope="module")
def payload():
    result = partition(paper_example_instance(), solver="gt", seed=0)
    return result.to_dict(include_assignment=True)


class TestConformingPayloads:
    def test_real_result_conforms(self, payload):
        assert payload["schema"] == RESULT_SCHEMA_VERSION
        assert validate_result(payload) == []

    def test_every_solver_payload_conforms(self):
        from repro.core.registry import SOLVERS, canonical_solver_name

        instance = paper_example_instance()
        n = instance.n
        extra = {
            "capacitated": {"capacities": [n] * instance.k},
            "with_minimums": {"min_participants": 0},
        }
        for solver in sorted(
            {canonical_solver_name(name) for name in SOLVERS}
        ):
            result = partition(
                instance, solver=solver, seed=0, **extra.get(solver, {})
            )
            errors = validate_result(result.to_dict(include_assignment=True))
            assert errors == [], f"{solver}: {errors}"

    def test_interrupted_result_conforms(self):
        result = partition(
            paper_example_instance(), solver="gt", deadline_seconds=1e-9
        )
        payload = result.to_dict()
        assert payload["stop_reason"] == "deadline"
        assert validate_result(payload) == []

    def test_extension_keys_are_allowed(self, payload):
        annotated = dict(payload)
        annotated["job"] = "job-3"
        annotated["dataset"] = {"name": "paper"}
        assert validate_result(annotated) == []


class TestViolations:
    def test_not_an_object(self):
        assert validate_result([1, 2]) == [
            "payload: expected an object, got list"
        ]

    def test_missing_required_key(self, payload):
        broken = {k: v for k, v in payload.items() if k != "objective"}
        assert any(
            "objective: required key missing" in e
            for e in validate_result(broken)
        )

    def test_wrong_schema_tag(self, payload):
        broken = dict(payload, schema="repro-result/v0")
        assert any("schema: expected" in e for e in validate_result(broken))

    def test_unknown_stop_reason(self, payload):
        broken = dict(payload, stop_reason="tired", converged=False)
        assert any("stop_reason" in e for e in validate_result(broken))

    def test_converged_must_match_stop_reason(self, payload):
        broken = dict(payload, converged=False)
        assert any(
            "converged: inconsistent" in e for e in validate_result(broken)
        )

    def test_bool_is_not_a_number(self, payload):
        broken = dict(payload, rounds=True)
        assert any("rounds: expected int" in e for e in validate_result(broken))

    def test_objective_key_set_is_closed(self, payload):
        broken = dict(payload, objective=dict(payload["objective"], bonus=1.0))
        assert any(
            "objective.bonus: unknown key" in e
            for e in validate_result(broken)
        )

    def test_rounds_must_match_trace(self, payload):
        broken = dict(payload, rounds=payload["rounds"] + 1)
        assert any(
            "does not match the trace" in e for e in validate_result(broken)
        )

    def test_deviation_sum_checked(self, payload):
        broken = dict(
            payload, total_deviations=payload["total_deviations"] + 1
        )
        assert any("total_deviations" in e for e in validate_result(broken))

    def test_trace_rounds_strictly_increasing(self, payload):
        trace = [dict(entry) for entry in payload["round_trace"]]
        trace.append(dict(trace[-1]))  # duplicate round index
        broken = dict(payload, round_trace=trace)
        assert any(
            "not strictly increasing" in e for e in validate_result(broken)
        )

    def test_trace_key_set_is_closed(self, payload):
        trace = [dict(entry) for entry in payload["round_trace"]]
        trace[0]["speed"] = 1
        broken = dict(payload, round_trace=trace)
        assert any("speed: unknown key" in e for e in validate_result(broken))

    def test_assignment_must_hash_to_sha(self, payload):
        tampered = list(payload["assignment"])
        tampered[0] = (tampered[0] + 1) % 3
        broken = dict(payload, assignment=tampered)
        assert any(
            "does not match assignment_sha256" in e
            for e in validate_result(broken)
        )

    def test_assignment_length_checked(self, payload):
        broken = dict(payload, assignment=payload["assignment"][:-1])
        assert any("length" in e for e in validate_result(broken))

    def test_assignment_beyond_int64_is_a_violation(self, payload):
        broken = dict(payload, assignment=[2**63] * payload["n"])
        assert any("int64" in e for e in validate_result(broken))

    def test_malformed_sha(self, payload):
        broken = dict(payload, assignment_sha256="XYZ")
        assert any(
            "assignment_sha256" in e for e in validate_result(broken)
        )


class TestFileAndCli:
    def test_json_file_ok(self, payload, tmp_path, capsys):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(payload))
        assert validate_file(str(path)) == []
        assert main(["validate", str(path)]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_jsonl_file_with_violation(self, payload, tmp_path, capsys):
        broken = dict(payload, rounds=payload["rounds"] + 1)
        path = tmp_path / "results.jsonl"
        path.write_text(
            json.dumps(payload) + "\n" + json.dumps(broken) + "\n"
        )
        errors = validate_file(str(path))
        assert errors and all(e.startswith("payload 1: ") for e in errors)
        assert main(["validate", str(path)]) == 1
        assert "payload 1" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        errors = validate_file(str(tmp_path / "nope.json"))
        assert errors
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["validate"])
        assert info.value.code == 2
        assert "usage" in capsys.readouterr().err
