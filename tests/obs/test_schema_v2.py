"""Schema v2 validation: new checks, clear messages, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.schema import validate_records
from repro.obs.validate import validate_file


def _meta(schema="repro-trace/v2"):
    return {"type": "meta", "schema": schema}


def _span(sid, parent=None, start=0.0, end=1.0, **extra):
    record = {
        "type": "span",
        "id": sid,
        "parent": parent,
        "name": f"span-{sid}",
        "depth": 0,
        "start": start,
        "end": end,
        "attrs": {},
    }
    record.update(extra)
    return record


class TestVersionAcceptance:
    def test_v1_traces_still_validate(self):
        assert validate_records([_meta("repro-trace/v1"), _span(0)]) == []

    def test_v2_traces_validate(self):
        assert validate_records([_meta(), _span(0, node="slave-0")]) == []

    def test_unknown_version_is_rejected(self):
        errors = validate_records([_meta("repro-trace/v99")])
        assert errors and "repro-trace/v99" in errors[0]


class TestStricterChecks:
    def test_malformed_parent_id_type(self):
        errors = validate_records([_meta(), _span(0), _span(1, parent="0")])
        assert any("'parent' has type str" in e for e in errors)

    def test_orphan_span_message_names_both_ids(self):
        errors = validate_records([_meta(), _span(5, parent=99)])
        assert any(
            "orphan" in e and "99" in e and "5" in e for e in errors
        )

    def test_duplicate_span_ids_fail(self):
        errors = validate_records([_meta(), _span(0), _span(0)])
        assert any("duplicate span id 0" in e for e in errors)

    def test_non_monotonic_span_fails_with_clear_message(self):
        errors = validate_records([_meta(), _span(0, start=2.0, end=1.0)])
        assert any("non-monotonic" in e for e in errors)

    def test_event_outside_its_span_fails(self):
        records = [
            _meta(),
            _span(0, start=0.0, end=1.0),
            {
                "type": "event",
                "span": 0,
                "name": "late",
                "time": 2.0,
                "attrs": {},
            },
        ]
        errors = validate_records(records)
        assert any("outside span 0" in e for e in errors)

    def test_event_within_epsilon_passes(self):
        records = [
            _meta(),
            _span(0, start=0.0, end=1.0),
            {
                "type": "event",
                "span": 0,
                "name": "edge",
                "time": 1.0 + 1e-9,
                "attrs": {},
            },
        ]
        assert validate_records(records) == []

    def test_malformed_node_type(self):
        errors = validate_records([_meta(), _span(0, node=3)])
        assert any("optional 'node'" in e for e in errors)


class TestIllTypedInput:
    """Outside input of the wrong JSON type is a violation, not a crash."""

    def test_list_type_is_unknown(self):
        errors = validate_records([_meta(), {"type": ["span"]}])
        assert any("unknown type ['span']" in e for e in errors)

    def test_list_event_span_is_reported(self):
        event = {"type": "event", "span": [0], "name": "e", "time": 0.5,
                 "attrs": {}}
        errors = validate_records([_meta(), _span(0), event])
        assert any("'span' has type list" in e for e in errors)

    def test_non_list_histogram_boundaries_are_reported(self):
        histogram = {"type": "histogram", "name": "h", "labels": {},
                     "boundaries": 3, "counts": [0], "sum": 0, "count": 0}
        errors = validate_records([_meta(), histogram])
        assert any("'boundaries' has type int" in e for e in errors)

    def test_bool_span_id_is_rejected(self):
        errors = validate_records([_meta(), _span(True)])
        assert any("'id' has type bool" in e for e in errors)

    def test_bool_parent_id_is_rejected(self):
        errors = validate_records([_meta(), _span(1), _span(2, parent=True)])
        assert any("'parent' has type bool" in e for e in errors)

    def test_bool_event_span_is_rejected(self):
        event = {"type": "event", "span": True, "name": "e", "time": 0.5,
                 "attrs": {}}
        errors = validate_records([_meta(), _span(1), event])
        assert any("'span' has type bool" in e for e in errors)

    def test_time_beyond_float_range_is_outside(self):
        event = {"type": "event", "span": 0, "name": "e", "time": 0.5,
                 "attrs": {}}
        errors = validate_records(
            [_meta(), _span(0, start=10**400, end=10**400), event]
        )
        assert any("outside span 0" in e for e in errors)


class TestCommandExitCodes:
    def _write(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        return str(path)

    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, [_meta(), _span(0)])
        assert main(["validate", path]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_invalid_file_exits_nonzero_and_lists_errors(
        self, tmp_path, capsys
    ):
        path = self._write(
            tmp_path, [_meta(), _span(0, start=5.0, end=1.0)]
        )
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "violation" in out
        assert "non-monotonic" in out

    def test_usage_error_exits_two(self):
        for argv in (["validate"], ["validate", "a", "b"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

    def test_invalid_json_line_is_located(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(_meta()) + "\n{broken\n")
        errors = validate_file(str(path))
        assert any("line 2" in e for e in errors)
