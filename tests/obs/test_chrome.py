"""Chrome trace-event export: structure, tracks, and the validator."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import ManualClock, TraceRecorder
from repro.obs.chrome import chrome_trace, validate_chrome, write_chrome_trace
from repro.obs.context import RemoteSpan
from repro.obs.validate import validate_file


def sample_recorder() -> TraceRecorder:
    clock = ManualClock()
    rec = TraceRecorder(clock=clock)
    with rec.span("dg.solve") as solve:
        clock.advance(0.5)
        with rec.span("dg.round", round=1):
            clock.advance(0.25)
            rec.event("dg.crash", slave="slave-1")
    rec.adopt(
        [
            RemoteSpan(
                name="slave.compute",
                node="slave-0",
                start=0.1,
                end=0.3,
                parent_span_id=solve.span_id,
            )
        ]
    )
    return rec


class TestExport:
    def test_spans_become_complete_events(self):
        trace = chrome_trace(sample_recorder())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert names == {"dg.solve", "dg.round", "slave.compute"}
        solve = next(e for e in complete if e["name"] == "dg.solve")
        assert solve["ts"] == 0.0
        assert solve["dur"] == 750_000.0  # 0.75 s in microseconds

    def test_each_node_gets_a_named_track(self):
        trace = chrome_trace(sample_recorder())
        meta = {
            e["args"]["name"]: e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert set(meta) == {"master", "slave-0"}
        compute = next(
            e for e in trace["traceEvents"]
            if e.get("name") == "slave.compute"
        )
        assert compute["tid"] == meta["slave-0"]

    def test_events_become_instants_on_the_owner_track(self):
        trace = chrome_trace(sample_recorder())
        (instant,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "dg.crash"
        assert instant["s"] == "t"
        assert instant["args"]["slave"] == "slave-1"

    def test_timestamps_are_normalized_to_zero(self):
        trace = chrome_trace(sample_recorder())
        stamps = [
            e["ts"] for e in trace["traceEvents"] if e["ph"] != "M"
        ]
        assert min(stamps) == 0.0
        assert all(ts >= 0.0 for ts in stamps)

    def test_empty_recorder_exports_empty_event_list(self):
        trace = chrome_trace(TraceRecorder())
        assert trace["traceEvents"] == []
        assert validate_chrome(trace) == []


class TestValidator:
    def test_valid_export_passes(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(sample_recorder(), path)
        assert count == len(
            json.loads(open(path).read())["traceEvents"]
        )
        assert validate_file(path) == []
        assert main(["validate", path]) == 0

    def test_malformed_inputs_are_reported(self):
        assert validate_chrome([]) == ["top level must be a JSON object"]
        assert validate_chrome({}) == ["'traceEvents' must be a list"]
        errors = validate_chrome(
            {
                "traceEvents": [
                    {"ph": "X", "pid": 1, "tid": 0, "ts": -1, "dur": 2},
                    {"name": "ok", "ph": "X", "pid": "x", "tid": 0,
                     "ts": 0, "dur": 1},
                    {"name": "ok", "ph": "X", "pid": 1, "tid": 0,
                     "ts": 0},
                ]
            }
        )
        assert any("'name'" in e for e in errors)
        assert any("'ts'" in e for e in errors)
        assert any("'pid'" in e for e in errors)
        assert any("'dur'" in e for e in errors)

    def test_cli_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        assert main(["validate", str(bad)]) == 1
        with pytest.raises(SystemExit) as info:
            main(["validate"])
        assert info.value.code == 2
        missing = tmp_path / "missing.json"
        assert main(["validate", str(missing)]) == 1
