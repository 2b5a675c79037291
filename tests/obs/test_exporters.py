"""Exporters: JSONL round-trip + schema, Prometheus text, summary tree."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    ManualClock,
    TraceRecorder,
    jsonl_lines,
    prometheus_text,
    summary_tree,
    trace_records,
    validate_records,
    write_jsonl,
)
from repro.obs.validate import validate_file


def sample_recorder() -> TraceRecorder:
    clock = ManualClock()
    rec = TraceRecorder(clock=clock, meta={"run": "test"})
    with rec.span("solve", solver="RMGP_gt", n=10, k=3):
        clock.advance(0.5)
        with rec.span("round", round=1) as round_span:
            clock.advance(0.25)
            rec.event("cycle_detected", round=1)
        rec.round_end(
            round_span, "RMGP_gt", 1,
            deviations=2, examined=5, cost_evaluations=5,
            frontier_fn=lambda: 3,
        )
    rec.gauge("solver.table_bytes", 240, solver="RMGP_gt")
    return rec


class TestJsonl:
    def test_meta_record_comes_first(self):
        records = list(trace_records(sample_recorder()))
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == "repro-trace/v2"
        assert records[0]["run"] == "test"

    def test_lines_are_valid_json(self):
        for line in jsonl_lines(sample_recorder()):
            json.loads(line)

    def test_records_validate_against_schema(self):
        records = [json.loads(l) for l in jsonl_lines(sample_recorder())]
        assert validate_records(records) == []

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        count = write_jsonl(sample_recorder(), path)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == count
        assert validate_file(path) == []

    def test_validator_catches_missing_meta(self):
        records = [json.loads(l) for l in jsonl_lines(sample_recorder())]
        errors = validate_records(records[1:])
        assert errors and "meta" in errors[0]

    def test_validator_catches_orphan_span(self):
        records = [json.loads(l) for l in jsonl_lines(sample_recorder())]
        for record in records:
            if record["type"] == "span" and record["parent"] is not None:
                record["parent"] = 999
        assert validate_records(records)

    def test_round_telemetry_lands_in_span_attrs(self):
        records = [json.loads(l) for l in jsonl_lines(sample_recorder())]
        (round_record,) = [
            r for r in records
            if r["type"] == "span" and r["name"] == "round"
        ]
        assert round_record["attrs"]["deviations"] == 2
        assert round_record["attrs"]["players_examined"] == 5
        assert round_record["attrs"]["frontier"] == 3


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        text = prometheus_text(sample_recorder().metrics)
        assert '# TYPE repro_solver_moves_total counter' in text
        assert 'repro_solver_moves_total{solver="RMGP_gt"} 2' in text
        assert 'repro_solver_table_bytes{solver="RMGP_gt"} 240' in text

    def test_histogram_buckets_are_cumulative(self):
        rec = TraceRecorder()
        histogram = rec.metrics.histogram("h", boundaries=(1, 2))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(10)
        text = prometheus_text(rec.metrics)
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="2"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text
        assert "repro_h_sum 12" in text
        assert "repro_h_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(TraceRecorder().metrics) == ""


class TestSummaryTree:
    def test_tree_shape_and_attrs(self):
        text = summary_tree(sample_recorder())
        lines = text.splitlines()
        assert lines[0].startswith("solve: 750.000 ms")
        assert "solver=RMGP_gt" in lines[0]
        assert lines[1].startswith("  round: 250.000 ms")
        assert "deviations=2" in lines[1]
        assert "    ! cycle_detected" in lines
        assert "metrics:" in text

    def test_max_depth_truncates(self):
        rec = TraceRecorder()
        with rec.span("a"):
            with rec.span("b"):
                with rec.span("c"):
                    pass
        text = summary_tree(rec, max_depth=1)
        assert "c:" not in text
        assert "b:" in text


class TestByteIdenticalAssignments:
    @pytest.mark.parametrize("solver", ["b", "gt", "all", "mg", "sync"])
    def test_recording_does_not_change_assignments(self, solver):
        import numpy as np

        from repro.api import partition
        from repro.datasets import gowalla_like
        from repro.core.instance import RMGPInstance
        from repro.obs import recording

        data = gowalla_like(num_users=120, num_events=6, seed=11)
        instance = RMGPInstance(
            data.graph, data.event_ids, data.cost_matrix(), alpha=0.5
        )
        plain = partition(instance, solver=solver, seed=3)
        with recording():
            traced = partition(instance, solver=solver, seed=3)
        assert np.array_equal(plain.assignment, traced.assignment)
        assert plain.total_deviations == traced.total_deviations
