"""Serve-produced traces round-trip through the repro-trace/v2 validator.

The trace schema was born for solver/DG traces; the serving layer adds
new span names (``serve.request``, ``serve.queue_wait``, ``job.solve``),
per-request meta keys (job/trace_id/solver), and explicit-time
RemoteSpans may be grafted under a *served* job.  These tests pin that all of it
remains valid ``repro-trace/v2`` — via the in-process recorder shapes
the serve stack builds, and via ``repro validate`` on a written file
(exactly what the CI ``serve-trace`` job runs on flight dumps).
"""

from __future__ import annotations

from repro.cli import main
from repro.obs.context import SpanCollector
from repro.obs.exporters import jsonl_lines, write_jsonl
from repro.obs.recorder import TraceRecorder
from repro.obs.schema import validate_records
from repro.obs.validate import validate_file

TRACE_ID = "0af7651916cd43dd8448eb211c80319c"


def _served_request_recorder(adopt_workers=False):
    """The span shape :class:`repro.serve.jobs.JobTable` produces."""
    recorder = TraceRecorder()
    recorder.meta.update(
        {"job": "job-0", "trace_id": TRACE_ID, "solver": "gt"}
    )
    request = recorder.open_span(
        "serve.request",
        job="job-0",
        solver="gt",
        priority="interactive",
        trace_id=TRACE_ID,
    )
    queue = recorder.open_span("serve.queue_wait", job="job-0")
    recorder.close_span(queue)
    with recorder.span("job.solve", job="job-0", solver="gt") as job_span:
        with recorder.span("solve"):
            with recorder.span("round", index=0):
                recorder.event("deviation", player=3)
        if adopt_workers:
            # The RemoteSpan adoption path (as the DG coordinator uses
            # it): explicit-time spans grafted under a local parent.
            collector = SpanCollector()
            for chunk in (0, 1):
                start = recorder.clock()
                collector.record(
                    "worker.compute",
                    node="worker-0",
                    start=start,
                    end=recorder.clock(),
                    parent_span_id=job_span.span_id,
                    chunk=chunk,
                )
            recorder.adopt(collector.drain())
    request.attrs["state"] = "done"
    recorder.close_span(request)
    return recorder


class TestServeSpansValidate:
    def test_serve_span_names_round_trip(self, tmp_path):
        recorder = _served_request_recorder()
        records = [
            __import__("json").loads(line)
            for line in jsonl_lines(recorder)
        ]
        assert validate_records(records) == []
        meta = records[0]
        assert meta["type"] == "meta"
        assert meta["trace_id"] == TRACE_ID
        names = [r["name"] for r in records if r.get("type") == "span"]
        assert names[0] == "serve.request"
        assert "serve.queue_wait" in names
        assert "job.solve" in names

    def test_adopted_worker_spans_under_served_job(self):
        recorder = _served_request_recorder(adopt_workers=True)
        records = [
            __import__("json").loads(line)
            for line in jsonl_lines(recorder)
        ]
        assert validate_records(records) == []
        spans = {r["id"]: r for r in records if r.get("type") == "span"}
        workers = [
            r for r in spans.values() if r["name"] == "worker.compute"
        ]
        assert len(workers) == 2
        for worker in workers:
            assert worker["node"] == "worker-0"
            chain = []
            cursor = worker
            while cursor is not None:
                chain.append(cursor["name"])
                cursor = spans.get(cursor.get("parent"))
            # Grafted under the served request, not floating as roots.
            assert chain[-1] == "serve.request"
            assert "job.solve" in chain

    def test_written_file_passes_module_validator(self, tmp_path, capsys):
        path = str(tmp_path / "served.trace.jsonl")
        write_jsonl(_served_request_recorder(adopt_workers=True), path)
        assert validate_file(path) == []
        # The CI serve-trace job runs exactly this command on dumps.
        assert main(["validate", path]) == 0
        assert "conforms" in capsys.readouterr().out


class TestLiveServeTraceRoundTrip:
    def test_http_fetched_trace_validates_via_module(self, tmp_path, capsys):
        from repro.serve import EmbeddedServer, ServeConfig

        with EmbeddedServer(ServeConfig(port=0, pool_size=1)) as client:
            payload = client.solve(
                {"instance": {"dataset": "paper"}, "solver": "gt"},
                trace_id=TRACE_ID,
            )
            records = client.job_trace(payload["job"])
        assert validate_records(records) == []
        path = tmp_path / "wire.trace.jsonl"
        import json

        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
