"""End-to-end request tracing through the serve stack.

The stitched trace of one served job is ``serve.request`` →
``serve.queue_wait`` + ``job.solve`` → solver spans.  These tests drive
real HTTP through :class:`~repro.serve.client.EmbeddedServer` and
assert the W3C ``traceparent`` plumbing, the ``GET /v1/jobs/<id>/trace``
endpoint, and that ``repro analyze`` can tell queue-wait from compute.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs.analysis import analyze_records, format_report
from repro.obs.context import format_traceparent, parse_traceparent
from repro.obs.schema import validate_records
from repro.serve import EmbeddedServer, ServeConfig
from repro.serve.client import ServerError

TRACE_ID = "0af7651916cd43dd8448eb211c80319c"


@pytest.fixture()
def client():
    with EmbeddedServer(
        ServeConfig(port=0, pool_size=2, max_instances=2, max_jobs=16)
    ) as connected:
        yield connected


class TestTraceparentIngestion:
    def test_header_trace_id_lands_in_job_envelope(self, client):
        payload = client.solve(
            {"instance": {"dataset": "paper"}, "solver": "gt"},
            trace_id=TRACE_ID,
        )
        assert payload["trace_id"] == TRACE_ID
        assert payload["state"] == "done"

    def test_body_traceparent_beats_header(self, client):
        body_trace = "c" * 32
        payload = client.solve(
            {
                "instance": {"dataset": "paper"},
                "solver": "gt",
                "traceparent": format_traceparent(body_trace),
            },
            trace_id=TRACE_ID,
        )
        assert payload["trace_id"] == body_trace

    def test_generated_when_absent(self, client):
        payload = client.solve(
            {"instance": {"dataset": "paper"}, "solver": "gt"}
        )
        # A fresh, well-formed 16-byte hex id is minted server-side.
        assert parse_traceparent(
            format_traceparent(payload["trace_id"])
        ) == payload["trace_id"]
        other = client.solve(
            {"instance": {"dataset": "paper"}, "solver": "gt"}
        )
        assert other["trace_id"] != payload["trace_id"]

    def test_malformed_header_is_ignored_not_an_error(self, client):
        import http.client
        import json

        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            conn.request(
                "POST",
                "/v1/solve",
                body=json.dumps(
                    {"instance": {"dataset": "paper"}, "solver": "gt"}
                ).encode(),
                headers={
                    "Content-Type": "application/json",
                    "traceparent": "zz-not-a-trace",
                },
            )
            response = conn.getresponse()
            payload = json.loads(response.read().decode())
        finally:
            conn.close()
        # W3C restart semantics: a bad header starts a fresh trace.
        assert response.status == 200
        assert parse_traceparent("zz-not-a-trace") is None
        assert payload["trace_id"] != "zz-not-a-trace"

    def test_malformed_body_traceparent_is_400(self, client):
        with pytest.raises(ConfigurationError, match="traceparent"):
            client.solve(
                {
                    "instance": {"dataset": "paper"},
                    "solver": "gt",
                    "traceparent": "not-a-traceparent",
                }
            )

    def test_ticket_and_stream_carry_the_trace_id(self, client):
        ticket = client.solve(
            {"instance": {"dataset": "paper"}, "solver": "gt", "wait": False},
            trace_id=TRACE_ID,
        )
        assert ticket["trace_id"] == TRACE_ID
        client.wait_for(ticket["job"], timeout=60)

        records = list(
            client.solve_stream(
                {"instance": {"dataset": "paper"}, "solver": "gt"},
                trace_id=TRACE_ID,
            )
        )
        job_record = records[0]
        assert job_record["type"] == "job"
        assert job_record["trace_id"] == TRACE_ID
        # Every streamed progress record is stamped with the trace id.
        for record in records[1:]:
            assert record.get("trace_id") == TRACE_ID

    def test_error_envelope_carries_trace_id(self, client):
        with pytest.raises(ServerError) as info:
            client.solve(
                {
                    "instance": {"dataset": "paper"},
                    "solver": "cap",
                    "solver_kwargs": {"capacities": [1]},
                },
                trace_id=TRACE_ID,
            )
        assert info.value.status == 500
        assert info.value.payload["error"]["trace_id"] == TRACE_ID


class TestTraceEndpoint:
    def test_trace_is_schema_valid_and_stitched(self, client):
        payload = client.solve(
            {"instance": {"dataset": "paper"}, "solver": "gt"},
            trace_id=TRACE_ID,
        )
        records = client.job_trace(payload["job"])
        assert validate_records(records) == []
        assert records[0]["type"] == "meta"
        assert records[0]["trace_id"] == TRACE_ID
        spans = {r["id"]: r for r in records if r.get("type") == "span"}
        names = {r["name"] for r in spans.values()}
        assert {"serve.request", "serve.queue_wait", "job.solve"} <= names
        # queue_wait and job.solve are children of serve.request.
        roots = [r for r in spans.values() if r["parent"] is None]
        assert [r["name"] for r in roots] == ["serve.request"]
        root_id = roots[0]["id"]
        for name in ("serve.queue_wait", "job.solve"):
            span = next(r for r in spans.values() if r["name"] == name)
            assert span["parent"] == root_id
        # Solver spans hang beneath job.solve, not beside it.
        solve = next(r for r in spans.values() if r["name"] == "solve")
        assert (
            spans[solve["parent"]]["name"] == "job.solve"
        )

    def test_analyze_distinguishes_queue_wait_from_compute(self, client):
        payload = client.solve(
            {"instance": {"dataset": "paper"}, "solver": "gt"},
            trace_id=TRACE_ID,
        )
        report = analyze_records(client.job_trace(payload["job"]))
        assert len(report.requests) == 1
        request = report.requests[0]
        assert request.job == payload["job"]
        assert request.trace_id == TRACE_ID
        assert request.state == "done"
        assert request.queue_wait_seconds >= 0.0
        assert request.solve_seconds > 0.0
        assert request.bottleneck in ("queue-wait", "compute")
        text = format_report(report)
        assert "queue-wait" in text
        assert "compute" in text
        assert TRACE_ID in text

    def test_unknown_job_404(self, client):
        with pytest.raises(ServerError) as info:
            client.job_trace("job-999")
        assert info.value.status == 404

    def test_unfinished_job_trace_pending_409(self, client):
        ticket = client.solve(
            {
                "instance": {"dataset": "gowalla", "users": 400, "events": 8},
                "solver": "b",
                "wait": False,
            }
        )
        try:
            client.job_trace(ticket["job"])
        except ServerError as exc:
            assert exc.status == 409
            assert exc.code == "trace_pending"
        else:
            # The solve may already have finished on a fast box; then
            # the trace must simply be valid.
            assert validate_records(client.job_trace(ticket["job"])) == []
        client.cancel(ticket["job"])
        client.wait_for(ticket["job"], timeout=60)


class TestTracingDisabled:
    def test_trace_off_still_solves_and_reports_404(self):
        with EmbeddedServer(
            ServeConfig(port=0, pool_size=1, trace_requests=False)
        ) as client:
            payload = client.solve(
                {"instance": {"dataset": "paper"}, "solver": "gt"},
                trace_id=TRACE_ID,
            )
            # Correlation id still assigned and propagated...
            assert payload["trace_id"] == TRACE_ID
            assert payload["state"] == "done"
            # ...but there is no recorded trace to serve.
            with pytest.raises(ServerError) as info:
                client.job_trace(payload["job"])
            assert info.value.status == 404
            assert info.value.code == "trace_unavailable"
            # /metrics still aggregates per-request solver telemetry.
            assert "repro_serve_requests_total" in client.metrics()
