"""The ``repro-error/v1`` envelope: validator + every server error path.

Two layers: unit tests of :mod:`repro.serve.errors` (the builder and
the validator, also through ``repro validate``), then end-to-end assertions that *each* 4xx/5xx
the server can produce is one valid envelope — the property the chaos
harness and retrying clients depend on.
"""

import json
import socket
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.serve import EmbeddedServer, ServeConfig
from repro.serve.client import ServeClient, ServerError
from repro.serve.errors import (
    ERROR_SCHEMA_VERSION,
    RETRYABLE_CODES,
    error_body,
    validate_error,
)


class TestEnvelope:
    def test_minimal_body_is_valid(self):
        body = error_body(404, "not_found", "no route")
        assert validate_error(body) == []
        assert body["schema"] == ERROR_SCHEMA_VERSION
        assert body["error"]["retryable"] is False

    def test_retryable_defaults_follow_code(self):
        for code in RETRYABLE_CODES:
            assert error_body(503, code, "x")["error"]["retryable"] is True
        assert error_body(400, "invalid_request", "x")["error"][
            "retryable"
        ] is False

    def test_optional_fields_round_trip(self):
        body = error_body(
            429,
            "queue_full",
            "queue at bound",
            retry_after_seconds=2.5,
            field="request.options.seed",
            job="job-1",
        )
        assert validate_error(body) == []
        assert body["error"]["retry_after_seconds"] == 2.5
        assert body["error"]["field"] == "request.options.seed"
        assert body["error"]["job"] == "job-1"

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (lambda b: b.pop("schema"), "schema:"),
            (lambda b: b.__setitem__("schema", "repro-error/v2"), "schema:"),
            (lambda b: b["error"].pop("status"), "error.status"),
            (lambda b: b["error"].__setitem__("status", 200), "error.status"),
            (lambda b: b["error"].__setitem__("status", True), "error.status"),
            (lambda b: b["error"].__setitem__("code", "Bad Code"),
             "error.code"),
            (lambda b: b["error"].__setitem__("message", ""), "error.message"),
            (lambda b: b["error"].__setitem__("retryable", "yes"),
             "error.retryable"),
            (lambda b: b["error"].__setitem__("retry_after_seconds", -1),
             "error.retry_after_seconds"),
            (lambda b: b["error"].__setitem__("surprise", 1),
             "error.surprise"),
            (lambda b: b.__setitem__("extra", {}), "extra"),
        ],
    )
    def test_validator_rejects_violations(self, mutate, expected):
        body = error_body(429, "queue_full", "full", retry_after_seconds=1.0)
        mutate(body)
        messages = validate_error(body)
        assert messages, "expected a violation"
        assert any(expected in message for message in messages)

    def test_non_object_payloads(self):
        assert validate_error([]) != []
        assert validate_error(None) != []
        assert validate_error({"schema": ERROR_SCHEMA_VERSION}) != []

    def test_cli_validator_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(error_body(500, "internal", "boom")))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        base = [sys.executable, "-m", "repro", "validate"]
        quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        assert subprocess.run(base + [str(good)], **quiet).returncode == 0
        assert subprocess.run(base + [str(bad)], **quiet).returncode == 1
        assert subprocess.run(base, **quiet).returncode == 2


@pytest.fixture()
def harness():
    with EmbeddedServer(
        ServeConfig(port=0, pool_size=1, max_instances=2, max_jobs=8)
    ) as client:
        yield client


def _raw_response(client: ServeClient, request_bytes: bytes) -> dict:
    """One raw request on a fresh socket; returns the parsed JSON body."""
    with socket.create_connection(
        (client.host, client.port), timeout=10
    ) as sock:
        sock.sendall(request_bytes)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    assert head, f"no response head in {data!r}"
    return json.loads(body.decode())


class TestServerErrorPaths:
    """Every non-2xx the server emits is a valid envelope."""

    def _envelope_of(self, exc_info) -> dict:
        payload = exc_info.value.payload
        assert payload is not None
        assert validate_error(payload) == []
        return payload

    def test_404_unknown_route(self, harness):
        with pytest.raises(ServerError) as info:
            harness._request("GET", "/nope")
        payload = self._envelope_of(info)
        assert payload["error"]["code"] == "not_found"
        assert info.value.status == 404

    def test_404_unknown_job(self, harness):
        with pytest.raises(ServerError) as info:
            harness.job("job-999")
        assert self._envelope_of(info)["error"]["code"] == "not_found"

    def test_405_wrong_method(self, harness):
        with pytest.raises(ServerError) as info:
            harness._request("GET", "/v1/solve")
        payload = self._envelope_of(info)
        assert info.value.status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_400_validation_carries_field_path(self, harness):
        # A bad option type maps to ConfigurationError client-side with
        # the server's field path preserved in the message.
        with pytest.raises(ConfigurationError) as info:
            harness.solve({"solver": "gt", "options": {"seed": "x"}})
        assert "request.options.seed" in str(info.value)

    def test_400_envelope_shape_on_the_wire(self, harness):
        body = json.dumps({"solver": "nope"}).encode()
        raw = (
            b"POST /v1/solve HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        payload = _raw_response(harness, raw)
        assert validate_error(payload) == []
        assert payload["error"]["status"] == 400
        assert payload["error"]["code"] == "invalid_request"
        assert payload["error"]["field"] == "request.solver"
        assert payload["error"]["retryable"] is False

    def test_413_oversized_body(self, harness):
        huge = 9 * 1024 * 1024  # past the 8 MiB default max_body_bytes
        raw = (
            b"POST /v1/solve HTTP/1.1\r\n"
            + f"Content-Length: {huge}\r\n\r\n".encode()
        )
        payload = _raw_response(harness, raw)
        assert validate_error(payload) == []
        assert payload["error"]["code"] == "payload_too_large"

    def test_409_cancel_finished(self, harness):
        finished = harness.solve(
            {"instance": {"dataset": "paper"}, "solver": "gt"}
        )
        payload = harness.cancel(finished["job"])
        assert validate_error(payload) == []
        assert payload["error"]["code"] == "already_finished"

    def test_500_solver_failure(self, harness):
        # exact_scale so small the exact-arithmetic path overflows is
        # hard to trigger; instead force a failure via a solver kwarg
        # that validates on the wire but explodes in the worker.
        with pytest.raises(ServerError) as info:
            harness.solve(
                {
                    "instance": {"dataset": "paper"},
                    "solver": "gt",
                    "options": {"max_rounds": -3},
                }
            )
        payload = self._envelope_of(info)
        assert info.value.status == 500
        assert payload["error"]["code"] == "solve_failed"
        assert payload["error"]["retryable"] is False
        assert payload["error"]["job"].startswith("job-")
