"""The versioned error envelope of every non-2xx serve response.

Before this module each error path in :mod:`repro.serve.server`
hand-rolled its own JSON body; under overload that meant load balancers
and retrying clients had to pattern-match free-text messages to decide
whether a request was safe to retry.  ``repro-error/v1`` freezes one
machine-readable shape for *all* 4xx/5xx responses::

    {
      "schema": "repro-error/v1",
      "error": {
        "status": 429,
        "code": "queue_full",
        "message": "admission queue is full (8 queued, bound 8)",
        "retryable": true,
        "retry_after_seconds": 1.0,     // optional: when to come back
        "field": "request.options.seed",// optional: validation path
        "job": "job-17",                // optional: poll this job id
        "trace_id": "4bf9..."           // optional: W3C trace id
      }
    }

``retryable`` is the retry hint the :class:`~repro.serve.client.RetryPolicy`
honors: ``true`` means the server did not start the work (429 admission
rejections, 503 shed/draining) so re-sending the same request is safe;
``false`` means it may have (500 mid-solve failures) or that retrying
verbatim cannot succeed (400 validation errors).

``repro validate response.json`` checks a saved body with
:func:`validate_error`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Version tag carried in every error body.
ERROR_SCHEMA_VERSION = "repro-error/v1"

#: Machine-readable error codes the server emits.  The set is closed on
#: the server side (every emit site picks one of these) but the
#: validator accepts any well-formed code so future additions do not
#: break deployed consumers.
ERROR_CODES = (
    "invalid_request",     # 400: schema/validation failure (carries field)
    "not_found",           # 404: unknown route or job id
    "method_not_allowed",  # 405
    "already_finished",    # 409: cancel of a finished job
    "payload_too_large",   # 413
    "timeout",             # 408: header/body read stalled past the limit
    "queue_full",          # 429: admission queue at its bound
    "shed",                # 503: queued request dropped by load shedding
    "draining",            # 503: server is shutting down gracefully
    "solve_failed",        # 500: the solver raised inside the worker
    "internal",            # 500: anything else
    "trace_unavailable",   # 404: tracing disabled / trace evicted
    "trace_pending",       # 409: job not finished, trace still mutating
    "flight_disabled",     # 409: no flight recorder / no --flight-dir
)

#: Codes whose requests never started executing — safe to retry.
RETRYABLE_CODES = frozenset({"timeout", "queue_full", "shed", "draining"})

_REQUIRED_KEYS = frozenset({"status", "code", "message", "retryable"})
# trace_id joined the optional set with the tracing layer: a purely
# additive, version-compatible extension (v1 consumers ignore it).
_OPTIONAL_KEYS = frozenset({"retry_after_seconds", "field", "job", "trace_id"})


def error_body(
    status: int,
    code: str,
    message: str,
    *,
    retryable: Optional[bool] = None,
    retry_after_seconds: Optional[float] = None,
    field: Optional[str] = None,
    job: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one ``repro-error/v1`` body (the only error-body factory)."""
    if retryable is None:
        retryable = code in RETRYABLE_CODES
    error: Dict[str, Any] = {
        "status": int(status),
        "code": code,
        "message": message,
        "retryable": bool(retryable),
    }
    if retry_after_seconds is not None:
        error["retry_after_seconds"] = float(retry_after_seconds)
    if field is not None:
        error["field"] = field
    if job is not None:
        error["job"] = job
    if trace_id is not None:
        error["trace_id"] = trace_id
    return {"schema": ERROR_SCHEMA_VERSION, "error": error}


def validate_error(payload: Any) -> List[str]:
    """All ``repro-error/v1`` violations in ``payload`` (empty = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload: expected an object, got {type(payload).__name__}"]
    if payload.get("schema") != ERROR_SCHEMA_VERSION:
        errors.append(
            f"schema: expected {ERROR_SCHEMA_VERSION!r}, "
            f"got {payload.get('schema')!r}"
        )
    unknown_top = set(payload) - {"schema", "error"}
    if unknown_top:
        errors.append(f"unknown top-level key {sorted(unknown_top)[0]!r}")
    error = payload.get("error")
    if not isinstance(error, dict):
        errors.append(
            f"error: expected an object, got {type(error).__name__}"
        )
        return errors
    for key in sorted(_REQUIRED_KEYS - set(error)):
        errors.append(f"error.{key}: required key missing")
    unknown = set(error) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    for key in sorted(unknown):
        errors.append(f"error.{key}: unknown key")
    status = error.get("status")
    if status is not None and (
        isinstance(status, bool)
        or not isinstance(status, int)
        or not 400 <= status <= 599
    ):
        errors.append(
            f"error.status: expected an int in [400, 599], got {status!r}"
        )
    code = error.get("code")
    if code is not None and (
        not isinstance(code, str)
        or not code
        or not all(c.islower() or c == "_" for c in code)
    ):
        errors.append(
            f"error.code: expected a non-empty snake_case string, got {code!r}"
        )
    message = error.get("message")
    if message is not None and (not isinstance(message, str) or not message):
        errors.append("error.message: expected a non-empty string")
    retryable = error.get("retryable")
    if retryable is not None and not isinstance(retryable, bool):
        errors.append(
            f"error.retryable: expected a bool, got "
            f"{type(retryable).__name__}"
        )
    retry_after = error.get("retry_after_seconds")
    if retry_after is not None and (
        isinstance(retry_after, bool)
        or not isinstance(retry_after, (int, float))
        or retry_after <= 0
    ):
        errors.append(
            "error.retry_after_seconds: expected a positive number, "
            f"got {retry_after!r}"
        )
    for key in ("field", "job", "trace_id"):
        value = error.get(key)
        if value is not None and (not isinstance(value, str) or not value):
            errors.append(f"error.{key}: expected a non-empty string")
    return errors
