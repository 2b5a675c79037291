"""Validation for the frozen ``repro-result/v1`` payload schema.

:meth:`repro.core.result.PartitionResult.to_dict` is the one result
contract shared by library callers, ``repro solve --json``, checkpoint
metadata and the HTTP serving wire (``POST /v1/solve``).  This module
pins that shape: required keys with exact types, cross-field invariants
(``rounds`` matches the trace, ``total_deviations`` sums the trace, an
inlined ``assignment`` must hash to ``assignment_sha256``), and a
closed key set for the nested objects.  *Top-level* extension keys are
allowed — consumers annotate results (the CLI adds ``dataset``, the
server adds ``job``) without breaking the schema.

``repro validate result.json`` runs :func:`validate_result` on a file
holding one payload or JSONL with one payload per line.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Any, Dict, List, Optional

#: The version tag to_dict() stamps into every payload.
RESULT_SCHEMA_VERSION = "repro-result/v1"

#: Terminal states of a solve; PartitionResult.stop_reason is closed.
STOP_REASONS = ("converged", "max_rounds", "deadline", "cancelled")

_NUMBER = (int, float)

#: Required top-level keys -> allowed types (bool checked separately:
#: it subclasses int, so numeric fields must reject it explicitly).
_REQUIRED: Dict[str, tuple] = {
    "schema": (str,),
    "solver": (str,),
    "n": (int,),
    "converged": (bool,),
    "stop_reason": (str,),
    "rounds": (int,),
    "total_deviations": (int,),
    "wall_seconds": _NUMBER,
    "objective": (dict,),
    "assignment_sha256": (str,),
    "round_trace": (list,),
}

_OBJECTIVE_KEYS = ("total", "assignment_cost", "social_cost", "alpha")

_TRACE_REQUIRED: Dict[str, tuple] = {
    "round": (int,),
    "deviations": (int,),
    "seconds": _NUMBER,
    "players_examined": (int,),
}

_TRACE_OPTIONAL: Dict[str, tuple] = {"potential": _NUMBER}


def _type_error(path: str, value: Any, expected: tuple) -> str:
    names = "/".join(t.__name__ for t in expected)
    return f"{path}: expected {names}, got {type(value).__name__}"


def _check_number(
    errors: List[str], path: str, value: Any, expected: tuple
) -> bool:
    """Type check that treats bool as *not* a number."""
    if isinstance(value, bool) and bool not in expected:
        errors.append(_type_error(path, value, expected))
        return False
    if not isinstance(value, expected):
        errors.append(_type_error(path, value, expected))
        return False
    return True


def validate_result(payload: Any) -> List[str]:
    """All schema violations of one result payload (empty = conforms)."""
    if not isinstance(payload, dict):
        return [f"payload: expected an object, got {type(payload).__name__}"]
    errors: List[str] = []
    for key, expected in _REQUIRED.items():
        if key not in payload:
            errors.append(f"{key}: required key missing")
            continue
        _check_number(errors, key, payload[key], expected)
    if errors:
        return errors

    if payload["schema"] != RESULT_SCHEMA_VERSION:
        errors.append(
            f"schema: expected {RESULT_SCHEMA_VERSION!r}, "
            f"got {payload['schema']!r}"
        )
    if payload["stop_reason"] not in STOP_REASONS:
        errors.append(
            f"stop_reason: {payload['stop_reason']!r} not in {STOP_REASONS}"
        )
    if payload["converged"] != (payload["stop_reason"] == "converged"):
        errors.append(
            "converged: inconsistent with stop_reason "
            f"{payload['stop_reason']!r}"
        )
    for key in ("n", "rounds", "total_deviations"):
        if isinstance(payload[key], int) and payload[key] < 0:
            errors.append(f"{key}: must be >= 0, got {payload[key]}")
    if payload["wall_seconds"] < 0:
        errors.append(f"wall_seconds: must be >= 0, got {payload['wall_seconds']}")

    objective = payload["objective"]
    for key in _OBJECTIVE_KEYS:
        if key not in objective:
            errors.append(f"objective.{key}: required key missing")
        else:
            _check_number(errors, f"objective.{key}", objective[key], _NUMBER)
    for key in objective:
        if key not in _OBJECTIVE_KEYS:
            errors.append(f"objective.{key}: unknown key")

    sha = payload["assignment_sha256"]
    if len(sha) != 64 or any(c not in "0123456789abcdef" for c in sha):
        errors.append("assignment_sha256: not a lowercase sha256 hex digest")

    previous_round: Optional[int] = None
    deviation_sum = 0
    best_response_rounds = 0
    for i, entry in enumerate(payload["round_trace"]):
        path = f"round_trace[{i}]"
        if not isinstance(entry, dict):
            errors.append(_type_error(path, entry, (dict,)))
            continue
        entry_ok = True
        for key, expected in _TRACE_REQUIRED.items():
            if key not in entry:
                errors.append(f"{path}.{key}: required key missing")
                entry_ok = False
            elif not _check_number(errors, f"{path}.{key}", entry[key], expected):
                entry_ok = False
        for key in entry:
            if key not in _TRACE_REQUIRED and key not in _TRACE_OPTIONAL:
                errors.append(f"{path}.{key}: unknown key")
        if "potential" in entry:
            _check_number(
                errors, f"{path}.potential", entry["potential"], _NUMBER
            )
        if not entry_ok:
            continue
        if previous_round is not None and entry["round"] <= previous_round:
            errors.append(
                f"{path}.round: not strictly increasing "
                f"({previous_round} -> {entry['round']})"
            )
        previous_round = entry["round"]
        deviation_sum += entry["deviations"]
        if entry["round"] > 0:
            best_response_rounds += 1

    if not errors:
        if payload["rounds"] != best_response_rounds:
            errors.append(
                f"rounds: {payload['rounds']} does not match the trace "
                f"({best_response_rounds} best-response rounds)"
            )
        if payload["total_deviations"] != deviation_sum:
            errors.append(
                f"total_deviations: {payload['total_deviations']} does not "
                f"match the trace sum ({deviation_sum})"
            )

    if "extra" in payload and not isinstance(payload["extra"], dict):
        errors.append(_type_error("extra", payload["extra"], (dict,)))

    assignment = payload.get("assignment")
    if assignment is not None:
        if not isinstance(assignment, list) or any(
            isinstance(x, bool)
            or not isinstance(x, int)
            or not -(2**63) <= x < 2**63
            for x in assignment
        ):
            errors.append("assignment: expected a list of int64 integers")
        else:
            if len(assignment) != payload["n"]:
                errors.append(
                    f"assignment: length {len(assignment)} != n={payload['n']}"
                )
            digest = hashlib.sha256(
                b"".join(
                    int(x).to_bytes(8, sys.byteorder, signed=True)
                    for x in assignment
                )
            ).hexdigest()
            if digest != sha:
                errors.append(
                    "assignment: sha256 of the inlined vector does not "
                    "match assignment_sha256"
                )
    return errors
