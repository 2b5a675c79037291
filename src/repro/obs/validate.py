"""One reader and one checker for every artifact the project writes.

``repro validate FILE`` (see :mod:`repro.cli`) runs :func:`validate_file`
on any of the four artifact kinds and dispatches on what the file
holds:

* a first record with ``type == "meta"`` — a ``repro-trace`` v1/v2
  JSONL trace, flight-recorder dumps included
  (:func:`repro.obs.schema.validate_records`);
* an object with ``traceEvents`` — a Chrome trace-event export
  (:func:`repro.obs.chrome.validate_chrome`);
* ``schema == "repro-result/v1"`` — one result payload or JSONL of them
  (:func:`repro.core.result_schema.validate_result`);
* ``schema == "repro-error/v1"`` — a serve error envelope
  (:func:`repro.serve.errors.validate_error`).

Anything else is a violation.  Reading fails closed: an unreadable,
non-UTF-8, empty or malformed file comes back as violations, never as
an exception, so a validator run on outside input cannot crash.  The
per-schema checkers are imported lazily, so importing :mod:`repro.obs`
loads none of them through this module.
"""

from __future__ import annotations

import json
from typing import Any, List, Tuple

#: Dispatch tags, equal to ``RESULT_SCHEMA_VERSION`` and
#: ``ERROR_SCHEMA_VERSION``; spelled out so this module imports neither
#: checker until a file needs it.
RESULT_SCHEMA = "repro-result/v1"
ERROR_SCHEMA = "repro-error/v1"


def read_artifact(path: str) -> Tuple[List[Any], List[str]]:
    """Parsed documents of ``path`` and the violations met reading it.

    A file that parses as one JSON document yields that document;
    otherwise every non-blank line is parsed as JSONL, and each line
    that fails is reported with its line number and skipped.
    """
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [], [f"unreadable: {exc}"]
    if not text.strip():
        return [], ["empty file"]
    try:
        return [json.loads(text)], []
    except (ValueError, RecursionError):
        pass
    documents: List[Any] = []
    errors: List[str] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            documents.append(json.loads(line))
        except (ValueError, RecursionError) as exc:
            errors.append(f"line {line_number}: invalid JSON ({exc})")
    return documents, errors


def validate_file(path: str) -> List[str]:
    """Every violation of the artifact at ``path`` (empty = conforms)."""
    documents, errors = read_artifact(path)
    if not documents:
        return errors
    first = documents[0] if isinstance(documents[0], dict) else {}
    if first.get("type") == "meta":
        from repro.obs.schema import validate_records

        return errors + validate_records(documents)
    if "traceEvents" in first:
        from repro.obs.chrome import validate_chrome as check
    elif first.get("schema") == RESULT_SCHEMA:
        from repro.core.result_schema import validate_result as check
    elif first.get("schema") == ERROR_SCHEMA:
        from repro.serve.errors import validate_error as check
    else:
        return errors + [
            "not a recognized artifact: expected a repro-trace meta "
            f"record, a Chrome trace, a {RESULT_SCHEMA} payload or a "
            f"{ERROR_SCHEMA} envelope"
        ]
    for index, document in enumerate(documents):
        prefix = f"payload {index}: " if len(documents) > 1 else ""
        errors.extend(prefix + message for message in check(document))
    return errors
