"""JSON persistence for solutions.

Real-time pipelines warm-start each query from the previous answer
(Section 3.1); that answer has to live somewhere between executions.
These helpers persist a :class:`~repro.core.result.PartitionResult` (or a
bare assignment) to a stable, versioned JSON layout and load it back —
including enough metadata to refuse files that do not match the instance
they are applied to.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

import numpy as np

from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.errors import ConfigurationError, DataError

FORMAT_VERSION = 1


def save_result(result: PartitionResult, path: str) -> None:
    """Write a solver result (assignment + diagnostics) as JSON."""
    payload = {
        "format_version": FORMAT_VERSION,
        "solver": result.solver,
        "converged": result.converged,
        "wall_seconds": result.wall_seconds,
        "value": {
            "assignment_cost": result.value.assignment_cost,
            "social_cost": result.value.social_cost,
            "alpha": result.value.alpha,
        },
        "labels": {repr(user): repr(label) for user, label in result.labels.items()},
        "assignment": result.assignment.tolist(),
        "rounds": [
            {
                "round_index": r.round_index,
                "deviations": r.deviations,
                "seconds": r.seconds,
            }
            for r in result.rounds
        ],
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def load_assignment(path: str, instance: Optional[RMGPInstance] = None) -> np.ndarray:
    """Load a saved assignment; validate against ``instance`` if given.

    Returns the index-space strategy vector, ready for ``warm_start=``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read result file {path!r}: {exc}") from exc
    if payload.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path!r} has format version {payload.get('format_version')}, "
            f"expected {FORMAT_VERSION}"
        )
    try:
        assignment = np.asarray(payload["assignment"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path!r} has a malformed assignment") from exc
    if instance is not None:
        try:
            instance.validate_assignment(assignment)
        except ConfigurationError as exc:
            raise DataError(
                f"{path!r} does not fit the instance: {exc}"
            ) from exc
    return assignment


def load_labels(path: str) -> Dict[str, str]:
    """Load the human-readable ``repr(user) -> repr(label)`` mapping."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    labels = payload.get("labels")
    if not isinstance(labels, dict):
        raise DataError(f"{path!r} has no labels section")
    return labels


# ----------------------------------------------------------------------
# Solve checkpoints (repro.runtime)
# ----------------------------------------------------------------------
#: File-format version wrapping a checkpoint payload
#: (:data:`repro.runtime.checkpoint.CHECKPOINT_VERSION` versions the
#: payload itself).
CHECKPOINT_FORMAT_VERSION = 1


def save_checkpoint(checkpoint, path: str) -> None:
    """Persist a :class:`~repro.runtime.checkpoint.SolveCheckpoint`.

    The write is atomic (temp file + ``os.replace``) so a crash mid-write
    never corrupts the previous checkpoint — the whole point of periodic
    checkpointing is surviving exactly that crash.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "checkpoint": checkpoint.to_payload(),
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp_path, path)


def load_checkpoint(path: str):
    """Load a checkpoint written by :func:`save_checkpoint`."""
    from repro.runtime.checkpoint import SolveCheckpoint

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        # ValueError covers malformed JSON and non-UTF-8 bytes alike.
        raise DataError(f"cannot read checkpoint file {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(
            f"{path!r} holds a JSON {type(payload).__name__}, expected an "
            "object"
        )
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"{path!r} has format version {payload.get('format_version')}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    body = payload.get("checkpoint")
    if not isinstance(body, dict):
        raise DataError(f"{path!r} has no checkpoint section")
    return SolveCheckpoint.from_payload(body)
