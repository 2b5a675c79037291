"""Solve checkpoints: everything needed to resume an interrupted solve.

A :class:`SolveCheckpoint` captures, at a round boundary, the complete
dynamic state of a solver: the assignment, the dirty frontier, the round
index, the RNG state, the completed round trace and a ``state`` dict of
solver-specific structures (sweep order, color groups, the global
table, the max-gain heap, ...).

Byte-exactness is the design constraint.  Incrementally-maintained float
state (the RMGP_gt/RMGP_all tables, RMGP_mg's gains) is **not** bitwise
reproducible by rebuilding it from the checkpointed assignment — the
rebuild sums refunds in a different order, and a last-ulp difference is
enough to flip a later argmin and diverge the trajectory.  Checkpoints
therefore serialize those arrays losslessly: numpy buffers travel as
base64 of ``tobytes()`` inside the JSON payload, and JSON floats
round-trip exactly (``json`` emits ``repr``-shortest doubles).  The
pinned conformance tests assert interrupt-then-resume equals an
uninterrupted run byte-for-byte for every registry solver.

File I/O lives in :mod:`repro.core.serialize`
(:func:`~repro.core.serialize.save_checkpoint` /
:func:`~repro.core.serialize.load_checkpoint`); this module defines the
in-memory type and its JSON payload mapping.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.result import RoundStats
from repro.errors import ConfigurationError, DataError

#: Version of the checkpoint payload layout (independent of the result
#: file format in :mod:`repro.core.serialize`).
CHECKPOINT_VERSION = 1

_NDARRAY_KEY = "__ndarray__"


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Lossless JSON encoding of a numpy array (base64 of the raw buffer)."""
    array = np.ascontiguousarray(array)
    return {
        _NDARRAY_KEY: True,
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`; returns a fresh writable array."""
    try:
        raw = base64.b64decode(payload["data"])
        array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return array.reshape(payload["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed array payload: {exc}") from exc


def _encode_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, dict):
        return {key: _encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if value.get(_NDARRAY_KEY):
            return decode_array(value)
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def encode_rng_state(state: Optional[tuple]) -> Optional[list]:
    """``random.Random.getstate()`` tuple -> JSON-ready nested lists."""
    if state is None:
        return None
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(payload: Optional[list]) -> Optional[tuple]:
    """Inverse of :func:`encode_rng_state` (ready for ``setstate``)."""
    if payload is None:
        return None
    try:
        version, internal, gauss_next = payload
        return (version, tuple(internal), gauss_next)
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed RNG state: {exc}") from exc


def rounds_to_payload(rounds: List[RoundStats]) -> List[Dict[str, Any]]:
    """Round trace -> JSON-ready list (floats round-trip exactly)."""
    payload = []
    for entry in rounds:
        item: Dict[str, Any] = {
            "round_index": int(entry.round_index),
            "deviations": int(entry.deviations),
            "seconds": float(entry.seconds),
            "players_examined": int(entry.players_examined),
        }
        if entry.potential is not None:
            item["potential"] = float(entry.potential)
        payload.append(item)
    return payload


def rounds_from_payload(payload: List[Dict[str, Any]]) -> List[RoundStats]:
    """Inverse of :func:`rounds_to_payload`."""
    try:
        return [
            RoundStats(
                round_index=int(item["round_index"]),
                deviations=int(item["deviations"]),
                seconds=float(item["seconds"]),
                potential=item.get("potential"),
                players_examined=int(item.get("players_examined", 0)),
            )
            for item in payload
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed round trace: {exc}") from exc


@dataclass
class SolveCheckpoint:
    """Resumable snapshot of one solver at a round boundary.

    Attributes
    ----------
    solver:
        The variant name (``"RMGP_gt"``, ...) — resume refuses a
        checkpoint taken by a different variant (its ``state`` layout
        would not match).
    round_index:
        Rounds completed so far (``0`` = only initialization ran).  For
        ``minpart`` the unit is the outer cancel-and-resolve stage.
    assignment:
        The strategy vector at the boundary — always a valid assignment
        (anytime property).
    frontier:
        Boolean dirty flags of the active-set scheduler; empty for
        solvers without a frontier (``mg``, ``sync``, ``cap``).
    rng_state:
        ``random.Random.getstate()`` of the solver's RNG, or ``None``.
    rounds:
        JSON-ready trace of the completed rounds
        (:func:`rounds_to_payload` layout).
    state:
        Solver-specific resume state; numpy arrays in here are
        serialized losslessly.
    fingerprint:
        Identity of the instance the solve ran on; resume refuses a
        checkpoint whose fingerprint does not match.
    """

    solver: str
    round_index: int
    assignment: np.ndarray
    frontier: np.ndarray
    rng_state: Optional[tuple] = None
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    state: Dict[str, Any] = field(default_factory=dict)
    fingerprint: Dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def fingerprint_of(instance) -> Dict[str, Any]:
        """Cheap instance identity: sizes and α (not the full data)."""
        return {
            "n": int(instance.n),
            "k": int(instance.k),
            "alpha": float(instance.alpha),
            "csr_slots": int(instance.indices.size),
        }

    def validate_for(self, instance, solver: Optional[str] = None) -> None:
        """Refuse resuming onto the wrong solver or instance."""
        if solver is not None and self.solver != solver:
            raise DataError(
                f"checkpoint was taken by {self.solver!r}, cannot resume "
                f"{solver!r} from it"
            )
        expected = self.fingerprint_of(instance)
        if self.fingerprint != expected:
            raise DataError(
                f"checkpoint fingerprint {self.fingerprint} does not match "
                f"the instance ({expected})"
            )
        try:
            instance.validate_assignment(self.assignment)
        except ConfigurationError as exc:
            raise DataError(f"checkpoint assignment: {exc}") from exc

    def restored_rounds(self) -> List[RoundStats]:
        """The completed round trace as :class:`RoundStats` objects."""
        return rounds_from_payload(self.rounds)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict (see module docstring for the guarantees)."""
        return {
            "checkpoint_version": CHECKPOINT_VERSION,
            "solver": self.solver,
            "round_index": int(self.round_index),
            "assignment": encode_array(
                np.asarray(self.assignment, dtype=np.int64)
            ),
            "frontier": encode_array(np.asarray(self.frontier, dtype=bool)),
            "rng_state": encode_rng_state(self.rng_state),
            "rounds": list(self.rounds),
            "state": _encode_value(self.state),
            "fingerprint": dict(self.fingerprint),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SolveCheckpoint":
        """Inverse of :meth:`to_payload`."""
        version = payload.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise DataError(
                f"checkpoint has version {version}, expected "
                f"{CHECKPOINT_VERSION}"
            )
        try:
            return cls(
                solver=payload["solver"],
                round_index=int(payload["round_index"]),
                assignment=decode_array(payload["assignment"]),
                frontier=decode_array(payload["frontier"]),
                rng_state=decode_rng_state(payload.get("rng_state")),
                rounds=list(payload.get("rounds", [])),
                state=_decode_value(payload.get("state", {})),
                fingerprint=dict(payload.get("fingerprint", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed checkpoint payload: {exc}") from exc
