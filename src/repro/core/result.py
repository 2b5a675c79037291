"""Solver results: round traces, objective breakdowns, equilibrium data."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional

import numpy as np

from repro.core.instance import RMGPInstance
from repro.core.objective import ObjectiveValue, objective
from repro.graph.social_graph import NodeId


@dataclass(frozen=True)
class RoundStats:
    """Per-round measurements (the raw material of Figures 12(c) and 14).

    ``round_index`` 0 is the initialization step — the paper's "Round 0",
    which covers sorting/initial assignment plus, depending on the
    variant, valid-region or global-table construction.
    """

    round_index: int
    deviations: int
    seconds: float
    potential: Optional[float] = None
    players_examined: int = 0

    def __str__(self) -> str:
        parts = [
            f"round {self.round_index}: {self.deviations} deviations",
            f"{self.seconds * 1e3:.2f} ms",
        ]
        if self.potential is not None:
            parts.append(f"phi={self.potential:.6g}")
        return ", ".join(parts)


@dataclass
class PartitionResult:
    """Outcome of one RMGP solve — the shared contract of every solver.

    Every solve entry point in this package (``partition()`` with any
    registry name, ``RMGPGame.solve`` and the distributed game) returns
    this type with **identical field semantics**:

    Attributes
    ----------
    solver:
        Name of the algorithm variant (``"RMGP_b"``, ``"RMGP_gt"``, ...).
    assignment:
        Index-space strategy vector (player index -> class index),
        always a fresh ``int64`` copy the caller may mutate.
    labels:
        The same assignment as ``user id -> class label``: a read-only
        mapping, in player order, built on first read (a reply that
        only serializes the result never builds it).
    value:
        Equation 1 breakdown at termination, evaluated on the instance
        the solver actually ran on (i.e. after any normalization).
    rounds:
        Round trace, including round 0 (initialization).  Round entries
        carry ``players_examined`` — the number of best responses
        actually computed that round (frontier size for frontier
        solvers, heap pops for max-gain, ``n`` only where a full sweep
        is semantically required).  For ``solver="minpart"`` the
        trace covers the final re-solve; ``extra["rounds_total"]`` sums
        every re-solve.
    converged:
        True when the solver reached a round without deviations (a Nash
        equilibrium, or the variant's weaker solution concept); False
        when it stopped early — see ``stop_reason`` for why.
    wall_seconds:
        Wall-clock seconds for the **entire call**, round 0 and any
        internal re-solves included.
    extra:
        Solver-specific diagnostics (players eliminated, colors used,
        bytes transferred, ...).  Keys here are the only place variants
        may differ.
    stop_reason:
        Why the solve stopped: ``"converged"``, ``"max_rounds"`` (the
        synchronous ablation's non-raising budget exhaustion),
        ``"deadline"`` or ``"cancelled"``.  The last two come from the
        real-time layer (:mod:`repro.runtime`); the assignment they
        accompany is still valid and — for the potential-game dynamics —
        no worse than where the solve was interrupted (anytime
        property).
    """

    solver: str
    assignment: np.ndarray
    labels: Mapping[NodeId, Hashable]
    value: ObjectiveValue
    rounds: List[RoundStats]
    converged: bool
    wall_seconds: float
    extra: Dict[str, Any] = field(default_factory=dict)
    stop_reason: str = "converged"

    @property
    def num_rounds(self) -> int:
        """Number of best-response rounds (round 0 excluded)."""
        return sum(1 for r in self.rounds if r.round_index > 0)

    @property
    def total_deviations(self) -> int:
        """Total strategy changes across all rounds."""
        return sum(r.deviations for r in self.rounds)

    def round_seconds(self) -> List[float]:
        """Wall seconds per round, round 0 first (Figure 12(c) series)."""
        return [r.seconds for r in self.rounds]

    def summary(self) -> str:
        """One-line human-readable description."""
        status = (
            "converged"
            if self.converged
            else f"NOT converged ({self.stop_reason})"
        )
        return (
            f"{self.solver}: {status} in {self.num_rounds} rounds, "
            f"{self.value}, {self.wall_seconds * 1e3:.1f} ms"
        )

    def to_dict(self, include_assignment: bool = False) -> Dict[str, Any]:
        """The frozen ``repro-result/v1`` payload.

        One contract for every consumer — library callers, CLI
        ``--json``, checkpoint metadata and the HTTP wire
        (``POST /v1/solve``) all read this exact shape, validated by
        :mod:`repro.core.result_schema` (on a file:
        ``repro validate result.json``).  Consumers
        may *add* top-level keys (the CLI adds ``dataset``); the keys
        emitted here are versioned and only change with the schema tag.

        The full assignment is included only on request (it is O(n));
        ``assignment_sha256`` is always present so runs can be compared
        byte-for-byte without shipping the vector.
        """
        import hashlib

        payload: Dict[str, Any] = {
            "schema": "repro-result/v1",
            "solver": self.solver,
            "n": int(self.assignment.size),
            "converged": bool(self.converged),
            "stop_reason": self.stop_reason,
            "rounds": self.num_rounds,
            "total_deviations": int(self.total_deviations),
            "wall_seconds": float(self.wall_seconds),
            "objective": {
                "total": float(self.value.total),
                "assignment_cost": float(self.value.assignment_cost),
                "social_cost": float(self.value.social_cost),
                "alpha": float(self.value.alpha),
            },
            "assignment_sha256": hashlib.sha256(
                np.ascontiguousarray(self.assignment, dtype=np.int64).tobytes()
            ).hexdigest(),
            "round_trace": [
                {
                    "round": r.round_index,
                    "deviations": r.deviations,
                    "seconds": r.seconds,
                    "players_examined": r.players_examined,
                    **(
                        {"potential": r.potential}
                        if r.potential is not None
                        else {}
                    ),
                }
                for r in self.rounds
            ],
        }
        if self.extra:
            payload["extra"] = _jsonable(self.extra)
        if include_assignment:
            payload["assignment"] = [int(x) for x in self.assignment.tolist()]
        return payload


def _jsonable(value: Any) -> Any:
    """JSON-safe copy of a solver's ``extra`` diagnostics.

    Scalars pass through, numpy scalars unbox, arrays/sequences become
    lists, mappings recurse, and anything else degrades to ``str`` —
    ``extra`` is the one result field whose keys vary by solver, so the
    wire schema only promises it is a JSON object.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()  # numpy scalar
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    return str(value)


class _Labels(Mapping):
    """``user id -> class label`` of one result, built on first read.

    Holds its own copy of the assignment and a snapshot of the player
    ids, so neither a caller writing ``result.assignment`` nor adding or
    removing users on the instance afterwards (as
    :class:`~repro.core.incremental.IncrementalRMGP` does in place)
    changes these labels from what they were at :func:`make_result`.
    The server keeps finished results and never reads their labels, so
    building the dict eagerly would only cost memory per retained job.
    Threads reading it at once may each build the dict; they are equal.
    """

    def __init__(self, instance: RMGPInstance, assignment: np.ndarray) -> None:
        self._node_ids = tuple(instance.node_ids)
        self._classes = instance.classes
        self._assignment = np.array(assignment, dtype=np.int64)
        self._built: Optional[Dict[NodeId, Hashable]] = None

    def _labels(self) -> Dict[NodeId, Hashable]:
        if self._built is None:
            classes = self._classes
            labels = [classes[j] for j in self._assignment.tolist()]
            self._built = dict(zip(self._node_ids, labels))
        return self._built

    def __getitem__(self, node: NodeId) -> Hashable:
        return self._labels()[node]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._labels())

    def __len__(self) -> int:
        return len(self._node_ids)

    def __repr__(self) -> str:
        return repr(self._labels())


def make_result(
    solver: str,
    instance: RMGPInstance,
    assignment: np.ndarray,
    rounds: List[RoundStats],
    converged: bool,
    wall_seconds: float,
    extra: Optional[Dict[str, Any]] = None,
    stop_reason: Optional[str] = None,
) -> PartitionResult:
    """Assemble a :class:`PartitionResult`, evaluating Equation 1 once.

    ``stop_reason`` defaults from ``converged`` (``"converged"`` /
    ``"max_rounds"``); interrupted solves pass ``"deadline"`` or
    ``"cancelled"`` explicitly.
    """
    if stop_reason is None:
        stop_reason = "converged" if converged else "max_rounds"
    instance.validate_assignment(assignment)
    return PartitionResult(
        solver=solver,
        assignment=np.asarray(assignment, dtype=np.int64).copy(),
        labels=_Labels(instance, assignment),
        value=objective(instance, assignment),
        rounds=list(rounds),
        converged=converged,
        wall_seconds=wall_seconds,
        extra=dict(extra or {}),
        stop_reason=stop_reason,
    )
