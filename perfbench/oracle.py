"""The correctness oracle: in-process reference answers and the checks
every served body and every churn run must pass.

A served answer counts as correct only when its body passes the
``repro-result/v1`` schema (``validate_result``), reports
``converged``, and carries the same ``assignment_sha256`` as an
in-process ``partition()`` of the same (graph, alpha, solver) run by
this process against the same source tree.  That reference is itself
certified a pure Nash equilibrium (Theorem 1) with
``equilibrium_report``, so two paths that agree on a wrong answer still
fail.

The reference build goes through the program's public functions, each
wrapped in a benchmark span (``datasets.load_dataset``,
``core.instance``, ``core.with_alpha``, ``core.partition``,
``result.serialize``).  Untraced runs pass the no-op ``Recorder``; the
traced run passes a ``TraceRecorder`` and reads the layer times back
from its spans.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import partition
from repro.core.dynamics import initial_assignment
from repro.core.equilibrium import equilibrium_report
from repro.core.instance import RMGPInstance
from repro.core.objective import objective
from repro.core.result_schema import validate_result
from repro.datasets import load_dataset
from repro.obs.recorder import Recorder


@dataclass(frozen=True)
class Reference:
    """The in-process answer for one (graph, alpha, solver)."""

    sha256: str
    cost: float
    closest_cost: float
    rounds: int
    players_examined: int
    equilibrium: bool
    max_regret: float

    @property
    def cost_ratio(self) -> float:
        """Eq. 1 cost over the closest-class assignment's Eq. 1 cost."""
        return self.cost / self.closest_cost


def build_instance(
    users: int, events: int, seed: int, rec: Recorder
) -> RMGPInstance:
    """The resident instance the server builds for a gowalla spec."""
    with rec.span("datasets.load_dataset", users=users, seed=seed):
        data = load_dataset(
            "gowalla",
            num_users=users,
            num_events=events,
            seed=seed,
            use_cache=False,
        )
    with rec.span("core.instance", users=users, seed=seed):
        return RMGPInstance(data.graph, data.event_ids, data.cost_matrix())


def closest_cost(instance: RMGPInstance) -> float:
    """Eq. 1 cost of giving every player its cheapest class."""
    return objective(instance, initial_assignment(instance, "closest")).total


def reference(
    instance: RMGPInstance,
    solver: str,
    alpha: Optional[float],
    rec: Recorder,
) -> Reference:
    """Solve in-process exactly as a served request would, and certify.

    The served path clones the resident instance inside ``partition``
    when the request carries an alpha; the clone is made here
    explicitly so its cost gets its own span, and ``partition`` then
    sees the matching alpha and solves the clone unchanged.
    """
    if alpha is not None and alpha != instance.alpha:
        with rec.span("core.with_alpha", alpha=alpha):
            instance = instance.with_alpha(alpha)
    with rec.span("core.partition", solver=solver):
        result = partition(instance, solver=solver)
    with rec.span("result.serialize"):
        json.dumps({"result": result.to_dict()})
    report = equilibrium_report(instance, result.assignment)
    sha = hashlib.sha256(
        np.ascontiguousarray(result.assignment, dtype=np.int64).tobytes()
    ).hexdigest()
    return Reference(
        sha256=sha,
        cost=float(result.value.total),
        closest_cost=closest_cost(instance),
        rounds=result.num_rounds,
        players_examined=sum(r.players_examined for r in result.rounds),
        equilibrium=report.is_equilibrium,
        max_regret=report.max_regret,
    )


def check_served(
    status: int, body: bytes, ref: Optional[Reference]
) -> Tuple[List[str], Optional[Dict[str, Any]]]:
    """Oracle verdict on one served response: ``(failures, envelope)``.

    ``ref`` is None for requests outside the verified subset; they must
    still pass the schema and convergence checks.
    """
    if status != 200:
        return [f"HTTP {status}: {body[:200]!r}"], None
    try:
        envelope = json.loads(body)
    except ValueError as exc:
        return [f"response is not JSON: {exc}"], None
    result = envelope.get("result")
    if envelope.get("state") != "done" or not isinstance(result, dict):
        return [f"job state {envelope.get('state')!r}, no result"], envelope
    failures = list(validate_result(result))
    if not result.get("converged"):
        failures.append(f"not converged: {result.get('stop_reason')!r}")
    if ref is not None:
        if result.get("assignment_sha256") != ref.sha256:
            failures.append("assignment differs from the in-process solve")
        if not ref.equilibrium:
            failures.append(
                f"reference is not a Nash equilibrium "
                f"(max regret {ref.max_regret:.3g})"
            )
    return failures, envelope
