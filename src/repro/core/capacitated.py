"""Capacity-constrained RMGP — events with limited seats.

The paper's related work points at LAGP "assuming that events have
minimum and maximum participation constraints" (Section 2.1, [16]) and
leaves the combination with the game-theoretic framework open.  This
module adds both sides: *maximum* capacities inside the dynamics
(``solver="cap"``) and *minimum* participation via the
cancel-and-resolve stages of ``solver="minpart"``.  The maximum
side works as follows:

* A class ``p`` with capacity ``cap_p`` can hold at most that many
  players; a player may deviate to ``p`` only while it has a free seat
  (or by improving within his current class).
* Every permitted deviation still strictly decreases the exact potential
  ``Φ`` — capacities only *restrict* the move set, they never create new
  moves — so best-response dynamics still terminate, now at a
  *capacitated equilibrium*: no player can improve by moving to a class
  with spare capacity.

Note the solution concept is weaker than an unconstrained Nash
equilibrium: profitable *swaps* between two players in full classes are
not explored (doing so is a different game).  :func:`capacity_violations`
and the equilibrium check below make the guarantee testable.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.objective import player_strategy_costs
from repro.core.result import PartitionResult
from repro.errors import ConfigurationError, DataError
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.executor import load_resume


def validate_capacities(
    instance: RMGPInstance, capacities: Sequence[int]
) -> np.ndarray:
    """Check shape and total feasibility; returns an int array."""
    caps = np.asarray(list(capacities), dtype=np.int64)
    if caps.shape != (instance.k,):
        raise ConfigurationError(
            f"need one capacity per class ({instance.k}), got {caps.shape}"
        )
    if (caps < 0).any():
        raise ConfigurationError("capacities must be non-negative")
    if caps.sum() < instance.n:
        raise ConfigurationError(
            f"total capacity {int(caps.sum())} cannot seat {instance.n} players"
        )
    return caps


def feasible_initial_assignment(
    instance: RMGPInstance,
    capacities: np.ndarray,
    rng: random.Random,
    init: str = "closest",
) -> np.ndarray:
    """Feasible start: players claim cheap seats greedily.

    With ``init="closest"`` players are processed in random order and
    take the cheapest class with a free seat; ``init="random"`` takes a
    random free class.
    """
    assignment = np.full(instance.n, -1, dtype=np.int64)
    load = np.zeros(instance.k, dtype=np.int64)
    order = list(range(instance.n))
    rng.shuffle(order)
    for player in order:
        if init == "closest":
            row = instance.cost.row(player)
            for klass in np.argsort(row, kind="stable"):
                if load[klass] < capacities[klass]:
                    assignment[player] = int(klass)
                    load[klass] += 1
                    break
        else:
            free = np.flatnonzero(load < capacities)
            klass = int(free[rng.randrange(len(free))])
            assignment[player] = klass
            load[klass] += 1
    return assignment


def _solve_capacitated(
    instance: RMGPInstance,
    capacities: Sequence[int],
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Best-response dynamics under per-class maximum capacities.

    Every round sweeps all ``n`` players — deliberately *not* the dirty
    frontier of the other solvers: seat availability is global state, so
    a "clean" player's best response can change when someone else frees
    a seat in a class he wants.  ``players_examined == n`` is therefore
    the true per-round work, not an unexamined assumption.
    """
    return _CapacitatedLoop(
        instance, validate_capacities(instance, capacities), init, order,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    ).run()


class _CapacitatedLoop(dynamics.RoundLoop):
    """Full-sweep rounds restricted to classes with a free seat."""

    uses_frontier = False

    def __init__(self, instance, caps, init, order, **loop_kwargs) -> None:
        self.caps, self.init_method, self.order = caps, init, order
        super().__init__("RMGP_cap", instance, **loop_kwargs)

    def init(self, span) -> None:
        self.assignment = feasible_initial_assignment(
            self.instance, self.caps, self.rng, self.init_method
        )
        self.load = np.bincount(self.assignment, minlength=self.instance.k)
        self.sweep = dynamics.player_order(self.instance, self.order, self.rng)

    def restore(self, state) -> None:
        stored_caps = np.asarray(state["capacities"], dtype=np.int64)
        if not np.array_equal(stored_caps, self.caps):
            raise DataError(
                "checkpoint was taken under different capacities "
                f"({stored_caps.tolist()} vs {self.caps.tolist()})"
            )
        self.sweep = dynamics.checked_players(
            state["sweep"], self.instance.n, "sweep"
        )
        self.load = np.bincount(self.assignment, minlength=self.instance.k)

    def state(self):
        return {
            "sweep": [int(p) for p in self.sweep],
            "capacities": self.caps.copy(),
        }

    def step(self):
        instance, assignment, load, caps = (
            self.instance, self.assignment, self.load, self.caps
        )
        tol = dynamics.DEVIATION_TOLERANCE
        deviations = 0
        for player in self.sweep:
            costs = player_strategy_costs(instance, assignment, player)
            current = int(assignment[player])
            # Only classes with a free seat (or the current one) are open.
            open_classes = (load < caps) | (np.arange(instance.k) == current)
            costs[~open_classes] = np.inf
            best = int(costs.argmin())
            if best != current and costs[best] < costs[current] - tol:
                assignment[player] = best
                load[current] -= 1
                load[best] += 1
                deviations += 1
        return deviations, instance.n, instance.n * instance.k

    def extra(self):
        return {
            "capacities": self.caps.tolist(),
            "loads": np.bincount(
                self.assignment, minlength=self.instance.k
            ).tolist(),
        }


def _solve_with_minimums(
    instance: RMGPInstance,
    min_participants: int,
    capacities: Optional[Sequence[int]] = None,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """RMGP with *minimum* participation: undersubscribed events cancel.

    The related work the paper cites ([16], Section 2.1) studies LAGP
    where "events that cannot reach the minimum number of participants
    are canceled".  This solver composes that semantics with the game:

    1. solve (optionally under maximum ``capacities``),
    2. cancel the non-empty class with the fewest attendees if it has
       fewer than ``min_participants``,
    3. re-solve over the surviving classes, and repeat.

    Terminates after at most ``k − 1`` cancellations.  The result's
    assignment is over the *original* class indices; canceled classes end
    up empty, and ``extra["canceled"]`` lists them in cancellation order.

    The returned result's ``wall_seconds`` covers the *entire*
    cancel-and-resolve loop and ``extra["rounds_total"]`` sums the rounds
    of every re-solve; ``rounds`` (the per-round stats) describe the
    final re-solve only.

    Real-time semantics: the ``budget`` spans the whole cancel-and-
    resolve composition (each stage polls it at its round boundaries).
    Each stage is a capacitated :class:`~repro.core.dynamics.RoundLoop`
    whose checkpoints are labeled ``RMGP_minpart`` and carry the stage
    state (active classes, cancellations, rounds so far) — resuming
    restarts mid-stage exactly where the interrupt landed.
    """
    if min_participants < 0:
        raise ConfigurationError("min_participants must be non-negative")
    if capacities is not None:
        caps = validate_capacities(instance, capacities)
    else:
        caps = np.full(instance.k, instance.n, dtype=np.int64)

    rec = active_recorder(recorder)
    loop_clock = dynamics.RoundClock()
    stage_resume = load_resume(resume_from, instance, "RMGP_minpart", rec)
    if stage_resume is not None:
        state = stage_resume.state
        try:
            active = dynamics.checked_array(
                state["minpart_active"], (instance.k,), bool, "minpart_active"
            ).copy()
            canceled = dynamics.checked_players(
                state["minpart_canceled"], instance.k, "minpart_canceled",
                count=len(state["minpart_canceled"]),
            )
            rounds_total = int(state["minpart_rounds_total"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"malformed RMGP_minpart checkpoint state: {exc!r}"
            ) from exc
    else:
        active = np.ones(instance.k, dtype=bool)
        canceled = []
        rounds_total = 0
    with rec.span(
        "solve", solver="RMGP_minpart", n=instance.n, k=instance.k
    ):
        while True:
            effective = caps.copy()
            effective[~active] = 0
            if int(effective.sum()) < instance.n:
                raise ConfigurationError(
                    "cancellations left too few seats for the players; "
                    "lower min_participants or raise capacities"
                )
            result = _CapacitatedLoop(
                instance, effective, init, order,
                seed=seed, recorder=rec, budget=budget,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                resume_from=stage_resume,
                checkpoint_as="RMGP_minpart",
                stage_state={
                    "minpart_active": active.copy(),
                    "minpart_canceled": list(canceled),
                    "minpart_rounds_total": rounds_total,
                },
            ).run()
            stage_resume = None
            rounds_total += result.num_rounds
            loads = np.bincount(result.assignment, minlength=instance.k)
            under = [
                klass
                for klass in range(instance.k)
                if active[klass] and 0 < loads[klass] < min_participants
            ]
            # A tripped budget degrades gracefully with the stage's
            # current (valid, capacity-feasible) assignment.
            if not under or result.stop_reason in ("deadline", "cancelled"):
                result.extra["canceled"] = canceled
                result.extra["rounds_total"] = rounds_total
                result.solver = "RMGP_minpart"
                # The stage timer only saw the final stage; the contract
                # says wall_seconds covers the whole call.
                result.wall_seconds = loop_clock.total()
                return result
            # Cancel the weakest event first, as organizers would.
            weakest = min(under, key=lambda klass: loads[klass])
            active[weakest] = False
            canceled.append(weakest)
            rec.event(
                "class_canceled", klass=weakest, load=int(loads[weakest])
            )
            rec.count("class.cancellations", 1, solver="RMGP_minpart")


def capacity_violations(
    assignment: np.ndarray, capacities: Sequence[int]
) -> Dict[int, int]:
    """Overloaded classes: class index -> players above capacity."""
    caps = np.asarray(list(capacities), dtype=np.int64)
    load = np.bincount(np.asarray(assignment), minlength=len(caps))
    return {
        int(klass): int(load[klass] - caps[klass])
        for klass in range(len(caps))
        if load[klass] > caps[klass]
    }


def is_capacitated_equilibrium(
    instance: RMGPInstance,
    assignment: np.ndarray,
    capacities: Sequence[int],
    tolerance: float = 1e-9,
) -> bool:
    """No player can improve by moving to a class with a free seat."""
    caps = validate_capacities(instance, capacities)
    assignment = np.asarray(assignment)
    load = np.bincount(assignment, minlength=instance.k)
    if capacity_violations(assignment, caps):
        return False
    for player in range(instance.n):
        costs = player_strategy_costs(instance, assignment, player)
        current = int(assignment[player])
        open_classes = (load < caps) | (np.arange(instance.k) == current)
        costs[~open_classes] = np.inf
        if costs.min() < costs[current] - tolerance:
            return False
    return True
