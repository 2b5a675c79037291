"""RMGP_se — pruning by strategy elimination (Section 4.1).

For each player ``v`` the *valid region* bounds the assignment cost of
any strategy he could ever follow:

    VR_v = c(v, s_min) + ((1 − α)/α) · W_v

where ``s_min`` is his cheapest class and ``W_v = Σ_f ½·w(v, f)``.  Any


class whose assignment cost exceeds ``VR_v`` can never beat ``s_min``
even if *all* friends joined it, so it is pruned from ``S_v``.  A player
left with a single valid strategy is assigned directly and removed from
the game.  Best responses are never pruned, so convergence and quality
guarantees carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget


@dataclass


class EliminationPlan:
    """Pre-computed reduced strategy spaces for one instance.

    Attributes
    ----------
    valid_classes:
        Per player, a sorted int array of the classes in ``S'_v``.
    fixed_class:
        Per player, the forced class when ``|S'_v| == 1``, else ``-1``.
    valid_regions:
        The ``VR_v`` bound per player.
    """

    valid_classes: List[np.ndarray]
    fixed_class: np.ndarray
    valid_regions: np.ndarray

    @property
    def num_fixed(self) -> int:
        """Players removed from the game entirely."""
        return int((self.fixed_class >= 0).sum())

    def strategies_remaining(self) -> int:
        """Total size of all reduced strategy spaces."""
        return int(sum(len(v) for v in self.valid_classes))


def build_elimination_plan(instance: RMGPInstance) -> EliminationPlan:
    """Compute ``VR_v`` and ``S'_v`` for every player (initialization step)."""
    alpha = instance.alpha
    ratio = (1.0 - alpha) / alpha
    valid_classes: List[np.ndarray] = []
    fixed = np.full(instance.n, -1, dtype=np.int64)
    regions = np.empty(instance.n, dtype=np.float64)
    for player in range(instance.n):
        row = instance.cost.row(player)
        bound = row.min() + ratio * instance.half_strength[player]
        regions[player] = bound
        # Keep classes whose best case (all friends co-located) can still
        # match the worst case of the cheapest class.
        valid = np.flatnonzero(row <= bound + dynamics.DEVIATION_TOLERANCE)
        valid_classes.append(valid)
        if len(valid) == 1:
            fixed[player] = int(valid[0])
    return EliminationPlan(valid_classes, fixed, regions)


def _solve_strategy_elimination(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    plan: Optional[EliminationPlan] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run RMGP_se: Figure 3 dynamics over reduced strategy spaces.

    ``plan`` may be supplied to reuse a pre-computed
    :class:`EliminationPlan` across repeated queries on the same
    instance; by default it is built during round 0 (and its time is
    charged there, as in Figure 12(c)).  Checkpoints do not serialize
    the plan — it is a pure, deterministic function of the instance and
    is rebuilt on resume.
    """
    loop = _EliminationLoop(
        "RMGP_se", instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.init_method, loop.order, loop.warm_start = init, order, warm_start
    loop.plan = plan
    return loop.run()


class _EliminationLoop(dynamics.RoundLoop):
    """Figure 3 dynamics over the reduced strategy spaces ``S'_v``."""

    def init(self, span) -> None:
        instance = self.instance
        if self.plan is None:
            with self.rec.span("build_plan"):
                self.plan = build_elimination_plan(instance)
        self.assignment = self.initial_assignment()
        # Fixed players are assigned immediately and leave the game.
        fixed_mask = self.fixed_mask = self.plan.fixed_class >= 0
        self.assignment[fixed_mask] = self.plan.fixed_class[fixed_mask]
        self.sweep = [
            p
            for p in dynamics.player_order(instance, self.order, self.rng)
            if not fixed_mask[p]
        ]
        # Frontier scheduling over the free players only: fixed players
        # never move, so they never need re-examination, and a mover's
        # clean neighbors are re-marked exactly as in RMGP_b — the move
        # sequence is identical to the full sweep.
        self.active.flags[fixed_mask] = False
        if span is not None:
            span.attrs["num_fixed"] = self.plan.num_fixed

    def restore(self, state) -> None:
        if self.plan is None:
            self.plan = build_elimination_plan(self.instance)
        self.fixed_mask = self.plan.fixed_class >= 0
        self.sweep = dynamics.checked_players(
            state["sweep"], self.instance.n, "sweep",
            count=self.instance.n - self.plan.num_fixed,
        )

    def state(self):
        return {"sweep": [int(p) for p in self.sweep]}

    def step(self):
        plan = self.plan
        deviations, examined = _reduced_round(
            self.instance, self.assignment, self.sweep, plan, self.active,
            self.fixed_mask,
        )
        # Only the reduced strategy spaces are scanned (Eq. 3 on |S'_v|
        # classes, amortized as the mean reduced size).
        evaluations = (
            examined * plan.strategies_remaining() // max(self.instance.n, 1)
        )
        return deviations, examined, evaluations

    def extra(self):
        return {
            "num_fixed": self.plan.num_fixed,
            "strategies_remaining": self.plan.strategies_remaining(),
            "strategies_total": self.instance.n * self.instance.k,
        }


def _reduced_round(
    instance: RMGPInstance,
    assignment: np.ndarray,
    sweep: List[int],
    plan: EliminationPlan,
    active: dynamics.ActiveSet,
    fixed_mask: np.ndarray,
) -> Tuple[int, int]:
    """One frontier round restricted to each player's ``S'_v``.

    Only dirty free players are examined; a mover marks his (free) CSR
    neighbors dirty, so ``players_examined`` reports the true work done
    rather than assuming a full sweep.  Returns ``(deviations, examined)``.
    """
    deviations = 0
    examined = 0
    alpha = instance.alpha
    tol = dynamics.DEVIATION_TOLERANCE
    flags = active.flags
    scratch = np.empty(instance.k, dtype=np.float64)
    indices, weights = instance.indices, instance.weights
    indptr = instance.indptr.tolist()
    for player in sweep:
        if not flags[player]:
            continue
        flags[player] = False
        examined += 1
        valid = plan.valid_classes[player]
        scratch.fill(np.inf)
        scratch[valid] = (
            alpha * instance.cost.row(player)[valid]
            + instance.max_social_cost[player]
        )
        row = slice(indptr[player], indptr[player + 1])
        idx = indices[row]
        if idx.size:
            refund = (1.0 - alpha) * 0.5 * weights[row]
            # Refunds on pruned classes land on +inf and stay invalid.
            np.subtract.at(scratch, assignment[idx], refund)
        current = int(assignment[player])
        best = int(scratch.argmin())
        if best != current and scratch[best] < scratch[current] - tol:
            assignment[player] = best
            deviations += 1
            if idx.size:
                # Mark free neighbors dirty; fixed ones stay clean.
                flags[idx] = ~fixed_mask[idx]
    return deviations, examined
