"""Objective, potential and per-player cost evaluators (Equations 1, 3, 4).

These are the ground-truth formulas every solver and every test checks
against; solvers maintain *incremental* versions of the same quantities,
and the property-based tests assert the two always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instance import RMGPInstance


@dataclass(frozen=True)
class ObjectiveValue:
    """Breakdown of the RMGP objective for one assignment.

    ``assignment_cost`` is ``Σ_v c(v, s_v)`` and ``social_cost`` is the
    cut weight ``Σ_{(i,j)∈E, s_i≠s_j} w_ij`` — both *unweighted* by α so
    that the components can be compared directly (as in Figures 9-11).
    ``total`` applies the α-weighting of Equation 1.
    """

    assignment_cost: float
    social_cost: float
    alpha: float

    @property
    def total(self) -> float:
        """``α · assignment_cost + (1 − α) · social_cost`` (Equation 1)."""
        return (
            self.alpha * self.assignment_cost
            + (1.0 - self.alpha) * self.social_cost
        )

    def __str__(self) -> str:
        return (
            f"total={self.total:.6g} (assignment={self.assignment_cost:.6g}, "
            f"social={self.social_cost:.6g}, alpha={self.alpha})"
        )


def assignment_cost_sum(instance: RMGPInstance, assignment: np.ndarray) -> float:
    """``Σ_v c(v, s_v)`` for the given strategy vector."""
    instance.validate_assignment(assignment)
    if instance.n == 0:
        return 0.0
    assignment = np.asarray(assignment, dtype=np.int64)
    costs = instance.cost.view()
    return float(costs[np.arange(instance.n), assignment].sum())


def social_cost_sum(instance: RMGPInstance, assignment: np.ndarray) -> float:
    """Cut weight ``Σ_{(i,j)∈E, s_i≠s_j} w_ij`` (each edge counted once)."""
    instance.validate_assignment(assignment)
    if instance.indices.size == 0:
        return 0.0
    assignment = np.asarray(assignment, dtype=np.int64)
    crossing = assignment[instance.indices] != assignment[instance.edge_owner]
    # Each crossing edge is seen from both endpoints; half_weights are
    # already ½·w, so the plain sum counts every edge exactly once.
    return float(instance.half_weights[crossing].sum())


def objective(instance: RMGPInstance, assignment: np.ndarray) -> ObjectiveValue:
    """Full Equation 1 breakdown for ``assignment``."""
    return ObjectiveValue(
        assignment_cost=assignment_cost_sum(instance, assignment),
        social_cost=social_cost_sum(instance, assignment),
        alpha=instance.alpha,
    )


def potential(instance: RMGPInstance, assignment: np.ndarray) -> float:
    """Exact potential ``Φ(S)`` of Equation 4.

    Identical to the objective except the social term is halved — the
    factor that makes best responses change ``Φ`` by exactly the change
    in the deviating player's own cost (Theorem 1).
    """
    return (
        instance.alpha * assignment_cost_sum(instance, assignment)
        + (1.0 - instance.alpha) * 0.5 * social_cost_sum(instance, assignment)
    )


def player_cost(
    instance: RMGPInstance, assignment: np.ndarray, player: int
) -> float:
    """Per-player cost ``C_v(s_v, π_v)`` of Equation 3."""
    klass = int(assignment[player])
    row = slice(instance.indptr[player], instance.indptr[player + 1])
    crossing = assignment[instance.indices[row]] != klass
    social = 0.5 * float(instance.weights[row][crossing].sum())
    return (
        instance.alpha * instance.cost.cost(player, klass)
        + (1.0 - instance.alpha) * social
    )


def total_player_cost(instance: RMGPInstance, assignment: np.ndarray) -> float:
    """``Σ_v C_v`` — equal to the Equation 1 objective (Section 3.1).

    Each crossing edge contributes ``½·w`` to both endpoints, so the sum
    of per-player costs reconstitutes the full social cost.
    """
    return sum(player_cost(instance, assignment, v) for v in range(instance.n))


def player_strategy_costs(
    instance: RMGPInstance, assignment: np.ndarray, player: int
) -> np.ndarray:
    """Cost of every strategy for ``player`` given the others' strategies.

    Implements lines 7-10 of Figure 3: start every class at
    ``α·c(v, p) + maxSC_v`` and refund ``(1 − α)·½·w(v, f)`` for each
    friend ``f`` already in class ``p``.
    """
    costs = instance.alpha * instance.cost.row(player)
    costs += instance.max_social_cost[player]
    row = slice(instance.indptr[player], instance.indptr[player + 1])
    idx = instance.indices[row]
    if idx.size:
        refund = (1.0 - instance.alpha) * 0.5 * instance.weights[row]
        np.subtract.at(costs, assignment[idx], refund)
    return costs


def best_response(
    instance: RMGPInstance,
    assignment: np.ndarray,
    player: int,
    tolerance: float = 1e-12,
) -> int:
    """Best-response class for ``player``; keeps the current class on ties.

    A player "deviates only if his cost decreases" (Lemma 2 proof), so the
    current strategy wins unless some class is better by more than
    ``tolerance`` (which guards against floating-point jitter).
    """
    costs = player_strategy_costs(instance, assignment, player)
    current = int(assignment[player])
    best = int(costs.argmin())
    if costs[best] < costs[current] - tolerance:
        return best
    return current
