"""Recommendation-quality metrics for LAGP/TAGP solutions.

The paper's motivation for the game-theoretic formulation is that its
recommendations "are likely to be followed by the users" — users are
individually satisfied, not sacrificed to a global optimum.  These
metrics make that claim measurable for any solution:

* :func:`user_satisfaction` — per-user regret-style scores: how much
  worse (in assignment cost) is the recommended class than the user's
  individually best one, and how many of his friends join him.
* :func:`attendance_gini` — inequality of class audiences.
* :func:`distance_percentiles` — the distribution of realized
  assignment costs (travel distances in LAGP).
* :func:`satisfaction_report` — one bundle of all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.instance import RMGPInstance
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class UserSatisfaction:
    """Per-user view of a recommendation."""

    player: int
    assignment_cost: float
    min_assignment_cost: float
    friends_total: int
    friends_together: int

    @property
    def detour_ratio(self) -> float:
        """Realized vs minimum assignment cost (1.0 = at the optimum).

        Infinite when the user's cheapest class costs 0 but he was sent
        elsewhere at positive cost.
        """
        if self.min_assignment_cost > 0:
            return self.assignment_cost / self.min_assignment_cost
        return 1.0 if self.assignment_cost == 0 else float("inf")

    @property
    def social_fraction(self) -> float:
        """Fraction of friends sharing the user's class (1.0 if no friends)."""
        if self.friends_total == 0:
            return 1.0
        return self.friends_together / self.friends_total


def user_satisfaction(
    instance: RMGPInstance, assignment: np.ndarray
) -> List[UserSatisfaction]:
    """Per-user satisfaction scores for ``assignment``."""
    instance.validate_assignment(assignment)
    assignment = np.asarray(assignment)
    scores = []
    indptr = instance.indptr.tolist()
    for player in range(instance.n):
        row = instance.cost.row(player)
        klass = int(assignment[player])
        idx = instance.indices[indptr[player] : indptr[player + 1]]
        together = int((assignment[idx] == klass).sum()) if idx.size else 0
        scores.append(
            UserSatisfaction(
                player=player,
                assignment_cost=float(row[klass]),
                min_assignment_cost=float(row.min()),
                friends_total=int(idx.size),
                friends_together=together,
            )
        )
    return scores


def attendance_gini(assignment: np.ndarray, num_classes: int) -> float:
    """Gini coefficient of per-class audience sizes (0 = perfectly even).

    Includes empty classes: promoting k events and filling 3 is unequal.
    """
    if num_classes <= 0:
        raise ConfigurationError("num_classes must be positive")
    loads = np.bincount(np.asarray(assignment), minlength=num_classes).astype(
        np.float64
    )
    if loads.sum() == 0:
        return 0.0
    loads.sort()
    n = len(loads)
    ranks = np.arange(1, n + 1)
    return float(
        (2.0 * (ranks * loads).sum()) / (n * loads.sum()) - (n + 1.0) / n
    )


def distance_percentiles(
    instance: RMGPInstance,
    assignment: np.ndarray,
    percentiles: Sequence[float] = (50, 90, 99),
) -> Dict[float, float]:
    """Percentiles of the realized per-user assignment costs."""
    instance.validate_assignment(assignment)
    costs = np.array(
        [
            instance.cost.cost(v, int(assignment[v]))
            for v in range(instance.n)
        ]
    )
    if costs.size == 0:
        return {p: 0.0 for p in percentiles}
    return {p: float(np.percentile(costs, p)) for p in percentiles}


@dataclass(frozen=True)
class SatisfactionReport:
    """Aggregate recommendation-quality summary."""

    mean_detour_ratio: float
    users_at_cheapest: int
    mean_social_fraction: float
    isolated_users: int
    attendance_gini: float
    median_cost: float

    def __str__(self) -> str:
        return (
            f"detour x{self.mean_detour_ratio:.2f}, "
            f"{self.users_at_cheapest} at cheapest class, "
            f"{100 * self.mean_social_fraction:.0f}% friends together, "
            f"gini={self.attendance_gini:.2f}"
        )


def satisfaction_report(
    instance: RMGPInstance, assignment: np.ndarray
) -> SatisfactionReport:
    """Bundle all quality metrics for one solution."""
    scores = user_satisfaction(instance, assignment)
    finite_detours = [
        s.detour_ratio for s in scores if np.isfinite(s.detour_ratio)
    ]
    return SatisfactionReport(
        mean_detour_ratio=(
            float(np.mean(finite_detours)) if finite_detours else 1.0
        ),
        users_at_cheapest=sum(
            1
            for s in scores
            if s.assignment_cost <= s.min_assignment_cost + 1e-12
        ),
        mean_social_fraction=(
            float(np.mean([s.social_fraction for s in scores]))
            if scores
            else 1.0
        ),
        isolated_users=sum(1 for s in scores if s.friends_total == 0),
        attendance_gini=attendance_gini(assignment, instance.k),
        median_cost=distance_percentiles(instance, assignment, (50,))[50],
    )
