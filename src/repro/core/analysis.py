"""Post-hoc analysis of best-response dynamics and solutions.

Utilities used by the examples, the ablation benchmarks and anyone
studying the game's behaviour:

* :func:`potential_trace` — re-run the dynamics recording ``Φ`` after
  every single deviation (not just per round), the empirical view of
  Lemma 2's argument.
* :func:`convergence_report` — one bundle of the quantities the paper
  discusses: rounds, deviations per round, potential drop, the Lemma 2
  ceiling and how far below it the run stayed.
* :func:`assignment_diff` — which users moved between two solutions
  (used by the online scenario and the warm-start studies).
* :func:`class_profile` — per-class composition: members, assignment
  cost, internal/external social weight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.objective import objective, player_strategy_costs, potential
from repro.core.result import PartitionResult


@dataclass(frozen=True)
class DeviationEvent:
    """One strategy change during a traced run."""

    step: int
    round_index: int
    player: int
    from_class: int
    to_class: int
    potential_after: float
    improvement: float


def potential_trace(
    instance: RMGPInstance,
    init: str = "random",
    order: str = "random",
    seed: Optional[int] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
) -> List[DeviationEvent]:
    """Replay RMGP_b recording ``Φ`` after every deviation.

    The returned sequence is strictly decreasing in ``potential_after``
    (Theorem 1's mechanism) — asserted by the property tests.
    """
    rng = random.Random(seed)
    assignment = dynamics.initial_assignment(instance, init, rng)
    sweep = dynamics.player_order(instance, order, rng)
    events: List[DeviationEvent] = []
    phi = potential(instance, assignment)
    step = 0
    round_index = 0
    while True:
        round_index += 1
        dynamics.check_round_budget(round_index, max_rounds, "potential_trace")
        deviations = 0
        for player in sweep:
            costs = player_strategy_costs(instance, assignment, player)
            current = int(assignment[player])
            best = int(costs.argmin())
            if best != current and (
                costs[best] < costs[current] - dynamics.DEVIATION_TOLERANCE
            ):
                improvement = float(costs[current] - costs[best])
                assignment[player] = best
                phi -= improvement  # exact potential: ΔΦ == ΔC_v
                step += 1
                deviations += 1
                events.append(
                    DeviationEvent(
                        step=step,
                        round_index=round_index,
                        player=player,
                        from_class=current,
                        to_class=best,
                        potential_after=phi,
                        improvement=improvement,
                    )
                )
        if deviations == 0:
            return events


@dataclass
class ConvergenceReport:
    """Summary of one solver run's dynamics."""

    rounds: int
    total_deviations: int
    deviations_per_round: List[int]
    initial_potential: float
    final_potential: float
    lemma2_ceiling: float

    @property
    def potential_drop(self) -> float:
        """Total decrease of ``Φ`` over the run."""
        return self.initial_potential - self.final_potential

    @property
    def ceiling_utilization(self) -> float:
        """Observed rounds over the Lemma 2 bound (usually tiny)."""
        if self.lemma2_ceiling <= 0:
            return 0.0
        return self.rounds / self.lemma2_ceiling


def convergence_report(
    instance: RMGPInstance,
    result: PartitionResult,
    scale: float = 1e6,
) -> ConvergenceReport:
    """Build a :class:`ConvergenceReport` for a finished solve.

    ``scale`` is the integrality factor ``d`` of Lemma 2 used for the
    round ceiling (costs here are floats; 1e6 treats them as fixed-point
    with six digits).
    """
    from repro.core.equilibrium import round_bound

    per_round = [r.deviations for r in result.rounds if r.round_index > 0]
    potentials = [r.potential for r in result.rounds]
    if potentials[0] is not None:
        initial = float(potentials[0])
    else:
        initial = float("nan")
    final = potential(instance, result.assignment)
    return ConvergenceReport(
        rounds=result.num_rounds,
        total_deviations=result.total_deviations,
        deviations_per_round=per_round,
        initial_potential=initial,
        final_potential=final,
        lemma2_ceiling=round_bound(instance, scale),
    )


def assignment_diff(
    instance: RMGPInstance,
    before: np.ndarray,
    after: np.ndarray,
) -> Dict[Hashable, "tuple[Hashable, Hashable]"]:
    """Users whose class changed, as ``user -> (old label, new label)``."""
    instance.validate_assignment(before)
    instance.validate_assignment(after)
    moved = {}
    for player in np.flatnonzero(np.asarray(before) != np.asarray(after)):
        moved[instance.node_ids[player]] = (
            instance.classes[int(before[player])],
            instance.classes[int(after[player])],
        )
    return moved


@dataclass(frozen=True)
class ClassProfile:
    """Composition of one class in a solution."""

    label: Hashable
    members: int
    assignment_cost: float
    internal_weight: float
    external_weight: float

    @property
    def cohesion(self) -> float:
        """Internal share of the members' social weight (0..1)."""
        total = self.internal_weight + self.external_weight
        return self.internal_weight / total if total > 0 else 1.0


def class_profiles(
    instance: RMGPInstance, assignment: np.ndarray
) -> List[ClassProfile]:
    """Per-class composition of a solution (sorted by label order)."""
    instance.validate_assignment(assignment)
    assignment = np.asarray(assignment)
    profiles = []
    indptr = instance.indptr.tolist()
    for klass, label in enumerate(instance.classes):
        members = np.flatnonzero(assignment == klass)
        cost = float(
            sum(instance.cost.cost(int(p), klass) for p in members)
        )
        internal = external = 0.0
        for player in members:
            row = slice(indptr[player], indptr[player + 1])
            wts = instance.weights[row]
            same = assignment[instance.indices[row]] == klass
            internal += float(wts[same].sum())
            external += float(wts[~same].sum())
        profiles.append(
            ClassProfile(
                label=label,
                members=int(members.size),
                assignment_cost=cost,
                internal_weight=internal / 2.0,  # both endpoints counted
                external_weight=external,
            )
        )
    return profiles


def quality_summary(
    instance: RMGPInstance, assignment: np.ndarray
) -> Dict[str, float]:
    """A compact quality dict for dashboards and examples."""
    value = objective(instance, assignment)
    profiles = class_profiles(instance, assignment)
    occupied = [p for p in profiles if p.members]
    return {
        "total": value.total,
        "assignment_cost": value.assignment_cost,
        "social_cost": value.social_cost,
        "classes_used": float(len(occupied)),
        "largest_class": float(max((p.members for p in profiles), default=0)),
        "mean_cohesion": (
            float(np.mean([p.cohesion for p in occupied])) if occupied else 1.0
        ),
    }
