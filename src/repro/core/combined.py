"""RMGP_all — all three optimizations composed (Section 6.3).

"The proposed optimizations are orthogonal and can be applied in any
combination" (Section 4); RMGP_all applies all of them:

* **strategy elimination** — the global table is built only over each
  player's reduced strategy space ``S'_v`` (pruned entries are ``+inf``),
  and single-strategy players are fixed up front, which also shrinks the
  table ("the space requirement can be reduced", Section 4.3);
* **global table** — only unhappy players are examined;
* **independent strategies** — rounds sweep color groups, enabling the
  parallel processing of Section 4.2 (the group structure is also what
  the decentralized game of Section 5 distributes across slaves).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core import dynamics
from repro.core.global_table import happiness
from repro.core.independent_sets import checked_groups, ordered_groups
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.core.strategy_elimination import (
    EliminationPlan,
    build_elimination_plan,
)
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget


def build_pruned_table(
    instance: RMGPInstance, assignment: np.ndarray, plan: EliminationPlan
) -> np.ndarray:
    """Global table restricted to valid strategies (pruned = ``+inf``)."""
    alpha = instance.alpha
    table = np.full((instance.n, instance.k), np.inf, dtype=np.float64)
    for player in range(instance.n):
        valid = plan.valid_classes[player]
        table[player, valid] = (
            alpha * instance.cost.row(player)[valid]
            + instance.max_social_cost[player]
        )
        idx = instance.neighbor_indices[player]
        if idx.size:
            refund = (1.0 - alpha) * 0.5 * instance.neighbor_weights[player]
            # Refunds on pruned classes act on +inf and leave them invalid.
            np.subtract.at(table[player], assignment[idx], refund)
    return table


def _solve_all(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    coloring: Optional[Dict] = None,
    plan: Optional[EliminationPlan] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run RMGP_all on ``instance``.

    Round 0 covers ordering, initial assignment, valid-region computation
    and pruned-table construction, matching the paper's accounting of the
    expensive initialization step (Figure 12(c)).  Like RMGP_gt, the
    checkpoint serializes the (incrementally-updated) pruned table;
    ``+inf`` pruned entries survive the raw-buffer encoding unchanged.
    The elimination plan is deterministic and rebuilt on resume.
    """
    loop = _CombinedLoop(
        "RMGP_all", instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.init_method, loop.order, loop.warm_start = init, order, warm_start
    loop.coloring, loop.plan = coloring, plan
    return loop.run()


class _CombinedLoop(dynamics.RoundLoop):
    """Pruned-table rounds over the color groups' unhappy players."""

    def init(self, span) -> None:
        instance = self.instance
        if self.plan is None:
            with self.rec.span("build_plan"):
                self.plan = build_elimination_plan(instance)
        self.assignment = self.initial_assignment()
        fixed_mask = self.fixed_mask = self.plan.fixed_class >= 0
        self.assignment[fixed_mask] = self.plan.fixed_class[fixed_mask]
        groups = ordered_groups(
            instance, self.coloring,
            dynamics.player_order(instance, self.order, self.rng),
        )
        groups = [[p for p in group if not fixed_mask[p]] for group in groups]
        self.groups = [g for g in groups if g]
        with self.rec.span("build_table"):
            self.table = build_pruned_table(instance, self.assignment, self.plan)
        # The frontier is the unhappy free players.
        self.active.flags = ~happiness(self.table, self.assignment)
        self.active.flags[fixed_mask] = False
        if span is not None:
            span.attrs.update(
                num_groups=len(self.groups), num_fixed=self.plan.num_fixed,
                table_bytes=int(self.table.nbytes),
            )

    def restore(self, state) -> None:
        n, k = self.instance.n, self.instance.k
        if self.plan is None:
            self.plan = build_elimination_plan(self.instance)
        self.fixed_mask = self.plan.fixed_class >= 0
        self.groups = checked_groups(
            state["groups"], n, count=n - self.plan.num_fixed
        )
        self.table = dynamics.checked_array(
            state["table"], (n, k), np.float64, "table"
        )

    def start(self) -> None:
        super().start()
        self.rec.gauge(
            "solver.table_bytes", self.table.nbytes, solver=self.name
        )

    def state(self):
        return {
            "groups": [[int(p) for p in g] for g in self.groups],
            "table": self.table.copy(),
        }

    def step(self):
        instance, table, assignment = self.instance, self.table, self.assignment
        dirty = self.active.flags
        fixed_mask = self.fixed_mask
        half = (1.0 - instance.alpha) * 0.5
        tol = dynamics.DEVIATION_TOLERANCE
        deviations = 0
        examined = 0
        for group in self.groups:
            # Members are non-adjacent: their best responses are mutually
            # independent, so this sweep equals a simultaneous update.
            for player in group:
                if not dirty[player]:
                    continue
                examined += 1
                dirty[player] = False
                current = int(assignment[player])
                best = int(table[player].argmin())
                if table[player, best] >= table[player, current] - tol:
                    continue
                assignment[player] = best
                deviations += 1
                idx = instance.neighbor_indices[player]
                wts = instance.neighbor_weights[player]
                for friend, weight in zip(idx, wts):
                    delta = half * weight
                    table[friend, best] -= delta
                    table[friend, current] += delta
                    if fixed_mask[friend]:
                        continue
                    friend_class = int(assignment[friend])
                    dirty[friend] = not (
                        table[friend, friend_class]
                        <= table[friend].min() + tol
                    )
        # Table-driven: one row argmin per examined player.
        return deviations, examined, examined

    def extra(self):
        return {
            "num_fixed": self.plan.num_fixed,
            "num_groups": len(self.groups),
            "strategies_remaining": self.plan.strategies_remaining(),
        }
