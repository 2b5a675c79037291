"""RMGP_all — all three optimizations composed (Section 6.3).

"The proposed optimizations are orthogonal and can be applied in any
combination" (Section 4).  RMGP_all is RMGP_gt's loop
(:class:`~repro.core.global_table._GlobalTableLoop`: the
:class:`~repro.core.global_table.BulkRounds` round, the checkpointed and
validated table) with two parts swapped:

* **the table** is built only over each player's reduced strategy space
  ``S'_v`` (strategy elimination, Section 4.1; pruned entries ``+inf``),
  and single-strategy players are fixed up front;
* **the sweep** is the color groups' free players, group after group.
  Group members are non-adjacent, so sweeping a group equals its
  simultaneous update (independent strategies, Section 4.2; the groups
  are also what the decentralized game of Section 5 distributes).

A move flags every friend; fixed players are never swept, so their
flags are cleared after each round.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core import dynamics
from repro.core.global_table import _GlobalTableLoop
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
    """Global table restricted to valid strategies (pruned = ``+inf``).

    ``α·C + maxSC[:, None]``, then one ``np.subtract.at`` of the refunds
    ``(1 − α)·½·w`` in CSR order: the floats of a per-player build.
    """
    alpha = instance.alpha
    table = alpha * instance.cost.view()
    table += instance.max_social_cost[:, None]
    if instance.indices.size:
        np.subtract.at(
            table,
            (instance.edge_owner, assignment[instance.indices]),
            (1.0 - alpha) * 0.5 * instance.weights,
        )
    valid = np.zeros(table.shape, dtype=bool)
    if instance.n:
        lengths = [len(classes) for classes in plan.valid_classes]
        valid[
            np.repeat(np.arange(instance.n), lengths),
            np.concatenate(plan.valid_classes),
        ] = True
    table[~valid] = np.inf
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


class _CombinedLoop(_GlobalTableLoop):
    """RMGP_gt's rounds on the pruned table over the color groups."""

    def init(self, span) -> None:
        if self.plan is None:
            with self.rec.span("build_plan"):
                self.plan = build_elimination_plan(self.instance)
        self.fixed_mask = self.plan.fixed_class >= 0
        super().init(span)
        if span is not None:
            span.attrs.update(
                num_groups=len(self.groups), num_fixed=self.plan.num_fixed
            )

    def restore(self, state) -> None:
        if self.plan is None:
            self.plan = build_elimination_plan(self.instance)
        self.fixed_mask = self.plan.fixed_class >= 0
        super().restore(state)

    def initial_assignment(self) -> np.ndarray:
        assignment = super().initial_assignment()
        fixed = self.fixed_mask
        assignment[fixed] = self.plan.fixed_class[fixed]
        return assignment

    def make_sweep(self, state=None) -> List[int]:
        instance = self.instance
        if state is None:
            groups = ordered_groups(
                instance, self.coloring, super().make_sweep()
            )
            free = [[p for p in g if not self.fixed_mask[p]] for g in groups]
            self.groups = [group for group in free if group]
        else:
            self.groups = checked_groups(
                state["groups"], instance,
                count=instance.n - self.plan.num_fixed,
            )
        return [p for group in self.groups for p in group]

    def make_table(self) -> np.ndarray:
        return build_pruned_table(self.instance, self.assignment, self.plan)

    def state(self):
        return {
            "groups": [[int(p) for p in g] for g in self.groups],
            "table": self.table.copy(),
        }

    def step(self):
        counts = super().step()
        # A move flags every friend, fixed ones too; they are never swept.
        self.active.flags[self.fixed_mask] = False
        return counts

    def extra(self):
        return {
            "num_fixed": self.plan.num_fixed,
            "num_groups": len(self.groups),
            "strategies_remaining": self.plan.strategies_remaining(),
        }
