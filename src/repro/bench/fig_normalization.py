"""Figure 9: the effect of normalization (Section 6.2).

Three panels at α = 0.5 over Gowalla, sweeping k: (a) raw RMGP — the
assignment (distance) cost dominates the social cost for every k because
distances are ~100 km while edge weights are 1; (b) optimistic RMGP_N and
(c) pessimistic RMGP_N — balanced components, the pessimistic variant
most evenly.  Also reported: the number of users re-assigned away from
their closest event (1,434 of 12,748 raw vs 3,459 optimistic / 6,583
pessimistic at k = 8 in the paper).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.api import partition
from repro.bench.harness import Table
from repro.bench.workloads import event_sweep, gowalla_dataset, instance_for
from repro.core.normalization import estimate_cn, normalize

VARIANTS = ("raw", "optimistic", "pessimistic")


def run_fig9(
    event_counts: Optional[List[int]] = None,
    seed: int = 0,
    alpha: float = 0.5,
) -> Table:
    """Reproduce Figure 9's three panels as one table.

    For each k and variant: the assignment and social components of the
    final solution (in the variant's own objective units, as in the
    paper — "the overall costs in the three diagrams are not directly
    comparable"), the C_N used, and the number of users moved away from
    their closest event.
    """
    event_counts = event_counts or event_sweep(full=[8, 16, 32, 64, 128])
    dataset = gowalla_dataset(seed=seed)
    table = Table(
        title=f"Figure 9: normalization effect (alpha={alpha})",
        columns=[
            "k",
            "variant",
            "cn",
            "assignment_cost",
            "social_cost",
            "balance_ratio",
            "users_moved",
        ],
    )
    for k in event_counts:
        base = instance_for(dataset, num_events=k, alpha=alpha, seed=seed)
        closest = np.array(
            [int(base.cost.row(v).argmin()) for v in range(base.n)]
        )
        for variant in VARIANTS:
            if variant == "raw":
                instance, cn = base, 1.0
            else:
                instance, estimate = normalize(base, variant)
                cn = estimate.cn
            result = partition(
                instance, solver="b", init="closest", order="given", seed=seed
            )
            value = result.value
            # Components weighted as in Equation 1/7 at this alpha.
            assignment_component = alpha * value.assignment_cost
            social_component = (1 - alpha) * value.social_cost
            moved = int((result.assignment != closest).sum())
            table.add_row(
                k=k,
                variant=variant,
                cn=cn,
                assignment_cost=assignment_component,
                social_cost=social_component,
                balance_ratio=(
                    assignment_component / social_component
                    if social_component > 0
                    else float("inf")
                ),
                users_moved=moved,
            )
    table.notes.append(
        "expected: raw balance_ratio >> 1 (distance dominates); "
        "pessimistic ~ 1; users_moved raw < optimistic < pessimistic"
    )
    return table


def run_fig9_cn_values(
    event_counts: Optional[List[int]] = None, seed: int = 0
) -> Table:
    """The C_N annotations printed on top of Figure 9(b)/(c) columns."""
    event_counts = event_counts or event_sweep(full=[8, 16, 32, 64, 128])
    dataset = gowalla_dataset(seed=seed)
    table = Table(
        title="Figure 9 annotations: estimated C_N per k",
        columns=["k", "cn_optimistic", "cn_pessimistic"],
    )
    for k in event_counts:
        instance = instance_for(dataset, num_events=k, seed=seed)
        table.add_row(
            k=k,
            cn_optimistic=estimate_cn(instance, "optimistic").cn,
            cn_pessimistic=estimate_cn(instance, "pessimistic").cn,
        )
    return table
