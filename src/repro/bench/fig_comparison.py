"""Figures 7 and 8: RMGP_b versus MH, UML_lp and UML_gr.

Figure 7 sweeps the class count ``k`` at |V| = 200; Figure 8 sweeps the
node count at k = 7.  Both report (a) execution time and (b) solution
quality (the Equation 1 objective).  Expected shape (paper §6.1):
RMGP_b orders of magnitude faster than both UML methods and slightly
faster than MH; quality UML_lp ≤ RMGP_b << UML_gr, MH.
"""

from __future__ import annotations

from typing import List, Optional

from repro.api import partition
from repro.baselines.metis_hungarian import solve_metis_hungarian
from repro.baselines.uml_greedy import solve_uml_greedy
from repro.baselines.uml_lp import solve_uml_lp
from repro.bench.harness import Table, full_scale, time_call
from repro.bench.workloads import instance_for, small_uml_dataset
from repro.core.normalization import normalize

#: Paper's Figure 7 x-axis.
FIG7_EVENT_COUNTS = [3, 5, 7, 9]
FIG7_NUM_USERS = 200

#: Paper's Figure 8 x-axis.
FIG8_NODE_COUNTS = [100, 150, 200, 250, 300]
FIG8_NUM_EVENTS = 7

METHODS = ("RMGP_b", "MH", "UML_lp", "UML_gr")


def _solve(method: str, instance, seed: int):
    if method == "RMGP_b":
        # Unoptimized baseline: random init, random order (Section 6.1).
        return partition(
            instance, solver="b", init="random", order="random", seed=seed
        )
    if method == "MH":
        return solve_metis_hungarian(instance, seed=seed)
    if method == "UML_lp":
        return solve_uml_lp(instance, seed=seed)
    if method == "UML_gr":
        return solve_uml_greedy(instance)
    raise ValueError(method)


def run_fig7(
    event_counts: Optional[List[int]] = None,
    num_users: int = FIG7_NUM_USERS,
    seed: int = 0,
    repeats: int = 1,
) -> Table:
    """Reproduce Figure 7: time (ms) and quality versus ``k``."""
    event_counts = event_counts or (
        FIG7_EVENT_COUNTS if full_scale() else [3, 5, 7]
    )
    table = Table(
        title=f"Figure 7: methods vs k (|V|={num_users}, alpha=0.5)",
        columns=["k"]
        + [f"{m}_ms" for m in METHODS]
        + [f"{m}_cost" for m in METHODS],
    )
    for k in event_counts:
        dataset = small_uml_dataset(num_users, k, seed=seed)
        # Normalize so the social term matters to *all* methods equally;
        # on raw ~100km distances every method degenerates to
        # closest-event and the quality comparison is vacuous.
        instance, _ = normalize(instance_for(dataset, alpha=0.5), "pessimistic")
        row = {"k": k}
        for method in METHODS:
            measured = time_call(
                lambda m=method: _solve(m, instance, seed), repeats=repeats
            )
            row[f"{method}_ms"] = measured.median * 1e3
            row[f"{method}_cost"] = measured.result.value.total
        table.add_row(**row)
    table.notes.append(
        "expected: RMGP_b ~3 orders faster than UML_{lp,gr}; "
        "quality UML_lp <= RMGP_b << UML_gr, MH"
    )
    return table


def run_fig8(
    node_counts: Optional[List[int]] = None,
    num_events: int = FIG8_NUM_EVENTS,
    seed: int = 0,
    repeats: int = 1,
) -> Table:
    """Reproduce Figure 8: time (ms) and quality versus |V|."""
    node_counts = node_counts or (
        FIG8_NODE_COUNTS if full_scale() else [100, 150, 200]
    )
    table = Table(
        title=f"Figure 8: methods vs |V| (k={num_events}, alpha=0.5)",
        columns=["num_nodes"]
        + [f"{m}_ms" for m in METHODS]
        + [f"{m}_cost" for m in METHODS],
    )
    for num_nodes in node_counts:
        dataset = small_uml_dataset(num_nodes, num_events, seed=seed)
        instance, _ = normalize(instance_for(dataset, alpha=0.5), "pessimistic")
        row = {"num_nodes": num_nodes}
        for method in METHODS:
            measured = time_call(
                lambda m=method: _solve(m, instance, seed), repeats=repeats
            )
            row[f"{method}_ms"] = measured.median * 1e3
            row[f"{method}_cost"] = measured.result.value.total
        table.add_row(**row)
    table.notes.append("quality cost grows with |V| (more users to assign)")
    return table
