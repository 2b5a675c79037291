"""UML_gr — greedy UML via per-class graph transformations and min-cuts.

Stands in for the Bracht et al. greedy algorithm the paper benchmarks
(Section 2.1): avoid linear programming, accept a much looser
approximation, and rely on "extensive graph transformations; i.e., for
each class it generates a new graph that connects the class to all
nodes".

Concretely this is the classic *isolation heuristic* specialized to
uniform metric labeling.  Classes are processed once, in decreasing order
of total attraction.  For each class ``p`` a two-terminal network is
built over the still-unlabeled users:

* ``source -> v`` with capacity ``α·min_{q≠p} c(v, q)`` — the assignment
  cost v pays if he *rejects* ``p``;
* ``v -> sink`` with capacity ``α·c(v, p)`` — the cost of accepting it;
* undirected ``u - v`` with capacity ``(1−α)·w(u, v)`` — the social price
  of separating friends.

The minimum s-t cut is the optimal binary "take p / keep the cheapest
alternative" labeling; the source side takes ``p`` and leaves the game.
One pass over the ``k`` classes labels everyone (the last class absorbs
the remainder).  Like the original, this is fast but clearly worse than
the LP — the Figure 7(b)/8(b) ordering.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.baselines.maxflow import FlowNetwork
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult, RoundStats, make_result


def solve_uml_greedy(instance: RMGPInstance) -> PartitionResult:
    """Run UML_gr on ``instance``; deterministic (no seeds involved)."""
    start = time.perf_counter()
    n, k = instance.n, instance.k
    costs = instance.cost.dense()

    # Process classes by decreasing attraction: classes many users find
    # cheap get first pick, mirroring the greedy's fixed class sweep.
    if n:
        order = list(np.argsort(costs.sum(axis=0)))
    else:
        order = list(range(k))

    assignment = np.full(n, -1, dtype=np.int64)
    unlabeled = list(range(n))
    cuts_solved = 0

    for position, klass in enumerate(order):
        if not unlabeled:
            break
        if position == k - 1:
            # Last class absorbs everyone still unlabeled.
            for player in unlabeled:
                assignment[player] = klass
            unlabeled = []
            break
        taken = _isolate_class(instance, costs, unlabeled, int(klass))
        cuts_solved += 1
        for player in taken:
            assignment[player] = klass
        if taken:
            taken_set = set(taken)
            unlabeled = [p for p in unlabeled if p not in taken_set]

    elapsed = time.perf_counter() - start
    return make_result(
        solver="UML_gr",
        instance=instance,
        assignment=assignment,
        rounds=[RoundStats(round_index=0, deviations=0, seconds=elapsed)],
        converged=True,
        wall_seconds=elapsed,
        extra={"cuts_solved": cuts_solved, "class_order": [int(c) for c in order]},
    )


def _isolate_class(
    instance: RMGPInstance,
    costs: np.ndarray,
    unlabeled: List[int],
    klass: int,
) -> List[int]:
    """Min-cut binary subproblem: which unlabeled users take ``klass``.

    Returns the players on the source side of the minimum cut — those
    for whom accepting ``klass`` is jointly cheaper once social ties are
    accounted for.
    """
    alpha = instance.alpha
    local_of = {player: i for i, player in enumerate(unlabeled)}
    num_local = len(unlabeled)
    network = FlowNetwork(num_local + 2)
    source, sink = num_local, num_local + 1

    k = instance.k
    for player in unlabeled:
        local = local_of[player]
        row = costs[player]
        # Cheapest alternative among the other classes.
        if k > 1:
            alternative = float(np.delete(row, klass).min())
        else:
            alternative = 0.0
        network.add_edge(source, local, alpha * alternative)
        network.add_edge(local, sink, alpha * row[klass])

    indptr = instance.indptr.tolist()
    for i, player in enumerate(unlabeled):
        row = slice(indptr[player], indptr[player + 1])
        for neighbor, weight in zip(
            instance.indices[row], instance.weights[row]
        ):
            other = local_of.get(int(neighbor))
            if other is not None and other > i:
                network.add_undirected_edge(i, other, (1.0 - alpha) * weight)

    _, source_side = network.min_cut_source_side(source, sink)
    return [player for player in unlabeled if local_of[player] in source_side]
