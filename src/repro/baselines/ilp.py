"""Exact RMGP/UML optimum by branch and bound (tiny instances only).

The paper treats the LP value as a stand-in for OPT; for tests we want
the *true* social optimum on small graphs so that PoS ≤ 2 and the PoA
bound of Theorem 2 can be asserted exactly.  This solver enumerates
assignments depth-first with an admissible lower bound and is practical
up to roughly ``k^n ~ 10^7`` (e.g. 12 nodes, 4 classes).
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.errors import ConfigurationError

#: Refuse instances whose search space exceeds this many leaves.
MAX_SEARCH_LEAVES = 50_000_000


def solve_exact(
    instance: RMGPInstance,
    max_leaves: int = MAX_SEARCH_LEAVES,
) -> PartitionResult:
    """Find the global minimum of Equation 1 by branch and bound.

    Raises :class:`~repro.errors.ConfigurationError` when ``k ** n``
    exceeds ``max_leaves`` — use the LP lower bound instead at scale.
    """
    n, k = instance.n, instance.k
    if n and k ** n > max_leaves:
        raise ConfigurationError(
            f"exact search space k^n = {k}^{n} exceeds {max_leaves} leaves"
        )
    start = time.perf_counter()

    costs = instance.cost.dense()
    alpha = instance.alpha
    beta = 1.0 - alpha
    min_cost_per_player = costs.min(axis=1) if n else np.zeros(0)

    # Branch on players in decreasing-degree order: high-degree players
    # constrain the most edges, tightening bounds early.
    degrees = instance.degrees()
    order: List[int] = sorted(range(n), key=lambda v: (-degrees[v], v))
    position = {player: i for i, player in enumerate(order)}

    # For each player, the already-placed neighbors (by branch order).
    indptr = instance.indptr.tolist()
    placed_neighbors: List[List[tuple]] = []
    for player in order:
        row = slice(indptr[player], indptr[player + 1])
        earlier = [
            (int(nbr), float(w))
            for nbr, w in zip(instance.indices[row], instance.weights[row])
            if position[int(nbr)] < position[player]
        ]
        placed_neighbors.append(earlier)

    # Admissible remaining bound: each unplaced player pays at least his
    # cheapest assignment; social terms can be zero.
    suffix_bound = np.zeros(n + 1)
    for i in range(n - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + alpha * min_cost_per_player[order[i]]

    best_value = float("inf")
    best_assignment = np.zeros(n, dtype=np.int64)
    current = np.full(n, -1, dtype=np.int64)
    nodes_explored = 0

    def descend(depth: int, value: float) -> None:
        nonlocal best_value, nodes_explored
        nodes_explored += 1
        if value + suffix_bound[depth] >= best_value - 1e-15:
            return
        if depth == n:
            best_value = value
            best_assignment[:] = current
            return
        player = order[depth]
        # Try classes in increasing marginal-cost order for fast pruning.
        marginals = np.empty(k)
        for p in range(k):
            social = sum(
                w for nbr, w in placed_neighbors[depth] if current[nbr] != p
            )
            marginals[p] = alpha * costs[player, p] + beta * social
        for p in np.argsort(marginals, kind="stable"):
            current[player] = int(p)
            descend(depth + 1, value + float(marginals[p]))
        current[player] = -1

    if n:
        descend(0, 0.0)
    else:
        best_value = 0.0

    elapsed = time.perf_counter() - start
    return make_result(
        solver="OPT",
        instance=instance,
        assignment=best_assignment,
        rounds=[RoundStats(round_index=0, deviations=0, seconds=elapsed)],
        converged=True,
        wall_seconds=elapsed,
        extra={"nodes_explored": nodes_explored, "optimal_value": best_value},
    )


def optimal_value(instance: RMGPInstance, max_leaves: int = MAX_SEARCH_LEAVES) -> float:
    """Convenience wrapper returning only the optimal Equation 1 value."""
    return solve_exact(instance, max_leaves=max_leaves).value.total
