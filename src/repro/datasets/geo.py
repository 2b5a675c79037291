"""Spatially clustered user populations and homophilous friendships.

Building blocks shared by the Gowalla-like and Foursquare-like dataset
generators: metro-cluster user placement, check-in jitter, and a
spatial-preferential friendship model producing geographic homophily
with a heavy-tailed degree distribution — the two structural features of
real check-in networks that matter to RMGP (distance-correlated costs
and hub users for the degree-ordering heuristic).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate
from typing import Dict, List, Sequence

from repro.apps.spatial import Point, PointIndex
from repro.errors import DataError
from repro.graph.social_graph import SocialGraph


def metro_positions(
    num_users: int,
    centers: Sequence[Point],
    weights: Sequence[float],
    spread_km: float,
    rng: random.Random,
) -> List[Point]:
    """Sample user home positions from a mixture of Gaussian metros."""
    if len(centers) != len(weights) or not centers:
        raise DataError("need matching, non-empty centers and weights")
    if not all(0.0 <= w < math.inf for w in weights):
        raise DataError("metro weights must be finite and non-negative")
    total = sum(weights)
    if total <= 0:
        raise DataError("metro weights must sum to a positive value")
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    # The rounded sum may end just below 1.0; a draw above it takes the
    # last metro, as the scan of the exact sum would.
    last = len(cumulative) - 1
    positions: List[Point] = []
    for _ in range(num_users):
        which = min(bisect_left(cumulative, rng.random()), last)
        cx, cy = centers[which]
        positions.append(
            (rng.gauss(cx, spread_km), rng.gauss(cy, spread_km))
        )
    return positions


def jittered_checkins(
    positions: Sequence[Point], jitter_km: float, rng: random.Random
) -> Dict[int, Point]:
    """Last check-in per user: home position plus Gaussian jitter."""
    return {
        user: (rng.gauss(x, jitter_km), rng.gauss(y, jitter_km))
        for user, (x, y) in enumerate(positions)
    }


def homophilous_friendships(
    positions: Sequence[Point],
    target_avg_degree: float,
    rng: random.Random,
    local_fraction: float = 0.9,
    candidate_pool: int = 40,
    hub_exponent: float = 1.6,
) -> SocialGraph:
    """Friendship graph with geographic homophily and heavy-tailed hubs.

    Each user draws a Pareto-ish number of friendship slots (mean tuned
    to ``target_avg_degree / 2`` since each edge fills two slots).  A
    slot connects to one of the user's ``candidate_pool`` nearest
    neighbors with probability ``local_fraction`` (weighted towards
    already-popular users), otherwise to a uniformly random user —
    reproducing the short-edges-plus-shortcuts structure of Gowalla.
    """
    n = len(positions)
    if n < 2:
        return SocialGraph(range(n))
    if target_avg_degree <= 0 or target_avg_degree >= n:
        raise DataError("target_avg_degree must be in (0, n)")

    mean_slots = target_avg_degree / 2.0
    index = PointIndex(dict(enumerate(positions)))
    degree_bonus = [1.0] * n
    # The index is static and draws nothing from ``rng``, so every pool
    # can be answered up front without moving the random stream.
    pools = index.nearest_many(positions, candidate_pool + 1)
    # Friendships so far as packed keys ``min * n + max``, and as the
    # edge list in acceptance order that builds the graph at the end.
    linked = set()
    edges = []

    for user in range(n):
        slots = _pareto_slots(mean_slots, hub_exponent, rng)
        pool = pools[user]
        # A user is the head of its own pool unless a duplicate
        # position inserted earlier ties it at distance 0.
        near = pool[1:] if pool[0] == user else [c for c in pool if c != user]
        # Prefix sums of the pool's popularity weights as the user's
        # loop starts, and the pool slots it has linked since, each of
        # which added 1 to its own weight (see ``_pick_slot``).
        base = list(accumulate(map(degree_bonus.__getitem__, near)))
        taken: List[int] = []
        for _ in range(slots):
            # Retry collisions a few times so duplicate picks do not
            # silently erode the target average degree.
            for _attempt in range(4):
                if near and rng.random() < local_fraction:
                    slot = _pick_slot(base, taken, rng)
                    friend = near[slot]
                else:
                    friend = rng.randrange(n)
                    slot = near.index(friend) if friend in near else None
                if friend == user:
                    continue
                key = user * n + friend if user < friend else friend * n + user
                if key not in linked:
                    linked.add(key)
                    edges.append((user, friend))
                    degree_bonus[user] += 1.0
                    degree_bonus[friend] += 1.0
                    if slot is not None:
                        insort(taken, slot)
                    break
    return SocialGraph.from_edges(edges, nodes=range(n))


def _pareto_slots(mean: float, exponent: float, rng: random.Random) -> int:
    """Heavy-tailed slot count with the requested mean.

    A Pareto(α) has mean ``x_m · α/(α−1)``; we solve for ``x_m`` and
    round stochastically so the expectation is preserved.
    """
    if exponent <= 1.0:
        raise DataError("hub_exponent must exceed 1")
    x_m = mean * (exponent - 1.0) / exponent
    value = x_m * (1.0 - rng.random()) ** (-1.0 / exponent)
    floor = int(value)
    return floor + (1 if rng.random() < value - floor else 0)


def _pick_slot(base: List[float], taken: List[int], rng: random.Random) -> int:
    """Pool slot drawn proportionally to its weight.

    The slot weights' prefix sums are ``prefix[k] = base[k] + #(taken
    <= k)``: ``base`` holds the sums as the user's loop started, and
    ``taken`` the slots it has linked since, sorted, one entry per +1.
    The pick is the first slot whose prefix sum reaches a uniform draw
    over the total, as a linear scan of the running sum finds it.  No
    slot before ``bisect_left(base, draw - len(taken))`` can reach the
    draw, so the scan starts there.  The weights are integer-valued
    floats below 2^53, so every sum and comparison is exact and the
    pick is the scan's.
    """
    linked = len(taken)
    draw = rng.random() * (base[-1] + linked)
    last = len(base) - 1
    slot = bisect_left(base, draw - linked)
    if slot >= last or not linked:
        return min(slot, last)
    passed = bisect_right(taken, slot)
    while base[slot] + passed < draw:
        slot += 1
        if slot == last:
            break
        while passed < linked and taken[passed] == slot:
            passed += 1
    return slot
