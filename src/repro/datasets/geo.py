"""Spatially clustered user populations and homophilous friendships.

Building blocks shared by the Gowalla-like and Foursquare-like dataset
generators: metro-cluster user placement, check-in jitter, and a
spatial-preferential friendship model producing geographic homophily
with a heavy-tailed degree distribution — the two structural features of
real check-in networks that matter to RMGP (distance-correlated costs
and hub users for the degree-ordering heuristic).
"""

from __future__ import annotations

import random
from bisect import bisect_left
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
    total = sum(weights)
    if total <= 0:
        raise DataError("metro weights must sum to a positive value")
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    positions: List[Point] = []
    for _ in range(num_users):
        draw = rng.random()
        which = next(i for i, c in enumerate(cumulative) if draw <= c)
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
    graph = SocialGraph(range(n))
    index = PointIndex(dict(enumerate(positions)))
    degree_bonus = [1.0] * n
    # The index is static and draws nothing from ``rng``, so every pool
    # can be answered up front without moving the random stream.
    pools = index.nearest_many(positions, candidate_pool + 1)

    for user in range(n):
        slots = _pareto_slots(mean_slots, hub_exponent, rng)
        near = [c for c in pools[user] if c != user]
        # Prefix sums of the pool's popularity weights, patched as the
        # weights grow (see ``_pick_slot``).
        prefix = list(accumulate([degree_bonus[c] for c in near]))
        for _ in range(slots):
            # Retry collisions a few times so duplicate picks do not
            # silently erode the target average degree.
            for _attempt in range(4):
                if near and rng.random() < local_fraction:
                    slot = _pick_slot(prefix, rng)
                    friend = near[slot]
                else:
                    friend = rng.randrange(n)
                    slot = near.index(friend) if friend in near else None
                if friend != user and not graph.has_edge(user, friend):
                    graph.add_edge(user, friend, 1.0)
                    degree_bonus[user] += 1.0
                    degree_bonus[friend] += 1.0
                    if slot is not None:
                        for k in range(slot, len(prefix)):
                            prefix[k] += 1.0
                    break
    return graph


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


def _pick_slot(prefix: List[float], rng: random.Random) -> int:
    """Pool slot drawn proportionally to its weight, given weight prefix sums.

    The first slot whose prefix sum reaches a uniform draw over the
    total, as a linear scan of the running sum finds it.  The weights
    are integer-valued floats below 2^53, so every prefix sum is exact
    in any summation order and the pick is the scan's.
    """
    draw = rng.random() * prefix[-1]
    return min(bisect_left(prefix, draw), len(prefix) - 1)
