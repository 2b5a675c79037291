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
from typing import Dict, List, Sequence

from repro.apps.spatial import GridIndex, Point
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
    index = GridIndex(
        {i: p for i, p in enumerate(positions)},
        cell_size=_typical_spacing(positions) * 4.0,
    )
    degree_bonus = [1.0] * n
    # The index is static and draws nothing from ``rng``, so every pool
    # can be answered up front without moving the random stream.
    pools = index.nearest_many(positions, candidate_pool + 1)

    for user in range(n):
        slots = _pareto_slots(mean_slots, hub_exponent, rng)
        near = [c for c in pools[user] if c != user]
        for _ in range(slots):
            # Retry collisions a few times so duplicate picks do not
            # silently erode the target average degree.
            for _attempt in range(4):
                if near and rng.random() < local_fraction:
                    friend = _weighted_choice(near, degree_bonus, rng)
                else:
                    friend = rng.randrange(n)
                if friend != user and not graph.has_edge(user, friend):
                    graph.add_edge(user, friend, 1.0)
                    degree_bonus[user] += 1.0
                    degree_bonus[friend] += 1.0
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


def _weighted_choice(
    candidates: Sequence[int], weights: List[float], rng: random.Random
) -> int:
    """Pick a candidate proportionally to its popularity weight."""
    total = sum(weights[c] for c in candidates)
    draw = rng.random() * total
    acc = 0.0
    for candidate in candidates:
        acc += weights[candidate]
        if draw <= acc:
            return candidate
    return candidates[-1]


def _typical_spacing(positions: Sequence[Point]) -> float:
    """Rough nearest-neighbor spacing for grid sizing."""
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    if extent <= 0:
        return 1.0
    return max(extent / math.sqrt(len(positions)), extent * 1e-9)
