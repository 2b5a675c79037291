"""Spatial primitives: points, distances, and a uniform grid index.

LAGP queries need (i) user-to-event distances (the assignment cost),
(ii) nearest-event lookups (the ``closest`` initialization heuristic) and
(iii) area-of-interest filters ("only the users who recently checked-in
that area ... are relevant", Section 1).  A simple uniform grid gives
all three with predictable performance at the paper's scales.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

Point = Tuple[float, float]

EARTH_RADIUS_KM = 6371.0088


def euclidean(a: Point, b: Point) -> float:
    """Plain Euclidean distance (the paper's LAGP cost, Figure 1)."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def haversine_km(a: Point, b: Point) -> float:
    """Great-circle distance in kilometers for ``(lat, lon)`` degrees.

    Real check-in datasets (Gowalla, Foursquare) store geographic
    coordinates; this is the appropriate metric there.
    """
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def distance_matrix(
    users: Sequence[Point],
    events: Sequence[Point],
    metric: str = "euclidean",
) -> np.ndarray:
    """Dense ``|users| x |events|`` distance matrix.

    ``metric`` is ``"euclidean"`` (vectorized) or ``"haversine"``.
    This is the assignment-cost matrix of a LAGP query; the paper notes
    that for Foursquare with k=1024 this step alone involves billions of
    distance computations (Section 6.4).
    """
    if metric == "euclidean":
        if not users or not events:
            return np.zeros((len(users), len(events)))
        u = np.asarray(users, dtype=np.float64)
        e = np.asarray(events, dtype=np.float64)
        diff = u[:, None, :] - e[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))
    if metric == "haversine":
        matrix = np.empty((len(users), len(events)), dtype=np.float64)
        for i, user in enumerate(users):
            for j, event in enumerate(events):
                matrix[i, j] = haversine_km(user, event)
        return matrix
    raise ConfigurationError(f"unknown metric {metric!r}")


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ConfigurationError("rectangle has negative extent")

    def contains(self, point: Point) -> bool:
        """True when ``point`` lies inside (borders included)."""
        return (
            self.x_min <= point[0] <= self.x_max
            and self.y_min <= point[1] <= self.y_max
        )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min


#: Queries of one grid cell searched together.  Bounds the transient
#: ``(rows, kept + ring candidates)`` distance and order arrays to a
#: few MiB at the dataset generators' scales.
_ROW_BLOCK = 64

#: Relative margin that covers any disagreement between the vectorized
#: ``np.hypot`` distances and the ``math.hypot`` ones that define the
#: order (both are within a few ulp of the true distance).  Decisions
#: closer than this are settled with ``math.hypot``.
_TIE_MARGIN = 2.0 ** -40

_NO_POSITIONS = np.empty(0, dtype=np.intp)


def _margin(distance):
    """Tie margin around ``distance`` (floored for subnormal values)."""
    return (distance + sys.float_info.min) * _TIE_MARGIN


class GridIndex:
    """Uniform grid over 2-d points supporting range and k-NN queries."""

    def __init__(self, points: Dict, cell_size: float) -> None:
        """Index ``points`` (id -> (x, y)) with square cells of ``cell_size``."""
        if not (cell_size > 0 and math.isfinite(cell_size)):
            raise ConfigurationError("cell_size must be positive and finite")
        self._points = dict(points)
        self._cell = float(cell_size)
        # Positions into ``_ids`` stand for the (any hashable) ids.
        self._ids = list(self._points)
        self._xs = [float(self._points[pid][0]) for pid in self._ids]
        self._ys = [float(self._points[pid][1]) for pid in self._ids]
        self._x = np.array(self._xs, dtype=np.float64)
        self._y = np.array(self._ys, dtype=np.float64)
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for pos, (x, y) in enumerate(zip(self._xs, self._ys)):
            buckets.setdefault(self._key(x, y), []).append(pos)
        self._buckets = {
            key: np.array(members, dtype=np.intp)
            for key, members in buckets.items()
        }
        if buckets:
            bxs = [bx for bx, _ in buckets]
            bys = [by for _, by in buckets]
            self._bbox = (min(bxs), min(bys), max(bxs), max(bys))

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        fx, fy = x / self._cell, y / self._cell
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise ConfigurationError(
                f"point ({x!r}, {y!r}) is not finite in cells of {self._cell!r}"
            )
        return (int(math.floor(fx)), int(math.floor(fy)))

    def __len__(self) -> int:
        return len(self._points)

    def location(self, pid) -> Point:
        """Indexed position of ``pid``."""
        return self._points[pid]

    def range_query(self, rect: Rectangle) -> List:
        """Ids of all points inside ``rect``."""
        x0, y0 = self._key(rect.x_min, rect.y_min)
        x1, y1 = self._key(rect.x_max, rect.y_max)
        found = []
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                for pos in self._buckets.get((cx, cy), ()):
                    pid = self._ids[pos]
                    if rect.contains(self._points[pid]):
                        found.append(pid)
        return found

    def nearest(self, point: Point, count: int = 1) -> List:
        """The ``count`` indexed points closest to ``point`` (Euclidean)."""
        return self.nearest_many([point], count)[0]

    def nearest_many(
        self, points: Sequence[Point], count: int = 1
    ) -> List[List]:
        """The ``count`` indexed points closest to each of ``points``.

        One ring-by-ring search per grid cell of queries: ring ``r``
        holds the cells at Chebyshev distance ``r`` from the query's
        cell, scanned in ``(dx, dy)`` order.  A query stops at the last
        occupied ring, or once its ``count``-th best distance is within
        ``r * cell_size`` (a candidate at distance ``d`` rules out any
        cell farther than ``d`` away).  Neighbors come nearest first,
        ties in discovery order.  Coordinates are read as floats and
        distances are ``math.hypot`` values, so a list is exactly what
        a per-point search returns.
        """
        if count <= 0:
            raise ConfigurationError("count must be positive")
        queries = [(float(x), float(y)) for x, y in points]
        groups: Dict[Tuple[int, int], List[int]] = {}
        for row, (x, y) in enumerate(queries):
            groups.setdefault(self._key(x, y), []).append(row)
        found: List[List] = [[] for _ in queries]
        if not self._ids:
            return found
        count = min(count, len(self._ids))
        for cell, rows in groups.items():
            for start in range(0, len(rows), _ROW_BLOCK):
                block = rows[start : start + _ROW_BLOCK]
                for row, positions in self._search(
                    cell, [queries[r] for r in block], count
                ):
                    found[block[row]] = [self._ids[p] for p in positions]
        return found

    def _ring(self, cx: int, cy: int, ring: int) -> np.ndarray:
        """Positions in the cells ``ring`` steps from ``(cx, cy)``."""
        parts = []
        for dx in range(-ring, ring + 1):
            step = 1 if abs(dx) == ring else 2 * ring
            for dy in range(-ring, ring + 1, step):
                bucket = self._buckets.get((cx + dx, cy + dy))
                if bucket is not None:
                    parts.append(bucket)
        return np.concatenate(parts) if parts else _NO_POSITIONS

    def _search(
        self, cell: Tuple[int, int], queries: List[Point], count: int
    ):
        """Yield ``(row, positions)`` for the queries in grid ``cell``.

        A row keeps its candidates as discovery sequence numbers sorted
        stably by ``np.hypot`` distance and truncated to ``count * 4``,
        widened so no cut falls within the tie margin of the
        ``count``-th best.  Wherever the margin leaves an order or the
        stop rule in doubt, :meth:`_settle` decides with ``math.hypot``.
        """
        cx, cy = cell
        x0, y0, x1, y1 = self._bbox
        # The farthest occupied bucket sits on an edge of the occupied
        # bbox, and reaching its ring means every point was examined.
        last_ring = max(cx - x0, x1 - cx, cy - y0, y1 - cy)
        keep = count * 4
        rows = np.arange(len(queries))
        qx = np.array([x for x, _ in queries])[:, None]
        qy = np.array([y for _, y in queries])[:, None]
        dist = np.empty((len(queries), 0))
        seq = np.empty((len(queries), 0), dtype=np.intp)
        visited = _NO_POSITIONS
        for ring in range(last_ring + 1):
            found = self._ring(cx, cy, ring)
            if found.size:
                with np.errstate(over="ignore"):
                    fresh = np.hypot(qx - self._x[found], qy - self._y[found])
                fresh_seq = np.broadcast_to(
                    np.arange(visited.size, visited.size + found.size),
                    fresh.shape,
                )
                visited = np.concatenate([visited, found])
                dist = np.concatenate([dist, fresh], axis=1)
                seq = np.concatenate([seq, fresh_seq], axis=1)
                order = np.argsort(dist, axis=1, kind="stable")
                dist = np.take_along_axis(dist, order, axis=1)
                seq = np.take_along_axis(seq, order, axis=1)
                if dist.shape[1] > keep:
                    kth = dist[:, count - 1]
                    tied = dist <= (kth + _margin(kth))[:, None]
                    width = max(keep, int(tied.sum(axis=1).max()))
                    dist, seq = dist[:, :width], seq[:, :width]
            if visited.size < count:
                continue
            bound = ring * self._cell
            kth = dist[:, count - 1]
            if ring >= last_ring:
                stop = np.ones(rows.size, dtype=bool)
            else:
                stop = kth + _margin(kth) <= bound
            unsure = ~stop & (kth - _margin(kth) <= bound)
            # The np.hypot order of the first count + 1 is the exact one
            # when every gap between them exceeds the margin.
            head = dist[:, : count + 1]
            clear = np.all(
                np.diff(head, axis=1) > _margin(head[:, 1:]), axis=1
            )
            finished = []
            for i in np.flatnonzero(stop | unsure).tolist():
                if stop[i] and clear[i]:
                    positions = visited[seq[i, :count]].tolist()
                else:
                    positions, kth_exact = self._settle(
                        queries[rows[i]], dist[i], seq[i], visited, count
                    )
                    if not (stop[i] or kth_exact <= bound):
                        continue
                finished.append(i)
                yield int(rows[i]), positions
            if finished:
                alive = np.ones(rows.size, dtype=bool)
                alive[finished] = False
                rows, qx, qy = rows[alive], qx[alive], qy[alive]
                dist, seq = dist[alive], seq[alive]
                if not rows.size:
                    return

    def _settle(
        self,
        query: Point,
        dist: np.ndarray,
        seq: np.ndarray,
        visited: np.ndarray,
        count: int,
    ) -> Tuple[List[int], float]:
        """One row's exact ``(positions, count-th distance)``.

        Re-ranks the candidates within the tie margin of the row's
        ``count``-th best by ``math.hypot`` distance, then discovery
        order; every other candidate is farther by more than any
        ``np.hypot`` error.
        """
        kth = dist[count - 1]
        band = seq[: int(np.count_nonzero(dist <= kth + _margin(kth)))]
        qx, qy = query
        ranked = sorted(
            (math.hypot(qx - self._xs[p], qy - self._ys[p]), s, p)
            for s, p in zip(band.tolist(), visited[band].tolist())
        )[:count]
        return [p for _, _, p in ranked], ranked[-1][0]
