"""Spatial primitives: points, distances, and a point index.

LAGP queries need (i) user-to-event distances (the assignment cost),
(ii) nearest-neighbor lookups (the dataset generators' friendship
candidate pools) and (iii) area-of-interest filters ("only the users
who recently checked-in that area ... are relevant", Section 1).  At
the paper's scales one vectorized pass over the coordinate arrays
answers both queries with time independent of the point layout.
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


#: Distance cells per query block: ``_BLOCK_CELLS // len(index)`` query
#: rows at a time keep the transient squared-distance block near 2^16
#: entries (~0.5 MiB per array) whatever the index size.
_BLOCK_CELLS = 1 << 16

#: Relative margin that covers any disagreement between the vectorized
#: distances and the ``math.hypot`` ones that define the order (both are
#: within a few ulp of the true distance).  Decisions closer than this
#: are settled with ``math.hypot``.
_TIE_MARGIN = 2.0 ** -40


#: The tie margin on squared distances: a relative gap of ``2m`` between
#: squares is a gap of about ``m`` between their square roots.
_SQUARE_MARGIN = 2.0 * _TIE_MARGIN


def _margin(distance):
    """Tie margin around ``distance`` (floored for subnormal values)."""
    return (distance + sys.float_info.min) * _TIE_MARGIN


def _coordinates(points) -> Tuple[np.ndarray, np.ndarray]:
    """``(xs, ys)`` float arrays of ``points``; non-finite ones fail closed."""
    pairs = [(float(x), float(y)) for x, y in points]
    xs = np.array([x for x, _ in pairs], dtype=np.float64)
    ys = np.array([y for _, y in pairs], dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
    if bad.size:
        raise ConfigurationError(f"point {pairs[bad[0]]!r} is not finite")
    return xs, ys


class PointIndex:
    """2-d points answering exact range and k-NN queries by numpy passes."""

    def __init__(self, points: Dict) -> None:
        """Index ``points`` (any hashable id -> (x, y))."""
        self._points = dict(points)
        # Positions into ``_ids`` stand for the ids.
        self._ids = np.fromiter(
            self._points, dtype=object, count=len(self._points)
        )
        self._x, self._y = _coordinates(self._points.values())

    def __len__(self) -> int:
        return len(self._points)

    def location(self, pid) -> Point:
        """Indexed position of ``pid``."""
        return self._points[pid]

    def range_query(self, rect: Rectangle) -> List:
        """Ids of all points inside ``rect``, in insertion order."""
        inside = (
            (self._x >= rect.x_min) & (self._x <= rect.x_max)
            & (self._y >= rect.y_min) & (self._y <= rect.y_max)
        )
        return self._ids[inside].tolist()

    def nearest(self, point: Point, count: int = 1) -> List:
        """The ``count`` indexed points closest to ``point`` (Euclidean)."""
        return self.nearest_many([point], count)[0]

    def nearest_many(
        self, points: Sequence[Point], count: int = 1
    ) -> List[List]:
        """The ``count`` indexed points closest to each of ``points``.

        Each list is the head of the indexed points sorted by
        ``(math.hypot distance, insertion position)``: nearest first,
        exact ties in insertion order.  Query rows are answered in
        blocks: squared distances select each row's ``count + 1``
        nearest candidates and order them, and a row whose order the
        tie margin leaves in doubt is decided by :meth:`_exact` (see
        DESIGN.md §2.5.1).
        """
        if count <= 0:
            raise ConfigurationError("count must be positive")
        qx, qy = _coordinates(points)
        size = self._ids.size
        if not size:
            return [[] for _ in range(qx.size)]
        count = min(count, size)
        width = min(count + 1, size)
        step = max(1, _BLOCK_CELLS // size)
        found: List[List] = []
        for start in range(0, qx.size, step):
            bx = qx[start : start + step, None]
            by = qy[start : start + step, None]
            with np.errstate(over="ignore"):
                square = bx - self._x
                square *= square
                dy = by - self._y
                dy *= dy
                square += dy
            del dy
            picks = np.argpartition(square, width - 1, axis=1)[:, :width]
            square = np.take_along_axis(square, picks, axis=1)
            order = np.argsort(square, axis=1)
            picks = np.take_along_axis(picks, order, axis=1)
            square = np.take_along_axis(square, order, axis=1)
            # Squares of normal magnitude carry a few ulp of relative
            # error; an overflowed or a nonzero underflowed one does
            # not, so such a row takes the exact path.  A zero square
            # is below every normal one in any exact order too.
            with np.errstate(invalid="ignore"):
                gaps = np.diff(square, axis=1) > square[:, 1:] * _SQUARE_MARGIN
            clear = (
                (square[:, -1] < math.inf)
                & ~np.any((square > 0.0) & (square < sys.float_info.min), axis=1)
                & np.all(gaps, axis=1)
            )
            heads = self._ids[picks[:, :count]].tolist()
            for row in np.flatnonzero(~clear).tolist():
                exact = self._exact(bx.item(row), by.item(row), count)
                heads[row] = self._ids[exact].tolist()
            found.extend(heads)
        return found

    def _exact(self, qx: float, qy: float, count: int) -> List[int]:
        """One query's ``count`` nearest positions by ``math.hypot``.

        Re-ranks every point within the tie margin of the ``count``-th
        best ``np.hypot`` distance by ``(math.hypot distance,
        position)``; every other point is farther by more than any
        ``np.hypot`` error.
        """
        with np.errstate(over="ignore"):
            dist = np.hypot(qx - self._x, qy - self._y)
        kth = np.partition(dist, count - 1)[count - 1]
        band = np.flatnonzero(dist <= kth + _margin(kth))
        ranked = sorted(
            (math.hypot(qx - x, qy - y), p)
            for p, x, y in zip(
                band.tolist(), self._x[band].tolist(), self._y[band].tolist()
            )
        )
        return [p for _, p in ranked[:count]]
