"""Unit tests for spatial primitives and the grid index."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    GridIndex,
    Rectangle,
    distance_matrix,
    euclidean,
    haversine_km,
)
from repro.errors import ConfigurationError


class TestDistances:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)
        assert euclidean((1, 1), (1, 1)) == 0.0

    def test_haversine_equator_degree(self):
        # One degree of longitude at the equator is ~111.2 km.
        assert haversine_km((0, 0), (0, 1)) == pytest.approx(111.2, rel=0.01)

    def test_haversine_symmetry(self):
        a, b = (40.7, -74.0), (34.05, -118.24)  # NYC <-> LA
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))
        assert haversine_km(a, b) == pytest.approx(3936, rel=0.02)

    def test_distance_matrix_euclidean(self):
        users = [(0.0, 0.0), (1.0, 0.0)]
        events = [(0.0, 0.0), (0.0, 2.0)]
        matrix = distance_matrix(users, events)
        np.testing.assert_allclose(
            matrix, [[0.0, 2.0], [1.0, math.sqrt(5.0)]]
        )

    def test_distance_matrix_haversine(self):
        matrix = distance_matrix([(0, 0)], [(0, 1)], metric="haversine")
        assert matrix[0, 0] == pytest.approx(111.2, rel=0.01)

    def test_distance_matrix_empty(self):
        assert distance_matrix([], [(0, 0)]).shape == (0, 1)
        assert distance_matrix([(0, 0)], []).shape == (1, 0)

    def test_unknown_metric(self):
        with pytest.raises(ConfigurationError):
            distance_matrix([(0, 0)], [(1, 1)], metric="manhattan")


class TestRectangle:
    def test_contains(self):
        rect = Rectangle(0, 0, 2, 3)
        assert rect.contains((1, 1))
        assert rect.contains((0, 0))  # border included
        assert rect.contains((2, 3))
        assert not rect.contains((2.1, 1))
        assert not rect.contains((1, -0.1))

    def test_extent(self):
        rect = Rectangle(-1, -2, 3, 4)
        assert rect.width == 4
        assert rect.height == 6

    def test_rejects_negative_extent(self):
        with pytest.raises(ConfigurationError):
            Rectangle(1, 0, 0, 1)


class TestGridIndex:
    def test_rejects_bad_cell(self):
        with pytest.raises(ConfigurationError):
            GridIndex({}, 0.0)

    @pytest.mark.parametrize("cell", [math.nan, math.inf])
    def test_rejects_non_finite_cell(self, cell):
        with pytest.raises(ConfigurationError):
            GridIndex({}, cell)

    def test_range_query_matches_brute_force(self):
        rng = random.Random(0)
        points = {i: (rng.uniform(0, 10), rng.uniform(0, 10)) for i in range(200)}
        index = GridIndex(points, cell_size=1.3)
        rect = Rectangle(2.0, 3.0, 6.5, 7.25)
        expected = {pid for pid, p in points.items() if rect.contains(p)}
        assert set(index.range_query(rect)) == expected

    def test_nearest_matches_brute_force(self):
        rng = random.Random(1)
        points = {i: (rng.uniform(0, 5), rng.uniform(0, 5)) for i in range(100)}
        index = GridIndex(points, cell_size=0.8)
        for _ in range(10):
            query = (rng.uniform(0, 5), rng.uniform(0, 5))
            found = index.nearest(query, count=3)
            brute = sorted(points, key=lambda pid: euclidean(query, points[pid]))
            found_d = [euclidean(query, points[p]) for p in found]
            brute_d = [euclidean(query, points[p]) for p in brute[:3]]
            assert found_d == pytest.approx(brute_d)

    def test_nearest_count_clamped(self):
        index = GridIndex({0: (0, 0), 1: (1, 1)}, cell_size=1.0)
        assert len(index.nearest((0, 0), count=10)) == 2

    def test_nearest_empty_index(self):
        assert GridIndex({}, 1.0).nearest((0, 0)) == []

    def test_nearest_rejects_bad_count(self):
        index = GridIndex({0: (0, 0)}, 1.0)
        with pytest.raises(ConfigurationError):
            index.nearest((0, 0), count=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_fails_closed(self, bad):
        with pytest.raises(ConfigurationError):
            GridIndex({0: (0.0, 0.0), 1: (bad, 1.0)}, 1.0)
        with pytest.raises(ConfigurationError):
            GridIndex({0: (1.0, bad)}, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_fails_closed(self, bad):
        index = GridIndex({0: (0.0, 0.0), 1: (1.0, 1.0)}, 1.0)
        with pytest.raises(ConfigurationError):
            index.nearest((bad, 0.0))
        with pytest.raises(ConfigurationError):
            index.nearest_many([(0.0, 0.0), (0.0, bad)], count=2)
        with pytest.raises(ConfigurationError):
            GridIndex({}, 1.0).nearest((bad, 0.0))

    def test_location_lookup(self):
        index = GridIndex({7: (1.5, 2.5)}, 1.0)
        assert index.location(7) == (1.5, 2.5)
        assert len(index) == 1


@settings(max_examples=30, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=60
    ),
    query=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
)
def test_property_grid_nearest_is_exact(points, query):
    """Grid 1-NN always equals the brute-force nearest distance."""
    table = {i: p for i, p in enumerate(points)}
    index = GridIndex(table, cell_size=7.0)
    found = index.nearest(query, count=1)[0]
    best = min(euclidean(query, p) for p in points)
    assert euclidean(query, table[found]) == pytest.approx(best)


def _reference_nearest(points, cell, point, count):
    """The per-point ring search ``GridIndex.nearest`` ran before
    ``nearest_many``, kept as the oracle the batched search must match
    list for list (order and tie-breaks included)."""

    def key(x, y):
        return (int(math.floor(x / cell)), int(math.floor(y / cell)))

    buckets = {}
    for pid, (x, y) in points.items():
        buckets.setdefault(key(x, y), []).append(pid)
    if not points:
        return []
    count = min(count, len(points))
    cx, cy = key(point[0], point[1])
    last_ring = max(max(abs(bx - cx), abs(by - cy)) for bx, by in buckets)
    best = []
    ring = 0
    while True:
        candidates = []
        for dx in range(-ring, ring + 1):
            for dy in range(-ring, ring + 1):
                if max(abs(dx), abs(dy)) != ring:
                    continue
                candidates.extend(buckets.get((cx + dx, cy + dy), ()))
        for pid in candidates:
            best.append((euclidean(point, points[pid]), pid))
        best.sort(key=lambda pair: pair[0])
        best = best[: count * 4]
        if ring >= last_ring:
            return [pid for _, pid in best[:count]]
        if len(best) >= count and best[count - 1][0] <= ring * cell:
            return [pid for _, pid in best[:count]]
        ring += 1


# Free floats, and grid-aligned ones that make exact distance ties
# (e.g. offsets (1, 7) and (5, 5)) and distances equal to a ring bound.
_coordinate = st.one_of(
    st.floats(-20, 20),
    st.integers(-20, 20).map(float),
    st.integers(-40, 40).map(lambda v: v / 2.0),
)


@st.composite
def _layouts(draw):
    coords = draw(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40))
    # Duplicate points: exact ties broken by discovery order.
    coords += draw(st.lists(st.sampled_from(coords), max_size=6))
    pids = draw(st.sampled_from(["int", "str"]))
    if pids == "int":
        points = {i: p for i, p in enumerate(coords)}
    else:
        points = {f"p{i}": p for i, p in enumerate(coords)}
    queries = draw(st.lists(
        st.one_of(
            st.sampled_from(coords),
            st.tuples(_coordinate, _coordinate),
            # Outside the points' bounding box.
            st.tuples(st.floats(-30, 30), st.floats(-30, 30)),
        ),
        min_size=1, max_size=12,
    ))
    cell = draw(st.sampled_from([1.0, 2.5, 5.0, 7.0]))
    count = draw(st.integers(1, len(points) + 5))
    return points, cell, queries, count


@settings(max_examples=200, deadline=None)
@given(layout=_layouts())
def test_property_nearest_many_matches_per_point_search(layout):
    points, cell, queries, count = layout
    index = GridIndex(points, cell)
    found = index.nearest_many(queries, count)
    assert found == [_reference_nearest(points, cell, q, count) for q in queries]
    assert index.nearest(queries[0], count) == found[0]


class TestNearestMany:
    def test_empty_index_answers_every_query(self):
        assert GridIndex({}, 1.0).nearest_many([(0, 0), (1, 1)], 3) == [[], []]

    def test_no_queries(self):
        assert GridIndex({0: (0, 0)}, 1.0).nearest_many([], 3) == []

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            GridIndex({0: (0, 0)}, 1.0).nearest_many([(0, 0)], 0)

    def test_exact_tie_split_by_np_hypot(self):
        # math.hypot(25, 57) == math.hypot(43, 45), so discovery order
        # decides; np.hypot puts (43, 45) one ulp farther.
        index = GridIndex({"b": (43.0, 45.0), "a": (25.0, 57.0)}, 100.0)
        assert index.nearest((0.0, 0.0), 1) == ["b"]
        assert index.nearest_many([(0.0, 0.0)], 2) == [["b", "a"]]

    def test_truncation_keeps_near_ties(self):
        # Sixteen points at one math.hypot distance, which np.hypot
        # splits into two values; the first-discovered ones are the
        # farther np.hypot family, so neither the count * 4 cut nor the
        # order may follow np.hypot.
        base = [(43, 45), (25, 57)]
        offsets = [
            (sx * a, sy * b)
            for dx, dy in base
            for a, b in ((dx, dy), (dy, dx))
            for sx in (1, -1)
            for sy in (1, -1)
        ]
        points = {i: (100.0 + dx, 100.0 + dy) for i, (dx, dy) in enumerate(offsets)}
        index = GridIndex(points, 200.0)
        for count in (1, 2, 3, 9):
            assert index.nearest((100.0, 100.0), count) == _reference_nearest(
                points, 200.0, (100.0, 100.0), count
            )

    def test_many_queries_in_one_cell(self):
        # More queries than one row block, all in the same grid cell.
        rng = random.Random(5)
        points = {i: (rng.uniform(0, 10), rng.uniform(0, 10)) for i in range(400)}
        index = GridIndex(points, cell_size=10.0)
        queries = list(points.values())
        found = index.nearest_many(queries, 9)
        assert found == [_reference_nearest(points, 10.0, q, 9) for q in queries]

    def test_clustered_layout_matches_per_point_search(self):
        # The dataset generators' use: every user's candidate pool.
        rng = random.Random(8)
        positions = [
            (rng.gauss(cx, 20.0), rng.gauss(cy, 20.0))
            for cx, cy in [(0, 0), (300, 40), (120, 500)] * 200
        ]
        points = dict(enumerate(positions))
        index = GridIndex(points, cell_size=45.0)
        found = index.nearest_many(positions, 41)
        assert found == [_reference_nearest(points, 45.0, p, 41) for p in positions]
