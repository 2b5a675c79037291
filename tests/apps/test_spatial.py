"""Unit tests for spatial primitives and the point index."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    PointIndex,
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
    """``PointIndex`` basics (the class name is the one the grid index
    it replaced had, kept so the test ids stay stable)."""

    def test_range_query_matches_brute_force(self):
        rng = random.Random(0)
        points = {i: (rng.uniform(0, 10), rng.uniform(0, 10)) for i in range(200)}
        index = PointIndex(points)
        rect = Rectangle(2.0, 3.0, 6.5, 7.25)
        expected = [pid for pid, p in points.items() if rect.contains(p)]
        assert index.range_query(rect) == expected

    def test_range_query_hostile_rectangle(self):
        # Far larger than the points' extent: time must not grow with area.
        points = {"a": (0.0, 0.0), "b": (5.0, -3.0), "c": (2e9, 0.0), "d": (1.0, 1.0)}
        index = PointIndex(points)
        rect = Rectangle(-1e9, -1e9, 1e9, 1e9)
        expected = [pid for pid, p in points.items() if rect.contains(p)]
        assert index.range_query(rect) == expected == ["a", "b", "d"]
        assert index.range_query(Rectangle(-1e308, -1e308, 1e308, 1e308)) == list(points)
        assert PointIndex({}).range_query(rect) == []

    def test_nearest_matches_brute_force(self):
        rng = random.Random(1)
        points = {i: (rng.uniform(0, 5), rng.uniform(0, 5)) for i in range(100)}
        index = PointIndex(points)
        for _ in range(10):
            query = (rng.uniform(0, 5), rng.uniform(0, 5))
            found = index.nearest(query, count=3)
            brute = sorted(points, key=lambda pid: euclidean(query, points[pid]))
            found_d = [euclidean(query, points[p]) for p in found]
            brute_d = [euclidean(query, points[p]) for p in brute[:3]]
            assert found_d == pytest.approx(brute_d)

    def test_nearest_count_clamped(self):
        index = PointIndex({0: (0, 0), 1: (1, 1)})
        assert len(index.nearest((0, 0), count=10)) == 2

    def test_nearest_empty_index(self):
        assert PointIndex({}).nearest((0, 0)) == []

    def test_nearest_rejects_bad_count(self):
        index = PointIndex({0: (0, 0)})
        with pytest.raises(ConfigurationError):
            index.nearest((0, 0), count=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_fails_closed(self, bad):
        with pytest.raises(ConfigurationError):
            PointIndex({0: (0.0, 0.0), 1: (bad, 1.0)})
        with pytest.raises(ConfigurationError):
            PointIndex({0: (1.0, bad)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_fails_closed(self, bad):
        index = PointIndex({0: (0.0, 0.0), 1: (1.0, 1.0)})
        with pytest.raises(ConfigurationError):
            index.nearest((bad, 0.0))
        with pytest.raises(ConfigurationError):
            index.nearest_many([(0.0, 0.0), (0.0, bad)], count=2)
        with pytest.raises(ConfigurationError):
            PointIndex({}).nearest((bad, 0.0))

    def test_location_lookup(self):
        index = PointIndex({7: (1.5, 2.5)})
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
    """1-NN always equals the brute-force nearest distance."""
    table = {i: p for i, p in enumerate(points)}
    index = PointIndex(table)
    found = index.nearest(query, count=1)[0]
    best = min(euclidean(query, p) for p in points)
    assert euclidean(query, table[found]) == pytest.approx(best)


def _reference_nearest(points, point, count):
    """The specification ``nearest_many`` must match list for list: the
    ids sorted by ``(math.hypot distance, insertion position)``, cut to
    ``count``."""
    ids = list(points)
    ranked = sorted(
        range(len(ids)), key=lambda pos: (euclidean(point, points[ids[pos]]), pos)
    )
    return [ids[pos] for pos in ranked[:count]]


# Free floats, and grid-aligned ones that make exact distance ties
# (e.g. offsets (1, 7) and (5, 5)).  Layouts scaled by 1e160 square to
# infinity and layouts scaled by 1e-160 square to subnormals or zero.
_coordinate = st.one_of(
    st.floats(-20, 20),
    st.integers(-20, 20).map(float),
    st.integers(-40, 40).map(lambda v: v / 2.0),
)
_scale = st.sampled_from([1.0, 1.0, 1e160, -1e160, 1e-160, -1e-160])


@st.composite
def _layouts(draw):
    scale = draw(_scale)
    coords = draw(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40))
    coords = [(x * scale, y * scale) for x, y in coords]
    # Duplicate points: exact ties broken by insertion position.
    coords += draw(st.lists(st.sampled_from(coords), max_size=6))
    pids = draw(st.sampled_from(["int", "str"]))
    if pids == "int":
        points = {i: p for i, p in enumerate(coords)}
    else:
        points = {f"p{i}": p for i, p in enumerate(coords)}
    queries = draw(st.lists(
        st.one_of(
            st.sampled_from(coords),
            st.tuples(_coordinate, _coordinate).map(
                lambda q: (q[0] * scale, q[1] * scale)
            ),
            # Outside the points' bounding box.
            st.tuples(st.floats(-30, 30), st.floats(-30, 30)).map(
                lambda q: (q[0] * scale, q[1] * scale)
            ),
        ),
        min_size=1, max_size=12,
    ))
    count = draw(st.integers(1, len(points) + 5))
    return points, queries, count


@settings(max_examples=200, deadline=None)
@given(layout=_layouts())
def test_property_nearest_many_matches_per_point_search(layout):
    points, queries, count = layout
    index = PointIndex(points)
    found = index.nearest_many(queries, count)
    assert found == [_reference_nearest(points, q, count) for q in queries]
    assert index.nearest(queries[0], count) == found[0]


class TestNearestMany:
    def test_empty_index_answers_every_query(self):
        assert PointIndex({}).nearest_many([(0, 0), (1, 1)], 3) == [[], []]

    def test_no_queries(self):
        assert PointIndex({0: (0, 0)}).nearest_many([], 3) == []

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            PointIndex({0: (0, 0)}).nearest_many([(0, 0)], 0)

    def test_exact_tie_split_by_np_hypot(self):
        # math.hypot(25, 57) == math.hypot(43, 45), so insertion
        # position decides; np.hypot puts (43, 45) one ulp farther.
        assert np.hypot(43.0, 45.0) > np.hypot(25.0, 57.0)
        assert math.hypot(43.0, 45.0) == math.hypot(25.0, 57.0)
        index = PointIndex({"b": (43.0, 45.0), "a": (25.0, 57.0)})
        assert index.nearest((0.0, 0.0), 1) == ["b"]
        assert index.nearest_many([(0.0, 0.0)], 2) == [["b", "a"]]
        index = PointIndex({"a": (25.0, 57.0), "b": (43.0, 45.0)})
        assert index.nearest_many([(0.0, 0.0)], 2) == [["a", "b"]]

    def test_truncation_keeps_near_ties(self):
        # Sixteen points at one math.hypot distance, which np.hypot
        # splits into two values; the first-inserted ones are the
        # farther np.hypot family, so neither the candidate cut nor the
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
        index = PointIndex(points)
        for count in (1, 2, 3, 9):
            found = index.nearest((100.0, 100.0), count)
            assert found == list(range(count))
            assert found == _reference_nearest(points, (100.0, 100.0), count)

    def test_overflowing_squares_take_the_exact_path(self):
        # Every nonzero square overflows to inf.  Seen from -1.5e308,
        # points 0-2 all round to distance 1.5e308 (a tie kept in
        # insertion order) and point 3's difference overflows to inf.
        points = {0: (1e160, 0.0), 1: (-1e160, 0.0), 2: (3e160, 0.0),
                  3: (1.5e308, 0.0), 4: (-1.5e308, 0.0)}
        index = PointIndex(points)
        assert index.nearest((0.0, 0.0), 2) == [0, 1]
        assert index.nearest((-1.5e308, 0.0), 5) == [4, 0, 1, 2, 3]
        for query in [(0.0, 0.0), (2e160, 1e160), (-1.5e308, 0.0), (1e308, 1e308)]:
            assert index.nearest(query, 3) == _reference_nearest(points, query, 3)
        # Farthest first: selecting among infinite squares by position
        # would miss the nearest ones.
        far_first = PointIndex({i: (x * 1e160, 0.0) for i, x in enumerate([5, 4, 3, 1, 2])})
        assert far_first.nearest((0.0, 0.0), 1) == [3]
        assert far_first.nearest((0.0, 0.0), 2) == [3, 4]

    def test_underflowing_squares_take_the_exact_path(self):
        # Every square rounds to zero, which would select by position.
        points = {0: (3e-170, 0.0), 1: (2e-170, 0.0), 2: (1e-170, 0.0), 3: (0.0, 4e-170)}
        index = PointIndex(points)
        assert index.nearest((0.0, 0.0), 1) == [2]
        assert index.nearest((0.0, 0.0), 2) == [2, 1]
        assert index.nearest_many([(0.0, 0.0), (0.0, 3e-170)], 3) == [
            [2, 1, 0], [3, 2, 1],
        ]

    def test_square_gap_inside_the_margin_takes_the_exact_path(self):
        # Equal math.hypot distances (insertion position decides) whose
        # squares differ by one ulp, in the other order.
        a = (1.122901694889702, 1.2417869892607294)
        b = (1.2951935655656968, 1.0608566212267372)
        assert math.hypot(*a) == math.hypot(*b)
        assert a[0] * a[0] + a[1] * a[1] > b[0] * b[0] + b[1] * b[1]
        index = PointIndex({0: a, 1: b})
        assert index.nearest_many([(0.0, 0.0)], 2) == [[0, 1]]

    def test_subnormal_squares_take_the_exact_path(self):
        # Nonzero subnormal squares 0.4% apart, in the opposite order
        # to the distances: a subnormal has too few bits to order by.
        a = (1.9901537977729362e-161, 2.8908351268104555e-161)
        b = (1.8551817752244236e-161, 2.9789901358042435e-161)
        assert math.hypot(*a) > math.hypot(*b)
        assert a[0] * a[0] + a[1] * a[1] < b[0] * b[0] + b[1] * b[1]
        index = PointIndex({0: a, 1: b})
        assert index.nearest_many([(0.0, 0.0)], 2) == [[1, 0]]
        assert index.nearest((0.0, 0.0), 1) == [1]

    def test_many_queries_in_one_cell(self):
        # More queries than one block of rows, all in one small square.
        rng = random.Random(5)
        points = {i: (rng.uniform(0, 10), rng.uniform(0, 10)) for i in range(400)}
        index = PointIndex(points)
        queries = list(points.values())
        found = index.nearest_many(queries, 9)
        assert found == [_reference_nearest(points, q, 9) for q in queries]

    def test_clustered_layout_matches_per_point_search(self):
        # The dataset generators' use: every user's candidate pool.
        rng = random.Random(8)
        positions = [
            (rng.gauss(cx, 20.0), rng.gauss(cy, 20.0))
            for cx, cy in [(0, 0), (300, 40), (120, 500)] * 200
        ]
        points = dict(enumerate(positions))
        index = PointIndex(points)
        found = index.nearest_many(positions, 41)
        assert found == [_reference_nearest(points, p, 41) for p in positions]
