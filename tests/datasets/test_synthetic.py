"""Unit tests for the Gowalla-like / Foursquare-like synthetic datasets."""

import random

import pytest

from repro.datasets import (
    foursquare_like,
    gowalla_like,
    jittered_checkins,
    metro_positions,
    sample_events,
    subsample_events,
)
from repro.datasets.geo import homophilous_friendships
from repro.errors import DataError


class TestMetroPositions:
    def test_counts(self):
        positions = metro_positions(
            100, [(0, 0), (100, 0)], [0.5, 0.5], 5.0, random.Random(0)
        )
        assert len(positions) == 100

    def test_clusters_around_centers(self):
        positions = metro_positions(
            500, [(0, 0), (1000, 0)], [0.5, 0.5], 10.0, random.Random(1)
        )
        near_a = sum(1 for x, _ in positions if x < 500)
        assert 150 < near_a < 350

    def test_rejects_mismatched_weights(self):
        with pytest.raises(DataError):
            metro_positions(10, [(0, 0)], [0.5, 0.5], 1.0, random.Random(0))

    def test_rejects_zero_weights(self):
        with pytest.raises(DataError):
            metro_positions(10, [(0, 0)], [0.0], 1.0, random.Random(0))


    def test_draw_above_rounded_sum_takes_last_metro(self):
        # Seven equal weights sum to 0.9999999999999998 cumulatively;
        # a draw above that belongs to the last metro.
        class TopDraw:
            def random(self):
                return 0.9999999999999999

            def gauss(self, mu, sigma):
                return mu

        centers = [(float(i), 0.0) for i in range(7)]
        positions = metro_positions(3, centers, [1.0] * 7, 1.0, TopDraw())
        assert positions == [(6.0, 0.0)] * 3

    @pytest.mark.parametrize(
        "weights", [[1.0, -0.5], [1.0, float("nan")], [1.0, float("inf")]]
    )
    def test_rejects_negative_or_non_finite_weights(self, weights):
        with pytest.raises(DataError):
            metro_positions(
                10, [(0, 0), (1, 1)], weights, 1.0, random.Random(0)
            )


class TestFriendships:
    def test_average_degree_near_target(self):
        rng = random.Random(2)
        positions = metro_positions(1500, [(0, 0)], [1.0], 20.0, rng)
        graph = homophilous_friendships(positions, 8.0, rng)
        assert 6.0 < graph.average_degree() < 10.0

    def test_heavy_tail(self):
        rng = random.Random(3)
        positions = metro_positions(1000, [(0, 0)], [1.0], 20.0, rng)
        graph = homophilous_friendships(positions, 6.0, rng)
        assert graph.max_degree() > 2.5 * graph.average_degree()

    def test_geographic_homophily(self):
        """Most friendships connect users closer than a random pair."""
        rng = random.Random(4)
        positions = metro_positions(800, [(0, 0)], [1.0], 30.0, rng)
        graph = homophilous_friendships(positions, 6.0, rng)
        import math

        def dist(u, v):
            (x1, y1), (x2, y2) = positions[u], positions[v]
            return math.hypot(x1 - x2, y1 - y2)

        edge_dists = [dist(u, v) for u, v, _ in graph.edges()]
        random_dists = [
            dist(rng.randrange(800), rng.randrange(800)) for _ in range(2000)
        ]
        edge_med = sorted(edge_dists)[len(edge_dists) // 2]
        rand_med = sorted(random_dists)[len(random_dists) // 2]
        assert edge_med < 0.5 * rand_med

    def test_rejects_bad_target(self):
        with pytest.raises(DataError):
            homophilous_friendships([(0, 0), (1, 1)], 0.0, random.Random(0))


class TestGowalla:
    @pytest.fixture(scope="class")
    def dataset(self):
        return gowalla_like(num_users=2000, num_events=32, seed=5)

    def test_shape(self, dataset):
        assert dataset.graph.num_nodes == 2000
        assert len(dataset.events) == 32
        assert len(dataset.checkins) == 2000

    def test_degree_matches_paper_density(self, dataset):
        # Paper: deg_avg ~ 7.6 for the full slice; generator targets it.
        assert 5.5 < dataset.graph.average_degree() < 9.5

    def test_unit_weights(self, dataset):
        assert all(w == 1.0 for _, _, w in dataset.graph.edges())

    def test_two_metro_clusters(self, dataset):
        ys = [p[1] for p in dataset.checkins.values()]
        low = sum(1 for y in ys if y < 130)
        high = len(ys) - low
        assert low > 200 and high > 200

    def test_cost_matrix_alignment(self, dataset):
        matrix = dataset.cost_matrix()
        assert matrix.shape == (2000, 32)
        assert (matrix >= 0).all()

    def test_deterministic_by_seed(self):
        a = gowalla_like(num_users=300, num_events=8, seed=9)
        b = gowalla_like(num_users=300, num_events=8, seed=9)
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())
        assert a.checkins == b.checkins

    def test_rejects_tiny(self):
        with pytest.raises(DataError):
            gowalla_like(num_users=1)


class TestFoursquare:
    def test_shape_and_density(self):
        dataset = foursquare_like(num_users=1200, num_events=64, seed=6)
        assert dataset.graph.num_nodes == 1200
        assert len(dataset.events) == 64
        # Target deg_avg ~ 25 (paper's density).
        assert 18 < dataset.graph.average_degree() < 32

    def test_rejects_degree_above_n(self):
        with pytest.raises(DataError):
            foursquare_like(num_users=10, avg_degree=20)


class TestEvents:
    def test_sample_count_and_ids(self):
        rng = random.Random(0)
        events = sample_events([(0.0, 0.0), (10.0, 10.0)], 16, rng)
        assert len(events) == 16
        assert len({e.event_id for e in events}) == 16

    def test_rejects_bad_arguments(self):
        rng = random.Random(0)
        with pytest.raises(DataError):
            sample_events([(0, 0)], 0, rng)
        with pytest.raises(DataError):
            sample_events([], 4, rng)
        with pytest.raises(DataError):
            sample_events([(0, 0)], 4, rng, near_user_fraction=1.5)

    def test_subsample(self):
        rng = random.Random(0)
        events = sample_events([(0.0, 0.0)], 16, rng)
        subset = subsample_events(events, 4, rng)
        assert len(subset) == 4
        assert {e.event_id for e in subset} <= {e.event_id for e in events}

    def test_subsample_errors(self):
        rng = random.Random(0)
        events = sample_events([(0.0, 0.0)], 4, rng)
        with pytest.raises(DataError):
            subsample_events(events, 0, rng)
        with pytest.raises(DataError):
            subsample_events(events, 5, rng)


class TestCheckins:
    def test_jitter_near_home(self):
        rng = random.Random(0)
        positions = [(0.0, 0.0), (100.0, 100.0)]
        checkins = jittered_checkins(positions, 1.0, rng)
        assert abs(checkins[0][0]) < 10
        assert abs(checkins[1][0] - 100) < 10
