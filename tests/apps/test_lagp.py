"""Unit tests for the LAGP application."""

import os
import subprocess
import sys

import pytest

from repro.apps import Event, LAGPTask, Rectangle
from repro.errors import ConfigurationError
from repro.graph import SocialGraph


@pytest.fixture
def task() -> LAGPTask:
    graph = SocialGraph.from_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    )
    checkins = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (9.0, 9.0), 3: (10.0, 9.0)}
    events = [
        Event("west", (0.5, 0.0)),
        Event("east", (9.5, 9.0)),
    ]
    return LAGPTask(graph, checkins, events)


class TestConstruction:
    def test_rejects_missing_checkins(self):
        graph = SocialGraph.from_edges([(0, 1)])
        with pytest.raises(ConfigurationError):
            LAGPTask(graph, {0: (0, 0)}, [Event("e", (0, 0))])

    def test_rejects_empty_events(self):
        graph = SocialGraph.from_edges([(0, 1)])
        with pytest.raises(ConfigurationError):
            LAGPTask(graph, {0: (0, 0), 1: (1, 1)}, [])

    def test_rejects_duplicate_event_ids(self):
        graph = SocialGraph.from_edges([(0, 1)])
        with pytest.raises(ConfigurationError):
            LAGPTask(
                graph,
                {0: (0, 0), 1: (1, 1)},
                [Event("e", (0, 0)), Event("e", (1, 1))],
            )


class TestQueries:
    def test_full_query_recommends_nearby_events(self, task):
        result = task.query(alpha=0.5, method="baseline", init="closest",
                            order="given", normalize_method=None)
        assert result.recommendation[0].event_id == "west"
        assert result.recommendation[1].event_id == "west"
        assert result.recommendation[2].event_id == "east"
        assert result.recommendation[3].event_id == "east"

    def test_attendees_grouping(self, task):
        result = task.query(method="baseline", init="closest", order="given",
                            normalize_method=None)
        attendees = result.attendees()
        assert sorted(attendees["west"]) == [0, 1]
        assert sorted(attendees["east"]) == [2, 3]

    def test_area_of_interest(self, task):
        area = Rectangle(-1.0, -1.0, 2.0, 1.0)
        result = task.query(area=area, method="baseline", normalize_method=None)
        assert sorted(result.participants) == [0, 1]
        assert set(result.recommendation) == {0, 1}

    def test_area_query_is_independent_of_hash_seed(self):
        """String ids hash differently per process; the subgraph of an
        area query keeps the graph's node order, so the solved
        assignment (index space) is the same under any hash seed."""
        hashes = {_area_query_hash(seed) for seed in ("1", "2")}
        assert len(hashes) == 1, hashes

    def test_empty_area_rejected(self, task):
        area = Rectangle(100.0, 100.0, 101.0, 101.0)
        with pytest.raises(ConfigurationError):
            task.query(area=area)

    def test_event_subset(self, task):
        only_west = [task.events[0]]
        result = task.query(events=only_west, method="baseline",
                            normalize_method=None)
        assert all(e.event_id == "west" for e in result.recommendation.values())

    def test_empty_event_subset_rejected(self, task):
        with pytest.raises(ConfigurationError):
            task.query(events=[])

    def test_check_in_moves_user(self, task):
        task.check_in(0, (9.0, 8.5))
        result = task.query(method="baseline", init="closest", order="given",
                            normalize_method=None)
        assert result.recommendation[0].event_id == "east"

    def test_check_in_unknown_user(self, task):
        with pytest.raises(ConfigurationError):
            task.check_in(99, (0, 0))

    def test_warm_start_round_trip(self, task):
        first = task.query(method="all", seed=0, normalize_method=None)
        second = task.query(
            method="all",
            seed=0,
            normalize_method=None,
            warm_start=first.partition.assignment,
        )
        assert second.partition.total_deviations == 0

    def test_build_game_without_solving(self, task):
        game, participants, events = task.build_game(alpha=0.3)
        assert game.alpha == 0.3
        assert len(participants) == 4
        assert len(events) == 2


SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

_AREA_QUERY = """
import hashlib
import random

import numpy as np

from repro.apps import Event, LAGPTask, Rectangle
from repro.graph import SocialGraph

rng = random.Random(5)
ids = [f"u{i}" for i in range(60)]
graph = SocialGraph(ids)
for i in range(60):
    for j in rng.sample(range(60), 3):
        if j != i:
            graph.add_edge(ids[i], ids[j], rng.uniform(0.5, 2.0))
checkins = {u: (rng.uniform(0, 10), rng.uniform(0, 10)) for u in ids}
events = [
    Event(f"e{j}", (rng.uniform(0, 10), rng.uniform(0, 10))) for j in range(4)
]
result = LAGPTask(graph, checkins, events).query(
    area=Rectangle(2.0, 2.0, 8.0, 8.0), seed=1
)
assignment = np.asarray(result.partition.assignment, dtype=np.int64)
print(hashlib.sha256(assignment.tobytes()).hexdigest())
"""


def _area_query_hash(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", _AREA_QUERY], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestEventStr:
    def test_event_str(self):
        event = Event("e1", (1.0, 2.0), name="concert")
        assert "concert" in str(event)
