"""Unit tests for the TAGP application."""

import os
import subprocess
import sys

import pytest

from repro.apps import (
    Advertisement,
    DiscussionThread,
    TAGPTask,
    co_participation_graph,
    user_documents,
)
from repro.errors import ConfigurationError

THREADS = [
    DiscussionThread(0, "bike trail ride gear", [1, 2, 3]),
    DiscussionThread(1, "bike race wheel carbon", [1, 2]),
    DiscussionThread(2, "oven pasta recipe sauce", [4, 5]),
    DiscussionThread(3, "kitchen oven bake bread", [4, 5, 3]),
]

ADS = [
    Advertisement("bike-ad", "carbon bike wheel gear sale"),
    Advertisement("cook-ad", "oven kitchen pasta recipe deals"),
]


class TestCoParticipationGraph:
    def test_weights_count_common_threads(self):
        graph = co_participation_graph(THREADS)
        assert graph.weight(1, 2) == 2.0  # threads 0 and 1
        assert graph.weight(4, 5) == 2.0  # threads 2 and 3
        assert graph.weight(1, 3) == 1.0

    def test_duplicate_participants_counted_once(self):
        graph = co_participation_graph(
            [DiscussionThread(0, "x", [1, 1, 2])]
        )
        assert graph.weight(1, 2) == 1.0

    def test_solo_thread_adds_node(self):
        graph = co_participation_graph([DiscussionThread(0, "x", [9])])
        assert 9 in graph
        assert graph.degree(9) == 0


class TestUserDocuments:
    def test_concatenates_texts(self):
        docs = user_documents(THREADS)
        assert "bike" in docs[1]
        assert "oven" in docs[4]
        # User 3 participated in a bike and a cooking thread.
        assert "bike" in docs[3] and "oven" in docs[3]


class TestTask:
    def test_rejects_empty_threads(self):
        with pytest.raises(ConfigurationError):
            TAGPTask([])

    def test_cost_matrix_shape_and_range(self):
        task = TAGPTask(THREADS)
        matrix = task.cost_matrix(ADS)
        assert matrix.shape == (task.graph.num_nodes, 2)
        assert (matrix >= 0).all() and (matrix <= 1).all()

    def test_cost_matrix_rejects_empty_ads(self):
        task = TAGPTask(THREADS)
        with pytest.raises(ConfigurationError):
            task.cost_matrix([])

    def test_topical_users_prefer_matching_ads(self):
        task = TAGPTask(THREADS)
        matrix = task.cost_matrix(ADS)
        users = task.graph.nodes()
        bike_user = users.index(1)
        cook_user = users.index(4)
        assert matrix[bike_user, 0] < matrix[bike_user, 1]
        assert matrix[cook_user, 1] < matrix[cook_user, 0]

    def test_placement_end_to_end(self):
        task = TAGPTask(THREADS)
        placement, partition = task.place_advertisements(
            ADS, method="baseline", init="closest", order="given",
            normalize_method=None,
        )
        assert partition.converged
        assert placement[1].ad_id == "bike-ad"
        assert placement[4].ad_id == "cook-ad"

    def test_rejects_duplicate_ad_ids(self):
        task = TAGPTask(THREADS)
        with pytest.raises(ConfigurationError):
            task.build_game([ADS[0], ADS[0]])

    def test_normalized_placement_runs(self):
        task = TAGPTask(THREADS)
        placement, partition = task.place_advertisements(
            ADS, method="all", normalize_method="pessimistic", seed=0
        )
        assert set(placement) == set(task.graph.nodes())
        assert partition.converged


SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: One TAGP answer over string user ids: the profile, vocabulary and
#: graph orders, the cost matrix bytes and the placement.
_ANSWER_SCRIPT = """
import hashlib, json
from repro.apps import DiscussionThread, TAGPTask, user_documents
from repro.datasets.forum import forum_like
forum = forum_like(num_users=80, seed=5)
threads = [
    DiscussionThread(t.thread_id, t.text, [f"user-{p}" for p in t.participants])
    for t in forum.threads
]
task = TAGPTask(threads)
ads = forum.default_advertisements()
placement, result = task.place_advertisements(ads, method="all", seed=0)
print(json.dumps([
    list(user_documents(threads)), list(task.model.idf), task.graph.nodes(),
    hashlib.sha256(task.cost_matrix(ads).tobytes()).hexdigest(),
    [[user, ad.ad_id] for user, ad in placement.items()],
    result.converged,
]))
"""


def test_answer_does_not_follow_string_hashing():
    """Set iteration order follows the per-process string hash salt; a
    TAGP answer over string ids must not."""
    answers = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
        done = subprocess.run(
            [sys.executable, "-c", _ANSWER_SCRIPT], capture_output=True,
            text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        answers.append(done.stdout)
    assert answers[0] == answers[1]
