"""TAGP — Topic-Aware Graph Partitioning (Example 2).

An on-line discussion forum places one advertisement per user so as to
maximize word-of-mouth: each advertisement is a class, the assignment
cost is the tf-idf cosine *dissimilarity* between a user's discussions
and the advertisement topic, and the social weight between two users is
the number of discussion threads they co-participated in.

:class:`TAGPTask` builds the co-participation graph and the dissimilarity
cost matrix from raw thread data, then delegates to the core game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.apps.tfidf import TfIdfModel, cosine_dissimilarity, fit_tfidf
from repro.core.game import RMGPGame
from repro.core.result import PartitionResult
from repro.errors import ConfigurationError
from repro.graph.social_graph import NodeId, SocialGraph


@dataclass(frozen=True)
class Advertisement:
    """An advertisement with its topic text."""

    ad_id: Hashable
    topic: str


@dataclass(frozen=True)
class DiscussionThread:
    """One forum thread: its text and the users who participated."""

    thread_id: Hashable
    text: str
    participants: Sequence[NodeId]


def co_participation_graph(threads: Sequence[DiscussionThread]) -> SocialGraph:
    """Social graph weighted by the number of common threads.

    Two users share an edge of weight ``t`` when they co-participated in
    ``t`` threads — the paper's TAGP connectivity measure.
    """
    graph = SocialGraph()
    for thread in threads:
        participants = list(dict.fromkeys(thread.participants))
        for user in participants:
            graph.add_node(user)
        for i, u in enumerate(participants):
            for v in participants[i + 1 :]:
                if graph.has_edge(u, v):
                    graph.add_edge(u, v, graph.weight(u, v) + 1.0)
                else:
                    graph.add_edge(u, v, 1.0)
    return graph


def user_documents(threads: Sequence[DiscussionThread]) -> Dict[NodeId, str]:
    """Concatenate each user's thread texts into one profile document."""
    profiles: Dict[NodeId, List[str]] = {}
    for thread in threads:
        for user in dict.fromkeys(thread.participants):
            profiles.setdefault(user, []).append(thread.text)
    return {user: " ".join(texts) for user, texts in profiles.items()}


class TAGPTask:
    """Long-lived TAGP state answering repeated advertisement queries."""

    def __init__(self, threads: Sequence[DiscussionThread]) -> None:
        if not threads:
            raise ConfigurationError("need at least one discussion thread")
        self.threads = list(threads)
        self.graph = co_participation_graph(self.threads)
        self._profiles = user_documents(self.threads)
        self.model: TfIdfModel = fit_tfidf(
            [t.text for t in self.threads]
        )
        self._user_vectors = {
            user: self.model.transform(text)
            for user, text in self._profiles.items()
        }

    def cost_matrix(self, ads: Sequence[Advertisement]) -> np.ndarray:
        """Dissimilarity matrix: users (graph order) x advertisements."""
        if not ads:
            raise ConfigurationError("need at least one advertisement")
        ad_vectors = [self.model.transform(ad.topic) for ad in ads]
        matrix = np.empty((self.graph.num_nodes, len(ads)), dtype=np.float64)
        for i, user in enumerate(self.graph.nodes()):
            vector = self._user_vectors[user]
            for j, ad_vector in enumerate(ad_vectors):
                matrix[i, j] = cosine_dissimilarity(vector, ad_vector)
        return matrix

    def build_game(
        self, ads: Sequence[Advertisement], alpha: float = 0.5
    ) -> RMGPGame:
        """Construct the RMGP game for an advertisement campaign."""
        ids = [ad.ad_id for ad in ads]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("advertisement ids must be distinct")
        return RMGPGame(self.graph, ids, self.cost_matrix(ads), alpha=alpha)

    def place_advertisements(
        self,
        ads: Sequence[Advertisement],
        alpha: float = 0.5,
        method: str = "all",
        normalize_method: Optional[str] = "pessimistic",
        **solver_kwargs,
    ) -> "tuple[Dict[NodeId, Advertisement], PartitionResult]":
        """Assign one advertisement to every user.

        Normalization matters here in the opposite direction from LAGP:
        dissimilarities live in [0, 1] while co-participation weights can
        reach the thousands (Section 3.3), so the social term would
        otherwise drown the topical fit.
        """
        game = self.build_game(ads, alpha)
        partition = game.solve(
            method=method, normalize_method=normalize_method, **solver_kwargs
        )
        by_id = {ad.ad_id: ad for ad in ads}
        placement = {
            user: by_id[label] for user, label in partition.labels.items()
        }
        return placement, partition
