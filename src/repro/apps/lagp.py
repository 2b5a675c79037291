"""LAGP — Location-Aware Graph Partitioning (Example 1, Section 6).

A geo-social network promotes upcoming events: each event is a class,
the assignment cost of a user is his distance (or travel time) to the
event, and RMGP recommends to every user an event that is nearby *and*
recommended to several of his friends.

:class:`LAGPTask` holds the long-lived state — the social graph, the
location hash table of last check-ins (Section 6's second hash table) and
the event catalog — and answers repeated real-time queries that may
restrict the audience to an area of interest, change the event subset,
``α``, or the algorithm variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.apps.spatial import Point, PointIndex, Rectangle, distance_matrix
from repro.core.game import RMGPGame
from repro.core.result import PartitionResult
from repro.errors import ConfigurationError
from repro.graph.social_graph import NodeId, SocialGraph


@dataclass(frozen=True)
class Event:
    """An event/venue a user can be recommended to attend."""

    event_id: Hashable
    location: Point
    name: str = ""

    def __str__(self) -> str:
        label = self.name or str(self.event_id)
        return f"{label}@({self.location[0]:.3g}, {self.location[1]:.3g})"


@dataclass
class LAGPResult:
    """Answer to one LAGP query.

    ``recommendation`` maps each participating user to the recommended
    :class:`Event`; ``partition`` is the underlying solver output with
    costs and round trace.
    """

    recommendation: Dict[NodeId, Event]
    partition: PartitionResult
    participants: List[NodeId]
    events: List[Event]

    def attendees(self) -> Dict[Hashable, List[NodeId]]:
        """Users grouped by recommended event id."""
        groups: Dict[Hashable, List[NodeId]] = {e.event_id: [] for e in self.events}
        for user, event in self.recommendation.items():
            groups[event.event_id].append(user)
        return groups


class LAGPTask:
    """Long-lived LAGP state answering repeated real-time queries."""

    def __init__(
        self,
        graph: SocialGraph,
        checkins: Dict[NodeId, Point],
        events: Sequence[Event],
        metric: str = "euclidean",
    ) -> None:
        missing = [node for node in graph if node not in checkins]
        if missing:
            raise ConfigurationError(
                f"users without check-ins: {sorted(map(repr, missing))[:5]}"
            )
        if not events:
            raise ConfigurationError("need at least one event")
        ids = [e.event_id for e in events]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("event ids must be distinct")
        self.graph = graph
        self.checkins = dict(checkins)
        self.events = list(events)
        self.metric = metric
        self.user_index = PointIndex({node: checkins[node] for node in graph})

    # ------------------------------------------------------------------
    def check_in(self, user: NodeId, location: Point) -> None:
        """Update a user's last check-in (locations "may be updated
        through check-ins", Section 1).  Rebuilding the index lazily per
        query keeps updates O(1)."""
        if user not in self.graph:
            raise ConfigurationError(f"unknown user {user!r}")
        self.checkins[user] = location
        self.user_index = None  # type: ignore[assignment]

    def participants_in(self, area: Optional[Rectangle]) -> List[NodeId]:
        """Users participating in a query: all, or those inside ``area``."""
        if area is None:
            return self.graph.nodes()
        if self.user_index is None:
            self.user_index = PointIndex(
                {node: self.checkins[node] for node in self.graph}
            )
        return self.user_index.range_query(area)

    def build_game(
        self,
        area: Optional[Rectangle] = None,
        events: Optional[Sequence[Event]] = None,
        alpha: float = 0.5,
    ) -> "Tuple[RMGPGame, List[NodeId], List[Event]]":
        """Construct the RMGP game for one query without solving it."""
        chosen_events = list(events) if events is not None else self.events
        if not chosen_events:
            raise ConfigurationError("query needs at least one event")
        participants = self.participants_in(area)
        if not participants:
            raise ConfigurationError("no users inside the area of interest")
        subgraph = (
            self.graph if area is None else self.graph.subgraph(participants)
        )
        user_points = [self.checkins[u] for u in subgraph.nodes()]
        event_points = [e.location for e in chosen_events]
        cost = distance_matrix(user_points, event_points, self.metric)
        game = RMGPGame(
            subgraph,
            classes=[e.event_id for e in chosen_events],
            cost=cost,
            alpha=alpha,
        )
        return game, subgraph.nodes(), chosen_events

    def query(
        self,
        area: Optional[Rectangle] = None,
        events: Optional[Sequence[Event]] = None,
        alpha: float = 0.5,
        method: str = "all",
        normalize_method: Optional[str] = "pessimistic",
        **solver_kwargs,
    ) -> LAGPResult:
        """Answer one LAGP query end to end.

        Defaults follow the paper's final experimental configuration:
        RMGP_all with pessimistic normalization.
        """
        game, participants, chosen_events = self.build_game(area, events, alpha)
        partition = game.solve(
            method=method, normalize_method=normalize_method, **solver_kwargs
        )
        by_id = {e.event_id: e for e in chosen_events}
        recommendation = {
            user: by_id[label] for user, label in partition.labels.items()
        }
        return LAGPResult(
            recommendation=recommendation,
            partition=partition,
            participants=participants,
            events=chosen_events,
        )
